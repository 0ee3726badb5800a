import ast
import marshal
import os
import random
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qirank.search
from qirank.certify import certify
from qirank.gaussian import GaussInt
from qirank.primes import is_rational_prime, rational_prime_sieve
from qirank.search import (
    OFFSETS,
    Box,
    ConstellationHit,
    Rejection,
    TARGET_CLASS,
    _BETA_CLASS_K0,
    _BETA_CLASS_K8,
    _SIEVE_TABLE,
    _join_rows,
    _join_window,
    _period_masks,
    _scan_shard,
    _shard_ranges,
    _sieve_k,
    _struck_lines,
    constellation_at,
    constellation_primes,
    find_first_hit,
    prime_density_stats,
    search_region,
)

import oracles
from oracles import (
    constellation_primes_by_offsets,
    density_by_point,
    residue_prefilter,
    scan_pairs,
)

# first hit of the canonical expanding schedule; frozen regression constant
FROZEN_BETA = GaussInt(15, 10)
FROZEN_K = 16
FROZEN_PRIMES = (
    GaussInt(-1, 26),
    GaussInt(-1, -6),
    GaussInt(31, -6),
    GaussInt(31, 26),
)


def gi(re, im=0):
    return GaussInt(re, im)


def congruent_mod16(p):
    return (p.re - TARGET_CLASS.re) % 16 == 0 and (p.im - TARGET_CLASS.im) % 16 == 0


class TestConstellationPrimes:
    def test_j_order(self):
        values = constellation_primes(FROZEN_BETA, FROZEN_K)
        assert values == FROZEN_PRIMES

    def test_sum_and_difference_identities(self):
        rng = random.Random(70)
        for _ in range(100):
            b = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
            k = rng.randint(-50, 50)
            p1, p2, p3, p4 = constellation_primes(b, k)
            assert p1 + p3 == b + b
            assert p2 + p4 == b + b
            assert p1 - p4 == gi(-2 * k)

    def test_product_identity(self):
        rng = random.Random(71)
        for _ in range(1000):
            b = GaussInt(rng.randint(-100, 100), rng.randint(-100, 100))
            k = rng.randint(-100, 100)
            p1, p2, p3, p4 = constellation_primes(b, k)
            assert p1 * p2 * p3 * p4 == b ** 4 + gi(4 * k ** 4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**64, 2**64), st.integers(-2**64, 2**64),
           st.integers(-2**64, 2**64))
    @example(0, 0, 0)
    @example(15, 10, 16)
    @example(15, 10, -16)
    @example(-2**64, 2**64, -2**64)
    def test_equals_the_offset_products(self, re, im, k):
        beta = GaussInt(re, im)
        assert constellation_primes(beta, k) == constellation_primes_by_offsets(beta, k)


class TestConstellationAt:
    def test_k_zero_rejected(self):
        result = constellation_at(gi(7, 2), 0)
        assert isinstance(result, Rejection)
        assert result.reason == "primes not distinct"

    def test_k_not_multiple_of_8_fails_congruence(self):
        for k in (1, 2, 4, 7, 12):
            result = constellation_at(FROZEN_BETA, k)
            assert isinstance(result, Rejection)
            assert "not congruent" in result.reason

    def test_frozen_hit_validates(self):
        result = constellation_at(FROZEN_BETA, FROZEN_K)
        assert isinstance(result, ConstellationHit)
        assert result.primes == FROZEN_PRIMES
        assert len(set(result.primes)) == 4
        for p in result.primes:
            assert congruent_mod16(p)

    def test_prime_failure_names_condition(self):
        # beta = -1-6i, k = 16 puts p_2 = -33-22i = -11(3+2i), not prime
        result = constellation_at(gi(-1, -6), 16)
        assert isinstance(result, Rejection)
        assert "not a Gaussian prime" in result.reason


class TestResiduePrefilter:
    def test_exhaustive_soundness(self):
        # filter == direct four-congruence test across all 256 * 16 residue
        # combinations; k-class 0 is represented by k = 16 to keep k nonzero
        for br in range(16):
            for bi in range(16):
                beta = GaussInt(br, bi)
                for k0 in range(16):
                    k = k0 if k0 != 0 else 16
                    direct = all(
                        congruent_mod16(p) for p in constellation_primes(beta, k)
                    )
                    assert residue_prefilter(beta, k) == direct, (br, bi, k0)

    def test_rejects_k_zero(self):
        assert not residue_prefilter(gi(15, 10), 0)

    def test_accepts_frozen(self):
        assert residue_prefilter(FROZEN_BETA, FROZEN_K)


class TestSearchRegion:
    def test_empty_region(self):
        assert search_region(Box(5, 4, 0, 0), (-64, 64)) == []
        assert search_region(Box.centered(20), (1, 7)) == []

    def test_shard_determinism(self):
        box = Box.centered(40)
        h1 = search_region(box, (-40, 40), shards=1)
        h8 = search_region(box, (-40, 40), shards=8)
        assert h1 == h8
        assert h1  # the region contains the frozen hit

    def test_canonical_order(self):
        hits = search_region(Box.centered(48), (-48, 48))
        keys = [h.sort_key() for h in hits]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_first_hit_is_frozen_constant(self):
        hits = search_region(Box.centered(32), (-32, 32))
        assert hits[0].beta == FROZEN_BETA
        assert hits[0].k == FROZEN_K
        assert hits[0].primes == FROZEN_PRIMES

    def test_im_beta_class(self):
        for h in search_region(Box.centered(48), (-48, 48)):
            assert h.beta.im % 8 == 2

    def test_progress_records(self):
        records = []
        search_region(Box.centered(20), (-16, 16), shards=2, progress=records.append)
        assert len(records) == 2
        for rec in records:
            assert rec["event"] == "shard_done"
            assert rec["candidates"] >= rec["filter_pass"] >= rec["hits"]


def brute_force_region(box, k_range):
    """Oracle: constellation_at on every residue-passing pair, canonical order."""
    hits = [
        result
        for a in range(box.re_min, box.re_max + 1)
        for b in range(box.im_min, box.im_max + 1)
        for k in range(k_range[0], k_range[1] + 1)
        if residue_prefilter(GaussInt(a, b), k)
        for result in [constellation_at(GaussInt(a, b), k)]
        if isinstance(result, ConstellationHit)
    ]
    hits.sort(key=ConstellationHit.sort_key)
    return hits


def brute_force_counts(args):
    """Oracle: (candidates, residue-passing pairs) of a shard, pair by pair."""
    betas = [GaussInt(a, b) for a in range(args[0], args[1] + 1)
             for b in range(args[2], args[3] + 1)]
    ks = [k for k in range(args[4], args[5] + 1) if k % 8 == 0 and k]
    return len(betas) * len(ks), sum(residue_prefilter(b, k) for b in betas for k in ks)


# (beta box, k range, hit count): the origin; an off-origin box whose hits
# 135-110i (k = +-56) and 111-150i (k = -80) cover both k classes and negative
# k; a window near 2^20 holding 1048519+1048626i, k = +-280
KERNEL_REGIONS = [
    (Box.centered(48), (-48, 48), 6),
    (Box(64, 159, -150, -71), (-120, 64), 3),
    (Box(1048512, 1048543, 1048608, 1048639), (-320, 320), 2),
]


def shard_args(box, k_range):
    """The one shard of a region, as search_region hands it to _scan_shard."""
    return (box.re_min, box.re_max, box.im_min, box.im_max, *k_range)


def kernel_input(args):
    """The classes that hold pairs, and the window, as _scan_shard hands them
    to a kernel."""
    classes = _shard_ranges(args)
    return [c for c in classes if c[0] and c[1]], _join_window(classes)


def pair_count(classes):
    """The residue-passing pairs of a shard's classes, from range lengths."""
    return sum(len(res) * len(ims) * (len(ks) - (0 in ks)) for res, ims, ks in classes)


def in_order(hits):
    return sorted(hits, key=ConstellationHit.sort_key)


def proven(survivors):
    """constellation_at over the (a, b, k) a kernel yields: the hits, in
    canonical order."""
    return in_order(
        result
        for a, b, k in survivors
        for result in [constellation_at(GaussInt(a, b), k)]
        if isinstance(result, ConstellationHit)
    )


class EveryNumberPrime:
    """A sieve stand-in that flags every number of any range as prime."""

    def __getitem__(self, index):
        return 1


class ExactFlags:
    """The flags of start, start + step, ... read one at a time from is_rational_prime."""

    def __init__(self, start, step):
        self.start = start
        self.step = step

    def __getitem__(self, index):
        return int(is_rational_prime(self.start + index * self.step))


def exact_sieve(limit, start=0, step=1):
    """rational_prime_sieve, or lazy exact flags for a range too long to hold.

    The window near 2^20 of KERNEL_REGIONS spans about 2.8e9 norms, 8.7e7
    of them = 5 mod 32, of which the join reads about 2000.
    """
    if len(range(start, limit + 1, step)) < 1 << 22:
        return rational_prime_sieve(limit, start, step)
    return ExactFlags(start, step)


def refuse_sieve(limit, start=0, step=1):
    raise AssertionError(f"sieved {start}..{limit} by {step}")


def refuse_sieve_k(classes, lo):
    raise AssertionError(f"sieve along k on {classes}")


def sieve_input(args):
    """The classes that hold pairs, and the window's least norm, as
    _scan_shard hands them to the sieve along k; any least norm serves a
    shard with no pair."""
    classes, window = kernel_input(args)
    return classes, window[2] if window else 0


def assert_kernels_agree(args):
    """The join yields exactly the pairs of the pair loop's hits on one shard.

    The join's rows are exact, so every pair it yields has four prime values
    in the target class: it yields hits only.  Returns the hits.
    """
    classes, window = kernel_input(args)
    hits = proven(scan_pairs(classes))
    joined = list(_join_rows(classes, window)) if window else []
    assert sorted(joined) == sorted((h.beta.re, h.beta.im, h.k) for h in hits), args
    return hits


class TestScanKernel:
    @pytest.mark.parametrize("box, k_range, count", KERNEL_REGIONS)
    def test_matches_brute_force(self, box, k_range, count):
        expected = brute_force_region(box, k_range)
        assert len(expected) == count
        for shards in (1, 3):
            assert search_region(box, k_range, shards=shards) == expected

    @pytest.mark.parametrize("box, k_range, count", KERNEL_REGIONS)
    def test_norm_filter_is_only_an_optimisation(self, monkeypatch, box, k_range, count):
        # with no prime to strike and a stage that passes everything, the
        # sieve along k yields every residue-passing pair, and
        # constellation_at must still give the same hits
        records = []
        expected = search_region(box, k_range, progress=records.append)
        monkeypatch.setattr(qirank.search, "_SIEVE_TABLE", ())
        monkeypatch.setattr(qirank.search, "is_base2_probable_prime", lambda n: True)
        survivors = list(_sieve_k(*sieve_input(shard_args(box, k_range))))
        assert proven(survivors) == expected
        assert len(expected) == count
        assert len(set(survivors)) == len(survivors) == sum(r["filter_pass"] for r in records)

    @pytest.mark.parametrize("box, k_range, count", KERNEL_REGIONS)
    def test_prime_rows_are_only_an_optimisation(self, monkeypatch, box, k_range, count):
        # with a sieve that says every number is prime, every row is full, so
        # the join yields every residue-passing pair
        records = []
        expected = search_region(box, k_range, progress=records.append)
        monkeypatch.setattr(qirank.search, "rational_prime_sieve",
                            lambda limit, start=0, step=1: EveryNumberPrime())
        survivors = list(_join_rows(*kernel_input(shard_args(box, k_range))))
        assert proven(survivors) == expected
        assert len(expected) == count
        assert len(set(survivors)) == len(survivors) == sum(r["filter_pass"] for r in records)

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.integers(-(1 << 36), 1 << 36),
        v=st.integers(-(1 << 36), 1 << 36),
        m=st.integers(-(1 << 37), 1 << 37).filter(bool),
    )
    @example(u=0, v=0, m=2)                      # beta = 15+10i, k = 16
    @example(u=65532, v=65539, m=35)             # 1048519+1048626i, k = 280
    @example(u=-1, v=-1, m=2)                    # -1-6i, k = 16: p_2 not prime
    def test_one_point_agrees_with_constellation_at(self, u, v, m):
        k = 8 * m
        cre, cim = _BETA_CLASS_K0 if k % 16 == 0 else _BETA_CLASS_K8
        a, b = 16 * u + cre, 16 * v + cim
        hits, candidates, passes = _scan_shard((a, a, b, b, k, k))
        result = constellation_at(GaussInt(a, b), k)
        assert (candidates, passes) == (1, 1)
        assert hits == ([result] if isinstance(result, ConstellationHit) else [])

    def test_wide_k_range_is_streamed(self):
        tracemalloc.start()
        try:
            result = _scan_shard((0, 0, 0, 0, -10**6, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ([], 250000, 0)
        assert peak < 10**6

    def test_counts_match_brute_force(self):
        rng = random.Random(14)
        for _ in range(200):
            re_lo, im_lo, k_lo = (rng.randint(-100, 100) for _ in range(3))
            region = (re_lo, re_lo + rng.randint(-3, 40),
                      im_lo, im_lo + rng.randint(-3, 40),
                      k_lo, k_lo + rng.randint(-20, 120))
            assert _scan_shard(region)[1:] == brute_force_counts(region)


# (shard args, hit count by brute_force_region): empty boxes and k ranges,
# one point, one column and one row, boxes that are negative or off-centre,
# k ranges that leave out 0 or straddle it unevenly
KERNEL_EDGE_CASES = [
    ((5, 4, -64, 64, -64, 64), 0),
    ((-64, 64, 9, 8, -64, 64), 0),
    ((-64, 64, -64, 64, 1, 7), 0),
    ((-64, 64, -64, 64, 0, 0), 0),
    ((15, 15, 10, 10, 16, 16), 1),
    ((15, 15, -200, 200, -200, 200), 4),
    ((-200, 200, 10, 10, -200, 200), 4),
    ((-200, -100, -150, -50, 8, 200), 5),
    ((-120, 40, -90, 70, -24, 300), 12),
    ((500, 560, -700, -640, -40, 16), 0),
    ((-300, -200, 250, 350, -300, -8), 3),
    ((-300, -200, -300, -200, -200, -8), 2),
]


class TestJoinKernel:
    @pytest.mark.parametrize("box, k_range, count", KERNEL_REGIONS)
    def test_matches_pair_loop_on_kernel_regions(self, monkeypatch, box, k_range, count):
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", exact_sieve)
        hits = assert_kernels_agree(shard_args(box, k_range))
        assert len(hits) == count

    @pytest.mark.parametrize("args, count", KERNEL_EDGE_CASES)
    def test_matches_pair_loop_on_edge_cases(self, args, count):
        hits = assert_kernels_agree(args)
        assert len(hits) == count

    @settings(max_examples=200, deadline=None)
    @given(
        re_lo=st.integers(-300, 300), re_width=st.integers(-3, 48),
        im_lo=st.integers(-300, 300), im_width=st.integers(-3, 48),
        k_lo=st.integers(-300, 300), k_width=st.integers(-20, 200),
    )
    def test_matches_pair_loop_on_small_regions(
            self, re_lo, re_width, im_lo, im_width, k_lo, k_width):
        assert_kernels_agree((re_lo, re_lo + re_width, im_lo, im_lo + im_width,
                              k_lo, k_lo + k_width))

    def test_search_origin_takes_the_join(self, monkeypatch):
        # box = k = 256 sieves its window's norms = 5 mod 32 once, about one
        # for every 4 pairs
        sieved = []

        def recorded(limit, start=0, step=1):
            sieved.append((start, limit, step))
            return rational_prime_sieve(limit, start, step)

        monkeypatch.setattr(qirank.search, "rational_prime_sieve", recorded)
        monkeypatch.setattr(qirank.search, "_sieve_k", refuse_sieve_k)
        hits, _, passes = _scan_shard(shard_args(Box.centered(256), (-256, 256)))
        assert (len(hits), passes) == (178, 65536)
        assert len(sieved) == 1
        start, limit, step = sieved[0]
        assert (start % 32, step) == (5, 32)
        assert 3 * len(range(start, limit + 1, step)) <= passes

    def test_near_origin_under_the_cap_takes_the_join(self, monkeypatch):
        # box 3000 with |k| <= 16 has 18.2e6 norms, over the cap, but only
        # 568 000 of them are = 5 mod 32
        sieved = []

        def recorded(limit, start=0, step=1):
            sieved.append(len(range(start, limit + 1, step)))
            return rational_prime_sieve(limit, start, step)

        monkeypatch.setattr(qirank.search, "rational_prime_sieve", recorded)
        monkeypatch.setattr(qirank.search, "_sieve_k", refuse_sieve_k)
        args = shard_args(Box.centered(3000), (-16, 16))
        hits, _, _ = _scan_shard(args)
        assert len(sieved) == 1 and sieved[0] <= 1 << 24
        assert in_order(hits) == proven(scan_pairs(kernel_input(args)[0]))


FAR = 1 << 20


class TestBoundedMemory:
    def test_far_window_never_sieves(self, monkeypatch):
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        hits = search_region(Box(FAR - 96, FAR + 96, FAR - 96, FAR + 96),
                             (1 << 18, (1 << 18) + 8192))
        assert hits

    def test_off_centre_window_never_sieves(self, monkeypatch):
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        _, candidates, passes = _scan_shard((2936, 3064, 2936, 3064, -64, 64))
        assert (candidates, passes) == (129 * 129 * 16, 1024)

    def test_near_origin_over_the_cap_takes_the_sieve(self, monkeypatch):
        # box = k = 9000 has about 0.02 sieve entries per pair, but its
        # 20.3e6 norms = 5 mod 32 are over the cap; box = k = 8000 (16.0e6)
        # is under it
        chosen = []
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        monkeypatch.setattr(qirank.search, "_sieve_k",
                            lambda classes, lo: chosen.append("sieve") or ())
        monkeypatch.setattr(qirank.search, "_join_rows",
                            lambda classes, window: chosen.append("join") or ())
        for radius in (9000, 8000):
            _scan_shard(shard_args(Box.centered(radius), (-radius, radius)))
        assert chosen == ["sieve", "join"]


# the far workload's window at seed 0, and its k range
FAR_BOX = Box(FAR - 96, FAR + 96, FAR - 96, FAR + 96)
FAR_K = (1 << 18, (1 << 18) + 8192)


def translated(box, u, v):
    return Box(box.re_min + 16 * u, box.re_max + 16 * u,
               box.im_min + 16 * v, box.im_max + 16 * v)


def assert_sieve_agrees(args):
    """The sieve and the pair loop yield the same pairs on one shard.
    Returns the hits."""
    classes, lo = sieve_input(args)
    sieved = Counter(_sieve_k(classes, lo))
    assert sieved == Counter(scan_pairs(classes)), args
    return proven(sieved)


# (shard args, hit count by brute_force_region) on the window of
# KERNEL_REGIONS near 2^20, which holds 1048519+1048626i with k = +-280:
# k ranges that straddle 0 unevenly, that are all negative, that start off
# their class or hold no k but 0, and k classes with one k or none; one
# point, one column, one row and an empty box
NEAR = (1048512, 1048543, 1048608, 1048639)
SIEVE_EDGE_CASES = [
    ((*NEAR, -300, 290), 2),
    ((*NEAR, -40, 600), 1),
    ((*NEAR, -600, -8), 1),
    ((*NEAR, -283, -1), 1),
    ((*NEAR, 3, 300), 1),
    ((*NEAR, 5, 287), 1),
    ((*NEAR, 280, 280), 1),
    ((*NEAR, -280, -273), 1),
    ((*NEAR, 272, 279), 0),
    ((*NEAR, 281, 287), 0),
    ((*NEAR, -7, 7), 0),
    ((1048519, 1048519, 1048626, 1048626, -4000, 4000), 2),
    ((1048519, 1048519, 1048500, 1048700, -300, 300), 2),
    ((1048400, 1048600, 1048626, 1048626, -300, 300), 2),
    ((1048543, 1048512, *NEAR[2:], -300, 300), 0),
    # 37 beta of each class each way: three tiles each way, the last short
    ((1048231, 1048807, 1048338, 1048914, 8, 296), 2),
]


class TestSieveKernel:
    @pytest.mark.parametrize("u, v, count", [(0, 0, 10), (2, -1, 12), (-2, 2, 8)])
    def test_matches_pair_loop_on_far_windows(self, u, v, count):
        args = shard_args(translated(FAR_BOX, u, v), FAR_K)
        hits = assert_sieve_agrees(args)
        assert (len(hits), pair_count(kernel_input(args)[0])) == (count, 147600)

    @pytest.mark.parametrize("args, count", SIEVE_EDGE_CASES)
    def test_matches_pair_loop_on_edge_cases(self, args, count):
        hits = assert_sieve_agrees(args)
        assert len(hits) == count

    @settings(max_examples=150, deadline=None)
    @given(
        re_lo=st.integers(40000, 1 << 24), re_sign=st.sampled_from((-1, 1)),
        re_width=st.integers(-3, 40), im_lo=st.integers(-(1 << 24), 1 << 24),
        im_width=st.integers(-3, 40),
        k_lo=st.integers(-3000, 3000), k_width=st.integers(-20, 4000),
    )
    def test_matches_pair_loop_at_large_norms(
            self, re_lo, re_sign, re_width, im_lo, im_width, k_lo, k_width):
        re_lo = re_sign * re_lo - (re_width if re_sign < 0 else 0)
        args = (re_lo, re_lo + re_width, im_lo, im_lo + im_width, k_lo, k_lo + k_width)
        window = _join_window(_shard_ranges(args))
        assert window is None or window[2] >= 1 << 30
        assert_sieve_agrees(args)

    @pytest.mark.parametrize("args", [
        shard_args(*KERNEL_REGIONS[2][:2]),
        # holds 1048623+1048570i, k = 2^18 + 16, of the far window
        shard_args(Box(FAR + 32, FAR + 63, FAR - 16, FAR + 15), (1 << 18, (1 << 18) + 1024)),
    ])
    def test_sieve_is_only_an_optimisation(self, monkeypatch, args):
        # with no prime to strike and a stage that passes everything,
        # the sieve yields every residue-passing pair
        classes, lo = sieve_input(args)
        expected = proven(scan_pairs(classes))
        monkeypatch.setattr(qirank.search, "_SIEVE_TABLE", ())
        monkeypatch.setattr(qirank.search, "is_base2_probable_prime", lambda n: True)
        survivors = list(_sieve_k(classes, lo))
        assert proven(survivors) == expected
        assert expected
        assert len(set(survivors)) == len(survivors) == pair_count(classes)

    @pytest.mark.parametrize("ell", [entry[0] for entry in _SIEVE_TABLE])
    def test_struck_iff_the_prime_divides_a_norm(self, ell):
        # each offset, so both line directions s1 s2 = +-1 and both signs of
        # s1; over ell positions of a line, every position mod ell occurs
        masks = _period_masks([e for e in _SIEVE_TABLE if e[0] == ell], 2 * ell)
        rng = random.Random(ell)
        for j, off in enumerate(OFFSETS):
            for _ in range(50):
                x0, y0 = rng.randint(-(1 << 40), 1 << 40), rng.randint(-(1 << 40), 1 << 40)
                lines = _struck_lines(masks, j, x0, y0, 3)
                for u, line in enumerate(lines):
                    for p in range(2 * ell):
                        x, y = x0 + 16 * off.re * p, y0 + 16 * u + 16 * off.im * p
                        divides = (x * x + y * y) % ell == 0
                        assert (line >> p) & 1 == (not divides), (j, x0, y0, u, p, ell)

    def test_table_primes_are_split_and_tried_by_the_stage(self):
        # a struck norm above its prime then has a factor that the stage's
        # trial division finds; 101, the least prime = 5 mod 32 above 37, is
        # a norm of the target sublattice and is not in the table
        primes = [entry[0] for entry in _SIEVE_TABLE]
        assert primes == sorted(p for p in qirank.primes._SMALL_PRIMES if p % 4 == 1)
        assert primes == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]

    def test_only_minus_one_minus_six_i_has_a_table_prime_norm(self):
        # a value with norm up to 97 has both parts in -9..9; every value of
        # the target sublattice has norm 5 mod 32
        primes = [entry[0] for entry in _SIEVE_TABLE]
        values = [GaussInt(x, y) for x in range(-47, 48) for y in range(-47, 48)
                  if congruent_mod16(GaussInt(x, y))]
        assert {v.norm() % 32 for v in values} == {5}
        assert [v for v in values if v.norm() in primes] == [TARGET_CLASS]
        assert TARGET_CLASS.norm() == 37

    def test_keeps_the_hit_with_a_value_of_norm_37(self, monkeypatch):
        # near the origin and short in beta, so the join is over its entries
        # per pair; the value -1-6i of (15+10i, 16) has the table prime 37 as
        # its norm, so 37 strikes nothing here
        least_norms = []
        sieve_k = qirank.search._sieve_k
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        monkeypatch.setattr(qirank.search, "_sieve_k",
                            lambda classes, lo: least_norms.append(lo) or sieve_k(classes, lo))
        args = (15, 15, 10, 10, 16, 1136)
        hits, candidates, passes = _scan_shard(args)
        assert len(least_norms) == 1 and least_norms[0] <= 37
        assert (hits[0].beta, hits[0].k) == (FROZEN_BETA, FROZEN_K)
        assert in_order(hits) == brute_force_region(Box(*args[:4]), args[4:])
        assert (candidates, passes) == brute_force_counts(args)

    def test_wide_k_range_far_out_is_streamed(self, monkeypatch):
        # one residue-passing beta near 2^20 and 2e6 k: its k class of
        # 125 000 k is sieved in four blocks of at most _SIEVE_BLOCK = 2^15,
        # and each holds hits
        args = (1048519, 1048519, 1048626, 1048626, -10**6, 10**6)
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        tracemalloc.start()
        try:
            result = _scan_shard(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert in_order(result[0]) == proven(scan_pairs(kernel_input(args)[0]))
        assert [hit.k for hit in in_order(result[0])] == [
            s * k for k in (280, 121960, 274840, 545160, 587240, 686600, 833000) for s in (1, -1)]
        assert result[1:] == (250000, 125000)

    def test_wide_beta_box_far_out_is_tiled(self, monkeypatch):
        # 512 beta per class along re: the lines of one tile of 16 hold a few
        # kB, where lines over the whole width would hold about 220 kB
        args = (FAR, FAR + 8191, FAR, FAR + 15, 1 << 18, (1 << 18) + 63)
        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse_sieve)
        tracemalloc.start()
        try:
            result = _scan_shard(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000
        assert in_order(result[0]) == proven(scan_pairs(kernel_input(args)[0]))
        assert result[1:] == (8192 * 16 * 8, 4096)


class TestKernelChoice:
    @pytest.mark.parametrize("args, kernel", [
        (shard_args(FAR_BOX, FAR_K), "sieve"),
        *[(shard_args(sub, FAR_K), "sieve") for sub in FAR_BOX.split_re(2)],
        (shard_args(Box.centered(256), (-256, 256)), "join"),
        (shard_args(FAR_BOX, (1 << 18, (1 << 18) + 256)), "sieve"),
        # long in k but near the origin: the window holds -1-6i, of norm 37
        (shard_args(Box(15, 15, 10, 10), (-4096, 4096)), "sieve"),
    ])
    def test_kernel_from_shape(self, monkeypatch, args, kernel):
        chosen = []
        for name, label in (("_join_rows", "join"), ("_sieve_k", "sieve")):
            monkeypatch.setattr(qirank.search, name,
                                lambda *_, label=label: chosen.append(label) or ())
        _scan_shard(args)
        assert chosen == [kernel]


class TestShardDriver:
    @pytest.mark.parametrize("args, kernel", [
        (shard_args(Box.centered(32), (-32, 32)), "_join_rows"),
        ((1048519, 1048519, 1048626, 1048626, -1100, 1100), "_sieve_k"),
        ((2936, 2968, 2936, 2968, -64, 64), "_sieve_k"),
    ])
    def test_proves_what_the_kernel_yields(self, monkeypatch, args, kernel):
        # the counts come from the shard, not from the kernel, and only the
        # pairs that the kernel yields reach constellation_at
        def stub(*_):
            yield 15, 10, 16
            yield -1, -6, 16

        def counted(beta, k):
            checked.append((beta, k))
            return constellation_at(beta, k)

        checked = []
        monkeypatch.setattr(qirank.search, kernel, stub)
        monkeypatch.setattr(qirank.search, "constellation_at", counted)
        hits, candidates, passes = _scan_shard(args)
        assert checked == [(GaussInt(15, 10), 16), (GaussInt(-1, -6), 16)]
        assert [(hit.beta, hit.k, hit.primes) for hit in hits] == [
            (FROZEN_BETA, FROZEN_K, FROZEN_PRIMES)]
        assert (candidates, passes) == brute_force_counts(args)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the real forks made while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_all_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def raise_on_shard(re_min):
    """A _scan_shard stand-in that raises on the shard starting at re_min and
    scans the others."""

    def scan(args):
        if args[0] == re_min:
            raise ValueError(f"shard {args[:2]} failed")
        return _scan_shard(args)

    return scan


class TestWorkerPool:
    def assert_forks(self, monkeypatch, forks, cpus, box, forked):
        expected = search_region(box, (-40, 40), shards=1)
        monkeypatch.setattr(qirank.search.os, "cpu_count", lambda: cpus)
        sharded = search_region(box, (-40, 40), shards=8)
        assert len(forks) == forked
        assert sharded == expected
        assert_all_reaped(forks)

    def test_pool_capped_at_cpu_count(self, monkeypatch, forks):
        self.assert_forks(monkeypatch, forks, 2, Box.centered(40), 1)

    @pytest.mark.parametrize("cpus, box, has_fork", [
        (1, Box.centered(40), True),
        (2, Box(5, 4, 0, 0), True),  # an empty region: no shard
        (2, Box.centered(40), False),
    ], ids=["one-cpu", "empty-region", "no-fork"])
    def test_forks_nothing(self, monkeypatch, forks, cpus, box, has_fork):
        if not has_fork:
            monkeypatch.delattr(os, "fork")
        self.assert_forks(monkeypatch, forks, cpus, box, 0)

    def test_hits_and_records_cross_the_pipe_intact(self, monkeypatch, forks):
        box, k_range = Box.centered(64), (-64, 64)
        monkeypatch.setattr(qirank.search.os, "cpu_count", lambda: 4)
        piped_records, local_records = [], []
        piped = search_region(box, k_range, shards=4, progress=piped_records.append)
        assert len(forks) == 3
        monkeypatch.delattr(os, "fork")
        local = search_region(box, k_range, shards=4, progress=local_records.append)
        assert [(h.beta, h.k, h.primes) for h in piped] == [
            (h.beta, h.k, h.primes) for h in local]
        assert sum(r["hits"] for r in piped_records[1:]) > 0  # hits sent by workers
        assert piped_records == local_records
        assert_all_reaped(forks)

    def test_failing_worker_raises_and_is_reaped(self, monkeypatch, forks):
        monkeypatch.setattr(qirank.search.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(qirank.search, "_scan_shard", raise_on_shard(0))  # shard 1 of 2
        with pytest.raises(RuntimeError, match=r"(?s)shard worker 1 .*ValueError: shard"):
            search_region(Box.centered(40), (-40, 40), shards=2)
        assert len(forks) == 1
        assert_all_reaped(forks)

    def test_failing_caller_shard_propagates_and_reaps(self, monkeypatch, forks):
        monkeypatch.setattr(qirank.search.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(qirank.search, "_scan_shard", raise_on_shard(-40))  # shard 0 of 2
        with pytest.raises(ValueError, match=r"shard \(-40, -1\) failed"):
            search_region(Box.centered(40), (-40, 40), shards=2)
        assert len(forks) == 1
        assert_all_reaped(forks)

    def test_undecodable_worker_data_raises(self, monkeypatch, forks):
        garbled = types.SimpleNamespace(dumps=lambda obj: b"\xff", loads=marshal.loads)
        monkeypatch.setattr(qirank.search.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(qirank.search, "marshal", garbled)
        with pytest.raises(RuntimeError, match="shard worker 1 .* does not decode"):
            search_region(Box.centered(40), (-40, 40), shards=2)
        assert_all_reaped(forks)


def _env_with_src():
    """The environment for a child interpreter that imports this qirank."""
    src = str(Path(qirank.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestOptimizedInterpreter:
    def test_frozen_hit_under_python_O(self):
        env = _env_with_src()
        # the CLI's imports load no executor machinery, and the text left
        # in the stdout buffer across the forks of a sharded search is
        # written once: a forked worker never flushes what it inherited
        script = (
            "import os, sys\n"
            "import qirank.cli\n"
            "from qirank.search import Box, search_region\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
            "print(sys.flags.optimize, end=' ')\n"
            "os.cpu_count = lambda: 2\n"
            "hit = search_region(Box.centered(32), (-32, 32), shards=2)[0]\n"
            "print(hit.beta, hit.k)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.splitlines() == ["[]", "1 15+10i 16"]

    def test_hits_and_certificate_bytes_unchanged_under_python_O(self):
        env = _env_with_src()
        script = (
            "from qirank.search import Box, search_region\n"
            "assert False, 'not running under -O'\n"
            "for h in search_region(Box.centered(48), (-48, 48)):\n"
            "    print(h.beta, h.k, *h.primes)\n"
        )
        hits = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        cert = subprocess.run(
            [sys.executable, "-O", "-m", "qirank.cli", "certify", "15+10i", "16"],
            capture_output=True, check=True, env=env,
        ).stdout
        expected = search_region(Box.centered(48), (-48, 48))
        assert hits.splitlines() == [
            " ".join(map(str, (h.beta, h.k, *h.primes))) for h in expected]
        assert cert == certify(FROZEN_BETA, FROZEN_K).to_json_bytes() + b"\n"

    def test_package_has_no_assert_statement(self):
        # python -O strips assert, so a check written as one would vanish
        package = Path(qirank.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestFindFirstHit:
    def test_returns_frozen_hit(self):
        hit = find_first_hit(initial_radius=32)
        assert (hit.beta, hit.k) == (FROZEN_BETA, FROZEN_K)

    def test_every_expansion_ends_at_frozen_hit(self):
        # every round with radius >= 16 holds the frozen hit, so the
        # schedule from any start stops at its first radius >= 16
        for start in range(1, 17):
            events = []
            hit = find_first_hit(start, progress=events.append)
            assert (hit.beta, hit.k) == (FROZEN_BETA, FROZEN_K), start
            radii = [e["radius"] for e in events if e["event"] == "round_done"]
            expected = [start]
            while expected[-1] < 16:
                expected.append(2 * expected[-1])
            assert radii == expected, start

    @pytest.mark.parametrize("radius", [0, -4])
    def test_rejects_radius_below_one(self, monkeypatch, radius):
        # a radius below 1 never grows to a round with a hit; the stub stops
        # such a loop after a few rounds instead of letting it run forever
        calls = []

        def few_rounds(*args, **kwargs):
            calls.append(args)
            if len(calls) > 3:
                raise AssertionError("find_first_hit keeps searching")
            return []

        monkeypatch.setattr("qirank.search.search_region", few_rounds)
        with pytest.raises(ValueError, match=f"initial_radius must be >= 1, got {radius}"):
            find_first_hit(initial_radius=radius)
        assert calls == []


# Boxes about the origin, whose core square 1 <= |a|, |b| <= R the census
# reads one octant at a time: R = 0..40 centred; the 25 translations by
# 16 (u, v) of a radius-96 box, which leave one to four sides beyond R; a
# core capped by each side in turn, with the rest of the box read as rows
# beyond R and as columns over the core; and cores of R = 0, 1 and 2.
SYMMETRIC_CORE_BOXES = (
    [Box.centered(n) for n in range(41)]
    + [Box(-96 + 16 * u, 96 + 16 * u, -96 + 16 * v, 96 + 16 * v)
       for u in range(-2, 3) for v in range(-2, 3)]
    + [Box(-24, 50, -40, 45), Box(-50, 24, -40, 45), Box(-45, 50, -24, 40),
       Box(-45, 50, -40, 24), Box(-17, 17, -50, 50), Box(-50, 50, -17, 17)]
    + [Box(0, 40, -40, 40), Box(-40, 40, -40, 0), Box(-1, 40, -40, 40),
       Box(-40, 40, -1, 1), Box(-40, 2, -40, 40), Box(-2, 2, -35, 3)]
)


class TestDensityStats:
    def test_tiny_box(self):
        stats = prime_density_stats(Box(0, 0, 0, 0))
        assert stats.total_primes == 0
        assert stats.target_ratio == Fraction(0)

    def test_small_box_census(self):
        from qirank.primes import is_gaussian_prime

        stats = prime_density_stats(Box.centered(30))
        brute_total = sum(
            1
            for a in range(-30, 31)
            for b in range(-30, 31)
            if is_gaussian_prime(GaussInt(a, b))
        )
        assert stats.total_primes == brute_total
        brute_target = sum(
            1
            for a in range(-30, 31)
            for b in range(-30, 31)
            if is_gaussian_prime(GaussInt(a, b))
            and congruent_mod16(GaussInt(a, b))
        )
        assert stats.target_count == brute_target

    def test_associate_union_is_four_classes(self):
        stats = prime_density_stats(Box.centered(200))
        # the four associate classes partition the associates of each prime
        assert stats.associate_union_count() >= stats.target_count
        per_class = [
            stats.class_counts.get(((TARGET_CLASS * GaussInt(0, 1) ** j).re % 16,
                                    (TARGET_CLASS * GaussInt(0, 1) ** j).im % 16), 0)
            for j in range(4)
        ]
        assert sum(per_class) == stats.associate_union_count()
        # associate symmetry: the four counts agree exactly (multiplication
        # by i permutes the prime set and the classes)
        assert len(set(per_class)) == 1

    def test_empty_box_sieves_nothing(self, monkeypatch):
        def refuse(limit, start=0, step=1):
            raise AssertionError(f"sieved {start}..{limit} for an empty box")

        monkeypatch.setattr(qirank.search, "rational_prime_sieve", refuse)
        for box in (Box(3000, 0, 0, 0), Box(10**5, 0, 0, 0), Box(0, 0, 10**5, 0),
                    Box(1, 0, 1, 0), Box(-5, 5, 2, -2)):
            stats = prime_density_stats(box)
            assert (stats.total_primes, stats.class_counts) == (0, {})
            assert stats.target_class == (15, 10)

    def test_matches_point_by_point_oracle(self, monkeypatch):
        rng = random.Random(20240615)
        boxes = CENSUS_BOXES + [
            Box(*_census_axis(rng), *_census_axis(rng)) for _ in range(640)
        ]
        # one sieve for every box (sieving each box afresh would take minutes):
        # each call gets an exact-length copy of its range
        full = qirank.search.rational_prime_sieve(2 * 3062**2)

        def prefix(limit, start=0, step=1):
            return full[start : limit + 1 : step]

        monkeypatch.setattr(qirank.search, "rational_prime_sieve", prefix)
        monkeypatch.setattr(oracles, "rational_prime_sieve", prefix)
        with_norm_two = 0
        for box in boxes:
            stats = prime_density_stats(box)
            expected = density_by_point(box)
            assert stats.total_primes == expected.total_primes, box
            assert stats.class_counts == expected.class_counts, box
            assert 0 not in stats.class_counts.values(), box
            with_norm_two += stats.total_primes > sum(stats.class_counts.values())
        assert 0 < with_norm_two < len(boxes)

    def test_off_centre_box_sieves_only_its_norms(self, monkeypatch):
        box = Box(3000, 3059, 3000, 3059)
        entries = []
        sieve = qirank.search.rational_prime_sieve

        def counted(limit, start=0, step=1):
            flags = sieve(limit, start, step)
            entries.append(len(flags))
            return flags

        monkeypatch.setattr(qirank.search, "rational_prime_sieve", counted)
        stats = prime_density_stats(box)
        # the odd norms 2 * 3000^2 + 1 .. 2 * 3059^2, and the axis flags up
        # to 3059
        assert sum(entries) <= 357_481 + 3_060
        expected = density_by_point(box)
        assert (stats.total_primes, stats.class_counts) == (
            expected.total_primes, expected.class_counts)

    @pytest.mark.parametrize("box", SYMMETRIC_CORE_BOXES, ids=str)
    def test_symmetric_core_matches_the_oracle(self, box):
        assert prime_density_stats(box) == density_by_point(box)

    def test_core_is_read_once_per_octant(self, monkeypatch):
        class CountingFlags(bytearray):
            """Sieve flags that count the int subscripts read from them."""

            reads = 0

            def __getitem__(self, index):
                if isinstance(index, int):
                    CountingFlags.reads += 1
                return super().__getitem__(index)

        sieve = qirank.search.rational_prime_sieve
        monkeypatch.setattr(qirank.search, "rational_prime_sieve",
                            lambda limit, start=0, step=1:
                            CountingFlags(sieve(limit, start, step)))
        box = Box.centered(200)
        stats = prime_density_stats(box)
        # a row per x = 1..200 over every y of the other parity takes 20 100
        # norm reads and 200 axis reads, 20 300 in all; the octant x < y
        # takes 10 000 norm reads and counts the axis flags by slices
        assert CountingFlags.reads <= 0.55 * 20_300
        assert stats == density_by_point(box)


def _census_axis(rng):
    """An inclusive range of width -2..60 that is negative, positive or holds 0."""
    width = rng.randint(-2, 60)
    offset = rng.choice((rng.randint(1, 3), rng.randint(1, 64), rng.randint(1, 3000)))
    side = rng.choice(("neg", "pos", "zero"))
    if side == "neg":
        hi = -offset
    elif side == "pos":
        hi = offset + width - 1
    else:
        hi = rng.randint(0, max(width - 1, 0))
    return hi - width + 1, hi


CENSUS_BOXES = [
    Box(0, 0, 0, 0),
    Box(-1, 1, -1, 1),
    Box(1, 1, 1, 1),
    Box(-1, -1, -3, 1),
    Box(1, 7, -1, 0),
    Box(2, 9, -1, 1),
    Box(-3, 3, 2, 40),
    Box(-1016, 984, -968, 1032),
]
