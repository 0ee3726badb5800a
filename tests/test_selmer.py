import random

import pytest

from qirank import selmer
from qirank.gaussian import GaussInt, primary_associate
from qirank.primes import is_gaussian_prime
from qirank.residues import mn_invariants
from qirank.search import Box, search_region
from qirank.selmer import (
    F2Matrix,
    build_L,
    candidate_classes,
    f2_kernel,
    rank_upper_bound,
    selmer_candidate_set,
)

from oracles import build_L_by_all_symbols, class_mask, f2_apply, is_f2_subgroup


def gi(re, im=0):
    return GaussInt(re, im)


# the two 4x4 symbol matrices arising from a valid four-prime constellation
MATRIX_A = F2Matrix.from_rows(["1001", "0011", "0110", "1100"])
MATRIX_B = F2Matrix.from_rows(["0110", "1100", "1001", "0011"])


def brute_solutions(matrix, v=0):
    """Every x with M x = v, as sorted masks."""
    return [x for x in range(1 << matrix.ncols) if f2_apply(matrix, x) == v]


def span(basis):
    masks = {0}
    for b in basis:
        masks |= {m ^ b for m in masks}
    return masks


def random_matrix(rng):
    """An nrows x ncols matrix, each of 1..8, square or not."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    return F2Matrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)


def is_group(report):
    """The candidate classes form a subgroup of F2^(N+1) of order 2^dim."""
    masks = {class_mask(c, len(report.primes)) for c in report.candidates}
    return is_f2_subgroup(masks) and len(masks) == 1 << report.dim


def random_primary_prime(rng, side=100):
    while True:
        a = GaussInt(rng.randint(-side, side), rng.randint(-side, side))
        if a and a.is_odd() and is_gaussian_prime(a):
            return primary_associate(a)[0]


class TestRowStrings:
    def test_one_by_one(self):
        for row in ("0", "1"):
            m = F2Matrix.from_rows([row])
            assert (m.rows, m.ncols) == ((int(row),), 1)
            assert m.row_strings() == [row]

    def test_every_row_of_width_four(self):
        rows = [format(x, "04b") for x in range(16)]
        m = F2Matrix.from_rows(rows)
        assert m.row_strings() == rows
        assert m.ncols == 4
        # character j is column j, bit j of the row mask
        assert m.rows == tuple(int(r[::-1], 2) for r in rows)
        for row in rows:
            assert F2Matrix.from_rows([row]).row_strings() == [row]

    def test_rejects_ragged_and_foreign_characters(self):
        for rows in (["10", "1"], ["12"], ["1 0"]):
            with pytest.raises(ValueError):
                F2Matrix.from_rows(rows)


class TestF2Kernel:
    def test_constellation_matrix_kernel(self):
        assert f2_kernel(MATRIX_A) == [0b1111]
        assert brute_solutions(MATRIX_A) == [0b0000, 0b1111]

    def test_zero_matrix(self):
        m = F2Matrix.from_rows(["000"] * 3)
        assert len(f2_kernel(m)) == 3

    def test_identity(self):
        m = F2Matrix.from_rows(["10", "01"])
        assert f2_kernel(m) == []

    def test_against_brute_force_random(self):
        rng = random.Random(40)
        for _ in range(200):
            m = random_matrix(rng)
            basis = f2_kernel(m)
            assert sorted(span(basis)) == brute_solutions(m)
            assert len(span(basis)) == 1 << len(basis)  # independent


def brute_candidates(matrix, nbar):
    """(unit i?, mask) of every candidate: Mx = 0 with unit 1, then Mx = n_bar with unit i."""
    return ([(False, x) for x in brute_solutions(matrix)]
            + [(True, x) for x in brute_solutions(matrix, nbar)])


def found(candidates):
    return [(unit == "i", sum(1 << (j - 1) for j in indices)) for unit, indices in candidates]


class TestCandidateClasses:
    def test_constellation_system(self):
        for m in (MATRIX_A, MATRIX_B):
            candidates, dim = candidate_classes(m, 0b1111)
            assert found(candidates) == [
                (False, 0b0000), (False, 0b1111), (True, 0b0101), (True, 0b1010)]
            assert dim == 2

    def test_identity(self):
        m = F2Matrix.from_rows(["10", "01"])
        assert candidate_classes(m, 0b01) == (
            (("1", ()), ("i", (1,))), 1)

    def test_inconsistent(self):
        # L x = n_bar has no solution: only the unit-1 classes are candidates
        m = F2Matrix.from_rows(["11", "11"])
        assert candidate_classes(m, 0b01) == (
            (("1", ()), ("1", (1, 2))), 1)

    def test_against_brute_force_random(self):
        rng = random.Random(41)
        for _ in range(200):
            m = random_matrix(rng)
            nbar = rng.getrandbits(len(m.rows))
            candidates, dim = candidate_classes(m, nbar)
            assert found(candidates) == brute_candidates(m, nbar)
            assert len(candidates) == 1 << dim

    def test_too_large_kernel_refused_before_enumerating(self, monkeypatch):
        def no_span(basis):
            raise AssertionError("enumerated a kernel above the cap")

        monkeypatch.setattr(selmer, "_span", no_span)
        # 22 zero columns and the unit: a kernel of dimension 23 > 21
        with pytest.raises(ValueError, match="kernel too large"):
            candidate_classes(F2Matrix((0,), 22), 0)


class TestBuildL:
    def test_single_prime(self):
        m = build_L([gi(-1, -6)])
        assert m.row_strings() == ["0"]

    def test_pair_symmetric(self):
        rng = random.Random(42)
        for _ in range(20):
            p = random_primary_prime(rng)
            q = random_primary_prime(rng)
            if p == q:
                continue
            rows = build_L([p, q]).row_strings()
            assert rows[0][1] == rows[1][0]

    def test_rows_sum_zero(self):
        rng = random.Random(43)
        primes = []
        while len(primes) < 5:
            p = random_primary_prime(rng)
            if p not in primes:
                primes.append(p)
        m = build_L(primes)
        assert f2_apply(m, 0b11111) == 0
        rows = m.row_strings()
        for i in range(5):
            for j in range(5):
                assert rows[i][j] == rows[j][i]

    def test_matches_all_ordered_symbols(self):
        # inert primary primes -q, q = 3 mod 4, next to split ones of both sizes
        inert = [gi(-q) for q in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67)]
        rng = random.Random(44)
        mixed_pairs = inert_pairs = 0
        for _ in range(300):
            primes = []
            for _ in range(rng.randint(1, 8)):
                p = (rng.choice(inert) if rng.random() < 0.3
                     else random_primary_prime(rng, side=rng.choice((100, 10**4))))
                if p not in primes:
                    primes.append(p)
            assert build_L(primes) == build_L_by_all_symbols(primes), primes
            n_inert = sum(p in inert for p in primes)
            mixed_pairs += n_inert * (len(primes) - n_inert)
            inert_pairs += n_inert * (n_inert - 1) // 2
        assert mixed_pairs > 0 and inert_pairs > 0


class TestRankUpperBound:
    def test_values(self):
        assert rank_upper_bound(2) == 2
        assert rank_upper_bound(1) == 0
        assert rank_upper_bound(3) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rank_upper_bound(0)


class TestSelmerCandidateSet:
    def test_single_prime_nbar_one(self):
        # -1-6i has n = 1: the i-branch is unsolvable
        report = selmer_candidate_set([gi(-1, -6)])
        assert mn_invariants(gi(-1, -6)).n_bar == 1
        assert report.candidates == (("1", ()), ("1", (1,)))
        assert report.dim == 1
        assert report.rank_upper == 0
        assert is_group(report)

    def test_single_prime_nbar_zero(self):
        # 1-4i has n = 0: both branches solvable by both vectors
        report = selmer_candidate_set([gi(1, -4)])
        assert mn_invariants(gi(1, -4)).n_bar == 0
        assert report.candidates == (("1", ()), ("1", (1,)), ("i", ()), ("i", (1,)))
        assert report.dim == 2
        assert report.rank_upper == 2
        assert is_group(report)

    def test_one_kernel_per_report(self, monkeypatch):
        # the candidates are the kernel of [L | n_bar], computed once
        candidate_classes.cache_clear()
        calls = []
        real_kernel = selmer.f2_kernel

        def counted(matrix):
            calls.append(matrix)
            return real_kernel(matrix)

        monkeypatch.setattr(selmer, "f2_kernel", counted)
        prime_lists = [
            [gi(-1, -6)],                                  # i-branch unsolvable
            [gi(1, -4)],                                   # i-branch solvable
            [gi(-1, 26), gi(-1, -6), gi(31, -6), gi(31, 26)],
        ]
        for count, primes in enumerate(prime_lists, 1):
            report = selmer_candidate_set(primes)
            n = len(primes)
            assert len(calls) == count
            assert calls[-1] == F2Matrix(
                tuple(row | bit << n for row, bit in zip(report.matrix.rows, report.nbar)),
                n + 1,
            )

    def test_repeated_report_computes_no_kernel(self, monkeypatch):
        # the F2 half is memoized on (matrix, nbar): a second report on the
        # same primes reads it back, and so does a constellation with the
        # same symbol matrix
        candidate_classes.cache_clear()
        primes = (gi(-1, 26), gi(-1, -6), gi(31, -6), gi(31, 26))
        first = selmer_candidate_set(primes)
        other = next(hit.primes for hit in search_region(Box.centered(64), (-64, 64))
                     if hit.primes != primes and build_L(hit.primes) == first.matrix)

        def no_kernel(matrix):
            raise AssertionError("computed a kernel for a memoized input")

        monkeypatch.setattr(selmer, "f2_kernel", no_kernel)
        again = selmer_candidate_set(primes)
        assert again == first
        assert again.candidates is first.candidates
        assert selmer_candidate_set(other).candidates is first.candidates
        assert candidate_classes.cache_info()[:2] == (2, 1)  # hits, misses

    def test_memo_equals_the_unwrapped_function(self):
        # a pool of 20 inputs queried 300 times: hits, misses and evictions
        # past the memo's bound all return what the function computes
        candidate_classes.cache_clear()
        rng = random.Random(45)
        pool = []
        for _ in range(20):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            matrix = F2Matrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
            pool.append((matrix, rng.getrandbits(nrows)))
        for _ in range(300):
            matrix, nbar = rng.choice(pool)
            assert candidate_classes(matrix, nbar) == candidate_classes.__wrapped__(matrix, nbar)
        info = candidate_classes.cache_info()
        assert info.hits > 0 and info.misses > info.maxsize
        assert info.currsize == info.maxsize

    def test_every_candidate_satisfies_a_branch(self):
        rng = random.Random(44)
        primes = []
        while len(primes) < 4:
            p = random_primary_prime(rng)
            if p not in primes:
                primes.append(p)
        report = selmer_candidate_set(primes)
        matrix = report.matrix
        nbar = sum(bit << j for j, bit in enumerate(report.nbar))
        for unit, indices in report.candidates:
            vec = sum(1 << (j - 1) for j in indices)
            assert f2_apply(matrix, vec) == (nbar if unit == "i" else 0)

    def test_full_product_always_candidate(self):
        rng = random.Random(45)
        for _ in range(5):
            primes = []
            while len(primes) < 3:
                p = random_primary_prime(rng)
                if p not in primes:
                    primes.append(p)
            report = selmer_candidate_set(primes)
            assert ("1", (1, 2, 3)) in report.candidates

    def test_dim_matches_brute_force_span(self):
        rng = random.Random(46)
        for _ in range(10):
            n_primes = rng.randint(1, 6)
            primes = []
            while len(primes) < n_primes:
                p = random_primary_prime(rng)
                if p not in primes:
                    primes.append(p)
            report = selmer_candidate_set(primes)
            masks = [class_mask(c, n_primes) for c in report.candidates]
            span = {0}
            for m in masks:
                span |= {m ^ s for s in span}
            assert len(span) == 1 << report.dim


class TestSymbolPatternMatrices:
    def test_constellation_matrices_consistency(self):
        # both displayed matrices have kernel {0, 1111} and the same i-branch
        for m in (MATRIX_A, MATRIX_B):
            assert brute_solutions(m) == [0b0000, 0b1111]
            assert brute_solutions(m, 0b1111) == [0b0101, 0b1010]
