import random
from itertools import product

import pytest

from qirank.gaussian import GaussInt, primary_associate
from qirank.primes import is_gaussian_prime
from qirank.residues import mn_invariants
from qirank.selmer import (
    DivisorClass,
    F2Matrix,
    build_L,
    f2_kernel,
    f2_solve,
    rank_upper_bound,
    selmer_candidate_set,
)

from oracles import build_L_by_all_symbols, f2_apply, is_f2_subgroup


def gi(re, im=0):
    return GaussInt(re, im)


# the two 4x4 symbol matrices arising from a valid four-prime constellation
MATRIX_A = F2Matrix.from_lists(
    [[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]]
)
MATRIX_B = F2Matrix.from_lists(
    [[0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 1]]
)


def brute_kernel(matrix):
    n = matrix.ncols
    return sorted(
        v for v in product((0, 1), repeat=n) if f2_apply(matrix, v) == (0,) * matrix.nrows
    )


def is_group(report):
    """The candidate classes form a subgroup of F2^(N+1) of order 2^dim."""
    masks = {c.span_vector(len(report.primes)) for c in report.candidates}
    return is_f2_subgroup(masks) and len(masks) == 1 << report.dim


def random_primary_prime(rng, side=100):
    while True:
        a = GaussInt(rng.randint(-side, side), rng.randint(-side, side))
        if a and a.is_odd() and is_gaussian_prime(a):
            return primary_associate(a)[0]


class TestF2Kernel:
    def test_constellation_matrix_kernel(self):
        basis = f2_kernel(MATRIX_A)
        assert basis == [(1, 1, 1, 1)]
        assert brute_kernel(MATRIX_A) == [(0, 0, 0, 0), (1, 1, 1, 1)]

    def test_zero_matrix(self):
        m = F2Matrix.from_lists([[0, 0, 0]] * 3)
        assert len(f2_kernel(m)) == 3

    def test_identity(self):
        m = F2Matrix.from_lists([[1, 0], [0, 1]])
        assert f2_kernel(m) == []

    def test_against_brute_force_random(self):
        rng = random.Random(40)
        for _ in range(50):
            n = rng.randint(1, 6)
            m = F2Matrix.from_lists(
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            )
            basis = f2_kernel(m)
            spanned = {(0,) * n}
            for b in basis:
                spanned |= {
                    tuple(x ^ y for x, y in zip(b, v)) for v in spanned
                }
            assert sorted(spanned) == brute_kernel(m)


class TestF2Solve:
    def test_constellation_system(self):
        sols = f2_solve(MATRIX_A, (1, 1, 1, 1))
        assert sols is not None
        assert sols.all() == [(0, 1, 0, 1), (1, 0, 1, 0)]
        sols_b = f2_solve(MATRIX_B, (1, 1, 1, 1))
        assert sols_b.all() == [(0, 1, 0, 1), (1, 0, 1, 0)]

    def test_identity(self):
        m = F2Matrix.from_lists([[1, 0], [0, 1]])
        assert f2_solve(m, (1, 0)).all() == [(1, 0)]

    def test_inconsistent(self):
        m = F2Matrix.from_lists([[1, 1], [1, 1]])
        assert f2_solve(m, (1, 0)) is None

    def test_against_brute_force_random(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = F2Matrix.from_lists(
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            )
            v = tuple(rng.randint(0, 1) for _ in range(n))
            brute = sorted(
                x for x in product((0, 1), repeat=n) if f2_apply(m, x) == v
            )
            sols = f2_solve(m, v)
            assert (sols.all() if sols else []) == brute


class TestBuildL:
    def test_single_prime(self):
        m = build_L([gi(-1, -6)])
        assert m.to_lists() == [[0]]

    def test_pair_symmetric(self):
        rng = random.Random(42)
        for _ in range(20):
            p = random_primary_prime(rng)
            q = random_primary_prime(rng)
            if p == q:
                continue
            m = build_L([p, q]).to_lists()
            assert m[0][1] == m[1][0]

    def test_rows_sum_zero(self):
        rng = random.Random(43)
        primes = []
        while len(primes) < 5:
            p = random_primary_prime(rng)
            if p not in primes:
                primes.append(p)
        m = build_L(primes)
        assert f2_apply(m, (1,) * 5) == (0,) * 5
        lists = m.to_lists()
        for i in range(5):
            for j in range(5):
                assert lists[i][j] == lists[j][i]

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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_L([])
        with pytest.raises(ValueError):
            build_L([gi(-1, -6), gi(-1, -6)])
        with pytest.raises(ValueError):
            build_L([gi(2, 1)])  # prime but not primary
        with pytest.raises(ValueError):
            build_L([gi(9)])

    def test_rejects_the_even_prime(self):
        # 1+i is prime but not primary: no element divisible by 1+i is
        with pytest.raises(ValueError, match=r"^1\+i is not a primary Gaussian prime$"):
            build_L([gi(1, 1)])


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
        assert report.candidates == (
            DivisorClass(False, ()),
            DivisorClass(False, (1,)),
        )
        assert report.dim == 1
        assert report.rank_upper == 0
        assert is_group(report)

    def test_single_prime_nbar_zero(self):
        # 1-4i has n = 0: both branches solvable by both vectors
        report = selmer_candidate_set([gi(1, -4)])
        assert mn_invariants(gi(1, -4)).n_bar == 0
        assert report.candidates == (
            DivisorClass(False, ()),
            DivisorClass(False, (1,)),
            DivisorClass(True, ()),
            DivisorClass(True, (1,)),
        )
        assert report.dim == 2
        assert report.rank_upper == 2
        assert is_group(report)

    def test_every_candidate_satisfies_a_branch(self):
        rng = random.Random(44)
        primes = []
        while len(primes) < 4:
            p = random_primary_prime(rng)
            if p not in primes:
                primes.append(p)
        report = selmer_candidate_set(primes)
        matrix = report.matrix
        for cand in report.candidates:
            vec = tuple(1 if j + 1 in cand.indices else 0 for j in range(4))
            if cand.unit_i:
                assert f2_apply(matrix, vec) == report.nbar
            else:
                assert f2_apply(matrix, vec) == (0, 0, 0, 0)

    def test_full_product_always_candidate(self):
        rng = random.Random(45)
        for _ in range(5):
            primes = []
            while len(primes) < 3:
                p = random_primary_prime(rng)
                if p not in primes:
                    primes.append(p)
            report = selmer_candidate_set(primes)
            assert DivisorClass(False, (1, 2, 3)) in report.candidates

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
            masks = [c.span_vector(n_primes) for c in report.candidates]
            span = {0}
            for m in masks:
                span |= {m ^ s for s in span}
            assert len(span) == 1 << report.dim


class TestSymbolPatternMatrices:
    def test_constellation_matrices_consistency(self):
        # both displayed matrices have kernel {0, 1111} and the same i-branch
        for m in (MATRIX_A, MATRIX_B):
            assert brute_kernel(m) == [(0, 0, 0, 0), (1, 1, 1, 1)]
            sols = f2_solve(m, (1, 1, 1, 1))
            assert sols.all() == [(0, 1, 0, 1), (1, 0, 1, 0)]
