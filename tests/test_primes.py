import functools
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import isprime, nextprime, prevprime

import qirank.primes
from qirank.gaussian import GaussInt, I, ONE_PLUS_I, divides, is_primary
from qirank.primes import (
    PrimaryFactorization,
    factor_primary,
    is_base2_probable_prime,
    is_gaussian_prime,
    is_rational_prime,
    prime_above,
    rational_prime_sieve,
    sqrt_minus_one_mod,
)
from qirank import verifier
from qirank.verifier import (
    MR_BASES,
    MR_DETERMINISTIC_BOUND,
    MR_PSI,
    is_strong_probable_prime,
    proof_bases,
)

from oracles import is_prime_by_all_bases, is_square, primary_primes_up_to_norm, primes_in_box


def gi(re, im=0):
    return GaussInt(re, im)


class TestRationalPrimality:
    def test_small(self):
        sieve = rational_prime_sieve(10_000)
        for n in range(10_000):
            assert is_rational_prime(n) == bool(sieve[n]), n

    def test_large_known(self):
        assert is_rational_prime(2**61 - 1)
        assert not is_rational_prime(2**61 + 1)
        # Carmichael numbers must not fool the test
        assert not is_rational_prime(561)
        assert not is_rational_prime(1729)


class TestRangeSieve:
    def test_small_ranges_match_the_full_sieve(self):
        for limit in range(60):
            full = rational_prime_sieve(limit)
            assert len(full) == limit + 1, limit
            for start in range(limit + 1):
                assert rational_prime_sieve(limit, start) == full[start:], (start, limit)

    def test_seeded_ranges_match_the_full_sieve(self):
        bound = 2 * 10**5
        full = rational_prime_sieve(bound)
        rng = random.Random(20261019)
        for _ in range(3000):
            start, limit = sorted(rng.randrange(bound) for _ in range(2))
            assert rational_prime_sieve(limit, start) == full[start : limit + 1], (
                start, limit)

    def test_stepped_progressions_match_is_rational_prime(self):
        # the join sieves the norms 5 + 32i; starts below p^2 leave p itself
        # flagged prime, and start = 5 holds 5 and 37
        rng = random.Random(20261020)
        cases = [(5, length) for length in range(0, 1200, 37)]
        cases += [(5 + 32 * rng.randrange(bound), rng.randrange(20000))
                  for bound in (400, 10**6) for _ in range(150)]
        cases += [(5 + 32 * rng.randrange(10**9), 0) for _ in range(50)]
        for start, length in cases:
            limit = start + length
            expected = bytes(is_rational_prime(n) for n in range(start, limit + 1, 32))
            assert rational_prime_sieve(limit, start, 32) == expected, (start, limit)
        assert rational_prime_sieve(37, 5, 32) == b"\x01\x01"


# the strong pseudoprimes to base 2 below 10^6 (OEIS A001262)
SPSP2_BELOW_1E6 = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    74665, 80581, 85489, 88357, 90751, 104653, 130561, 196093, 220729, 233017,
    252601, 253241, 256999, 271951, 280601, 314821, 357761, 390937, 458989,
    476971, 486737, 489997, 514447, 580337, 635401, 647089, 741751, 800605,
    818201, 838861, 873181, 877099, 916327, 976873, 983401,
)
PRIMES_TO_97 = math.prod(p for p in range(2, 98) if all(p % q for q in range(2, p)))
# psi_t, the least strong pseudoprime to the first t prime bases, as published
# (Jaeschke 1993; Sorenson & Webster 2017), apart from verifier.MR_PSI so that
# a changed entry there meets the true values here
PUBLISHED_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


class TestBase2Stage:
    def test_agrees_with_sieve_but_for_pseudoprimes_without_small_factors(self):
        limit = 10 ** 6
        sieve = rational_prime_sieve(limit)
        wrong = [n for n in range(limit + 1) if is_base2_probable_prime(n) != bool(sieve[n])]
        assert wrong == [n for n in SPSP2_BELOW_1E6 if math.gcd(n, PRIMES_TO_97) == 1]

    @settings(max_examples=150, deadline=None)
    @given(exponent=st.sampled_from([41, 80]), offset=st.integers(0, 1 << 30))
    def test_never_rejects_a_prime(self, exponent, offset):
        # sympy finds the prime, so that the check does not go through the stage
        p = nextprime((1 << exponent) + offset)
        assert is_rational_prime(p)
        assert is_base2_probable_prime(p)

    # psi_1 = 2047 = 23 * 89 ends at trial division
    @pytest.mark.parametrize("n", sorted(set(PUBLISHED_PSI[1:])))
    def test_pseudoprimes_pass_only_the_stage(self, n):
        assert math.gcd(n, PRIMES_TO_97) == 1
        assert is_base2_probable_prime(n)
        assert not is_rational_prime(n)

    @pytest.mark.parametrize("n", [2047, 3277, 4033])
    def test_small_factors_end_at_trial_division(self, monkeypatch, n):
        def no_strong_test(*args):
            raise AssertionError("strong test reached")

        monkeypatch.setattr(qirank.primes, "is_strong_probable_prime", no_strong_test)
        assert not is_base2_probable_prime(n)


# odd n below the bound on each side of every psi_t, and the base-2 pseudoprimes
PROOF_EDGES = sorted(
    {n for psi in PUBLISHED_PSI for n in (psi - 2, psi, psi + 2) if n < MR_DETERMINISTIC_BOUND}
    | set(SPSP2_BELOW_1E6))


def with_proof_edges(test):
    return functools.reduce(lambda t, n: example(n=n)(t), PROOF_EDGES, test)


class TestProofBases:
    """The shortest prefix of ``MR_BASES`` that proves n, against all 13 bases."""

    def test_each_psi_is_a_pseudoprime_to_its_prefix(self):
        # a mistyped digit leaves a number that is prime or fails one of
        # the bases
        assert len(MR_PSI) == len(MR_BASES)
        assert list(MR_PSI) == sorted(MR_PSI)
        assert MR_PSI[-1] == MR_DETERMINISTIC_BOUND
        for t, psi in enumerate(MR_PSI, 1):
            assert psi % 2 == 1 and not isprime(psi), t
            assert is_strong_probable_prime(psi, MR_BASES[:t]), t

    @pytest.mark.parametrize("t", range(1, len(PUBLISHED_PSI)))
    def test_psi_is_where_a_tier_ends(self, t):
        psi = PUBLISHED_PSI[t - 1]
        assert len(proof_bases(psi - 1)) <= t
        assert len(proof_bases(psi)) > t
        assert not is_strong_probable_prime(psi, proof_bases(psi))
        assert not verifier._is_prime(psi)
        assert not is_rational_prime(psi)

    def test_every_pseudoprime_below_psi_2_is_refused(self):
        # every norm that box = k = 256 can meet is below psi_2, where two
        # bases are the proof
        limit = PUBLISHED_PSI[1]
        sieve = rational_prime_sieve(limit)
        fooled = [n for n in range(3, limit, 2) if not sieve[n] and is_base2_probable_prime(n)]
        assert len(fooled) == 37
        assert [n for n in fooled if n < 10 ** 6] == [
            n for n in SPSP2_BELOW_1E6 if math.gcd(n, PRIMES_TO_97) == 1]
        for n in fooled:
            assert not is_rational_prime(n), n
            assert not verifier._is_prime(n), n

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(0, PUBLISHED_PSI[3]),
                       st.integers(0, MR_DETERMINISTIC_BOUND // 2 - 1)).map(lambda m: 2 * m + 1))
    @with_proof_edges
    def test_agrees_with_all_bases(self, n):
        expected = is_prime_by_all_bases(n)
        assert verifier._is_prime(n) == expected
        assert is_rational_prime(n) == expected


class TestIsGaussianPrime:
    def test_known_values(self):
        assert is_gaussian_prime(gi(-1, -6))
        assert is_gaussian_prime(gi(3))
        assert not is_gaussian_prime(gi(5))

    def test_units_zero_ramified(self):
        assert not is_gaussian_prime(gi(0))
        assert not is_gaussian_prime(gi(1))
        assert not is_gaussian_prime(I)
        assert is_gaussian_prime(ONE_PLUS_I)
        assert is_gaussian_prime(gi(-1, 1))

    def test_split_cross_oracle(self):
        # for split candidates, primality agrees with primality of the norm
        rng = random.Random(20)
        for _ in range(300):
            a = GaussInt(rng.randint(-500, 500), rng.randint(-500, 500))
            if a.re == 0 or a.im == 0:
                continue
            assert is_gaussian_prime(a) == is_rational_prime(a.norm())

    def test_inert_cases(self):
        assert is_gaussian_prime(gi(0, 7))
        assert is_gaussian_prime(gi(-11))
        assert not is_gaussian_prime(gi(13))  # 13 = 1 mod 4 splits
        assert not is_gaussian_prime(gi(9))


class TestSqrtMinusOne:
    def test_values(self):
        for p in (5, 13, 17, 29, 37, 101, 65537):
            x = sqrt_minus_one_mod(p)
            assert x * x % p == p - 1

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            sqrt_minus_one_mod(7)


class TestFactorPrimary:
    def test_known_values(self):
        assert factor_primary(gi(5)) == PrimaryFactorization(
            s=0, t=0, factors=((gi(-1, -2), 1), (gi(-1, 2), 1))
        )
        assert factor_primary(gi(-4)) == PrimaryFactorization(s=0, t=4, factors=())
        assert factor_primary(I) == PrimaryFactorization(s=1, t=0, factors=())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_primary(gi(0))

    def test_roundtrip_random(self):
        rng = random.Random(21)
        for _ in range(500):
            a = GaussInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            if not a:
                continue
            f = factor_primary(a)
            assert f.value() == a
            for p, e in f.factors:
                assert e >= 1
                assert is_gaussian_prime(p)
                assert is_primary(p)

    def test_factors_sorted_and_distinct(self):
        rng = random.Random(22)
        for _ in range(100):
            a = GaussInt(rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5))
            if not a:
                continue
            f = factor_primary(a)
            keys = [(p.norm(), p.re, p.im) for p, _ in f.factors]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_refuses_norm_at_or_above_bound(self):
        # the bound is 1287836182261 * 2575672364521, both primes 1 mod 4, so
        # it is a norm; unbounded, sympy takes about half a second on it
        at_bound = prime_above(1287836182261) * prime_above(2575672364521)
        assert at_bound.norm() == MR_DETERMINISTIC_BOUND
        big = gi(nextprime(10**30) * nextprime(7 * 10**30))  # 61 digits
        start = time.monotonic()
        for a in (at_bound, at_bound * ONE_PLUS_I, big):
            with pytest.raises(ValueError, match="must be below"):
                factor_primary(a)
        assert time.monotonic() - start < 1

    def test_factors_just_below_bound(self):
        p = prevprime(MR_DETERMINISTIC_BOUND)
        while p % 4 != 1:
            p = prevprime(p)
        pi = prime_above(p)
        assert factor_primary(pi) == PrimaryFactorization(s=0, t=0, factors=((pi, 1),))

    def test_prime_above(self):
        for p in (5, 13, 17, 10007 * 0 + 101):
            pi = prime_above(p)
            assert pi.norm() == p
            assert is_primary(pi)
            assert is_gaussian_prime(pi)


class TestIsSquare:
    def test_cases(self):
        assert is_square(gi(-4))  # (1+i)^4
        assert is_square(gi(-1))  # i^2
        assert not is_square(gi(2))
        assert not is_square(gi(3))
        assert not is_square(I)

    def test_random_squares(self):
        rng = random.Random(23)
        for _ in range(50):
            a = GaussInt(rng.randint(-300, 300), rng.randint(-300, 300))
            if not a:
                continue
            assert is_square(a * a)


class TestPrimesInBox:
    def test_small_box_contents(self):
        found = set(primes_in_box((-2, 2), (-2, 2)))
        for p in (gi(1, 1), gi(2, 1), gi(1, 2), gi(-1, 2)):
            assert p in found
        # oracle: direct scan of the 25 lattice points
        oracle = {
            GaussInt(a, b)
            for a in range(-2, 3)
            for b in range(-2, 3)
            if is_gaussian_prime(GaussInt(a, b))
        }
        assert found == oracle

    def test_empty_and_degenerate(self):
        assert list(primes_in_box((0, 0), (0, 0))) == []
        assert list(primes_in_box((1, 0), (0, 5))) == []

    def test_lexicographic_order(self):
        out = list(primes_in_box((-5, 5), (-5, 5)))
        assert out == sorted(out, key=lambda p: (p.re, p.im))

    def test_residue_filter_census(self):
        target = gi(-1, -6)
        sixteen = gi(16)
        filtered = [
            p for p in primes_in_box((-100, 100), (-100, 100))
            if divides(sixteen, p - target)
        ]
        brute = [
            p
            for p in primes_in_box((-100, 100), (-100, 100))
            if (p.re - target.re) % 16 == 0 and (p.im - target.im) % 16 == 0
        ]
        assert filtered == brute
        assert filtered  # the class is populated already at this scale


class TestPrimaryPrimesUpToNorm:
    def test_contents(self):
        ps = primary_primes_up_to_norm(200)
        assert all(is_primary(p) and is_gaussian_prime(p) for p in ps)
        assert all(p.norm() < 200 for p in ps)
        assert gi(-1, -2) in ps and gi(-1, 2) in ps and gi(-3) in ps
        # split p = 1 mod 4 contributes two primary primes, inert q contributes -q
        split_count = sum(1 for p in ps if p.im != 0)
        inert = sorted(-p.re for p in ps if p.im == 0)
        assert inert == [3, 7, 11]
        assert split_count == 2 * sum(
            1 for n in range(5, 200, 4) if is_rational_prime(n)
        )
