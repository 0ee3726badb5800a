import random

import pytest
from hypothesis import given, settings, strategies as st

from qirank.gaussian import GaussInt, I, ONE, ONE_PLUS_I, divides, primary_associate
from qirank.primes import is_gaussian_prime
from qirank.residues import MNInvariant, euler_symbol, mn_invariants

from oracles import (
    brute_force_symbol,
    mn_invariants_by_search,
    mn_sum,
    mod_pow_by_division,
    mod4_consistency,
    primary_primes_up_to_norm,
    symbol_i,
    symbol_one_plus_i,
)


def gi(re, im=0):
    return GaussInt(re, im)


def random_primary(rng, bound=10**4):
    while True:
        a = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if a and a.is_odd():
            return primary_associate(a)[0]


def random_primary_prime(rng, norm_bound=10**5):
    side = int(norm_bound ** 0.5)
    while True:
        a = GaussInt(rng.randint(-side, side), rng.randint(-side, side))
        if a.norm() < norm_bound and a.is_odd() and is_gaussian_prime(a):
            return primary_associate(a)[0]


class TestMNInvariants:
    def test_generators_and_identity(self):
        assert mn_invariants(gi(-1, -6)) == MNInvariant(0, 1)
        assert mn_invariants(gi(1, -4)) == MNInvariant(1, 0)
        assert mn_invariants(ONE) == MNInvariant(0, 0)
        assert mn_invariants(gi(-25, -2)) == MNInvariant(1, 1)

    def test_rejects_non_primary(self):
        with pytest.raises(ValueError):
            mn_invariants(gi(2, 1))
        with pytest.raises(ValueError):
            mn_invariants(ONE_PLUS_I)
        with pytest.raises(ValueError):
            mn_invariants(gi(0))

    def test_table_matches_search_on_every_residue_mod_16(self):
        primary = 0
        for re in range(16):
            for im in range(16):
                a = gi(re, im)
                try:
                    expected = mn_invariants_by_search(a)
                except ValueError:
                    with pytest.raises(ValueError, match="is not primary"):
                        mn_invariants(a)
                    continue
                assert mn_invariants(a) == expected
                primary += 1
        assert primary == 32

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**64, 2**64), st.integers(-2**64, 2**64))
    def test_table_matches_search_on_large_parts(self, re, im):
        a = gi(re, im)
        # a itself is primary one time in eight; its primary associate always
        cases = [a, primary_associate(a)[0]] if a.is_odd() else [a]
        for x in cases:
            try:
                expected = mn_invariants_by_search(x)
            except ValueError:
                with pytest.raises(ValueError, match="is not primary"):
                    mn_invariants(x)
                continue
            assert mn_invariants(x) == expected

    def test_additivity(self):
        rng = random.Random(30)
        for _ in range(500):
            a, b = random_primary(rng), random_primary(rng)
            assert mn_invariants(a * b) == mn_sum(mn_invariants(a), mn_invariants(b))

    def test_mod4_consistency(self):
        rng = random.Random(31)
        for _ in range(200):
            assert mod4_consistency(random_primary(rng))


class TestEulerSymbol:
    def test_known_values(self):
        p = gi(-1, -6)
        assert euler_symbol(I, p) == -1
        assert euler_symbol(ONE_PLUS_I, p) == 1
        assert euler_symbol(gi(-1, 2), gi(-1, -2)) == -1
        for q in (gi(-1, -6), gi(-1, 2), gi(-3), gi(2, 1)):
            assert euler_symbol(gi(4), q) == 1

    def test_multiples_of_p_raise(self):
        # the zero power is the divisibility test: alpha = p u, u = 0 included,
        # for split and inert p and for every associate of p
        rng = random.Random(34)
        units = (ONE, I, -ONE, -I)
        for p in primary_primes_up_to_norm(600) + [random_primary_prime(rng, 10**6)]:
            for _ in range(4):
                u = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
                q = rng.choice(units) * p
                with pytest.raises(ValueError, match="divides"):
                    euler_symbol(q * u, q)
                with pytest.raises(ValueError, match="divides"):
                    euler_symbol(p * u, q)

    def test_brute_force_oracle_sample(self):
        # a non-multiple of p agrees with the oracle; a multiple raises
        rng = random.Random(32)
        for p in primary_primes_up_to_norm(600):
            for _ in range(5):
                a = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
                if divides(p, a):
                    with pytest.raises(ValueError, match="divides"):
                        euler_symbol(a, p)
                else:
                    assert euler_symbol(a, p) == brute_force_symbol(a, p), (a, p)

    def test_inert_prime_never_calls_mod_pow(self, monkeypatch):
        # every associate of an inert q, against the brute-force symbol
        def no_mod_pow(*args):
            raise AssertionError("an inert prime takes the Legendre symbol of the norm")

        monkeypatch.setattr("qirank.residues.mod_pow", no_mod_pow)
        rng = random.Random(36)
        for q in (3, 7, 11, 19, 23, 31, 43):
            for u in (ONE, I, -ONE, -I):
                p = u * gi(q)
                for _ in range(8):
                    a = GaussInt(rng.randint(-60, 60), rng.randint(-60, 60))
                    if divides(p, a):
                        with pytest.raises(ValueError, match="divides"):
                            euler_symbol(a, p)
                    else:
                        assert euler_symbol(a, p) == brute_force_symbol(a, p), (a, p)

    @pytest.mark.parametrize("q", [10 ** 9 + 7, 2 ** 61 - 1])
    def test_inert_prime_matches_euler_criterion(self, q):
        # Nm(alpha)^((q-1)/2) against alpha^((q^2-1)/2) mod q in Z[i]
        rng = random.Random(q)
        for _ in range(20):
            a = GaussInt(rng.randint(-2 ** 80, 2 ** 80), rng.randint(-2 ** 80, 2 ** 80))
            r = mod_pow_by_division(a, (q * q - 1) // 2, gi(q))
            assert r in (ONE, -ONE)
            assert euler_symbol(a, gi(0, -q)) == (1 if r == ONE else -1)

    def test_multiplicative(self):
        rng = random.Random(33)
        checked = 0
        while checked < 100:
            p = random_primary_prime(rng, 10**4)
            a = GaussInt(rng.randint(-100, 100), rng.randint(-100, 100))
            b = GaussInt(rng.randint(-100, 100), rng.randint(-100, 100))
            try:
                lhs = euler_symbol(a * b, p)
                rhs = euler_symbol(a, p) * euler_symbol(b, p)
            except ValueError:
                continue
            assert lhs == rhs
            checked += 1

    def test_squares_are_residues(self):
        rng = random.Random(34)
        checked = 0
        while checked < 50:
            p = random_primary_prime(rng, 10**4)
            a = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
            try:
                s = euler_symbol(a * a, p)
            except ValueError:
                continue
            assert s == 1
            checked += 1


class TestQuarticReciprocity:
    def test_symmetry_random_pairs(self):
        rng = random.Random(35)
        seen = 0
        while seen < 200:
            p = random_primary_prime(rng)
            q = random_primary_prime(rng)
            if p == q:
                continue
            assert euler_symbol(p, q) == euler_symbol(q, p)
            seen += 1


class TestFormulaSymbols:
    def test_known_values(self):
        assert symbol_i(gi(-1, -6)) == -1
        assert symbol_one_plus_i(gi(-1, -6)) == 1
        assert symbol_i(gi(1, -4)) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symbol_i(gi(2, 1))  # prime but not primary
        with pytest.raises(ValueError):
            symbol_one_plus_i(gi(9))  # not prime

    def test_agrees_with_euler_small(self):
        for p in primary_primes_up_to_norm(2000):
            assert symbol_i(p) == euler_symbol(I, p)
            assert symbol_one_plus_i(p) == euler_symbol(ONE_PLUS_I, p)
