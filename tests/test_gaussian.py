import ast
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qirank
from qirank import curves
from qirank.gaussian import (
    GaussInt,
    GaussRat,
    I,
    I_POWERS,
    ONE,
    ONE_PLUS_I,
    ZERO,
    _rem,
    canonical_associate,
    divides,
    exact_div,
    gcd,
    is_primary,
    mod_pow,
    odd_part,
    primary_associate,
)
from qirank.verifier import _read_beta_k

from oracles import (
    divmod_nearest,
    exact_div_by_division,
    gcd_by_division,
    is_primary_by_division,
    mod_pow_by_division,
)


def gi(re, im=0):
    return GaussInt(re, im)


def random_gauss(rng, bound=10**6):
    return GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


class TestNorm:
    def test_values(self):
        assert gi(3, 2).norm() == 13
        assert gi(-1, -6).norm() == 37
        assert gi(0, 0).norm() == 0

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = random_gauss(rng), random_gauss(rng)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_zero_iff_zero(self):
        assert gi(0).norm() == 0
        assert gi(0, 1).norm() > 0


class TestDivmodNearest:
    def test_known_values(self):
        assert divmod_nearest(gi(7, 2), gi(2, 1)) == (gi(3, -1), gi(0, 1))
        assert divmod_nearest(gi(4, 2), gi(1, 1)) == (gi(3, -1), gi(0, 0))
        # exact quotient 2.5 - 2.5i; both coordinates tie-round to the even
        assert divmod_nearest(gi(5), gi(1, 1)) == (gi(2, -2), gi(1, 0))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod_nearest(gi(1), gi(0))

    def test_contract_random(self):
        rng = random.Random(2)
        for _ in range(1000):
            n, d = random_gauss(rng), random_gauss(rng, 10**4)
            if not d:
                continue
            q, r = divmod_nearest(n, d)
            assert q * d + r == n
            assert 2 * r.norm() <= d.norm()


class TestGcd:
    def test_known_values(self):
        assert gcd(gi(5), gi(3, 1)) == gi(-1, -2)
        assert gcd(gi(1, 1), gi(2)) == gi(1, 1)

    def test_gcd_with_zero_is_canonical(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_gauss(rng, 1000)
            if not a:
                continue
            assert gcd(a, gi(0)) == canonical_associate(a)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(gi(0), gi(0))

    def test_divides_both(self):
        rng = random.Random(4)
        for _ in range(100):
            a, b = random_gauss(rng, 10**4), random_gauss(rng, 10**4)
            if not a and not b:
                continue
            g = gcd(a, b)
            assert divides(g, a) and divides(g, b)


class TestRamValuation:
    def test_known_values(self):
        assert odd_part(gi(8)) == (6, I)  # 8 = (1+i)**6 * i
        assert odd_part(gi(1, 1)) == (1, ONE)
        assert odd_part(gi(3)) == (0, gi(3))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            odd_part(gi(0))

    def test_exactness(self):
        rng = random.Random(5)
        for _ in range(300):
            a = random_gauss(rng, 1000) * ONE_PLUS_I ** rng.randint(0, 40)
            if not a:
                continue
            t, u = odd_part(a)
            assert ONE_PLUS_I ** t * u == a
            assert u.is_odd()
            assert not divides(ONE_PLUS_I ** (t + 1), a)
            s, v = 0, a
            while divides(ONE_PLUS_I, v):
                v = exact_div(v, ONE_PLUS_I)
                s += 1
            assert (t, u) == (s, v)


class TestPrimaryAssociate:
    def test_known_values(self):
        assert primary_associate(gi(2, 1)) == (gi(-1, 2), 3)
        assert primary_associate(gi(-1, -6)) == (gi(-1, -6), 0)
        with pytest.raises(ValueError):
            primary_associate(gi(1, 1))

    def test_units_normalize_to_one(self):
        assert primary_associate(gi(1)) == (ONE, 0)
        assert primary_associate(I) == (ONE, 1)
        assert primary_associate(gi(-1)) == (ONE, 2)
        assert primary_associate(gi(0, -1)) == (ONE, 3)

    def test_exactly_one_associate_primary(self):
        rng = random.Random(6)
        for _ in range(200):
            a = random_gauss(rng, 10**4)
            if not a or not a.is_odd():
                continue
            primary_count = sum(
                1 for s in range(4) if is_primary(a * GaussInt(0, 1) ** s)
            )
            assert primary_count == 1

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_gauss(rng, 10**4)
            if not a or not a.is_odd():
                continue
            a_plus, s = primary_associate(a)
            assert primary_associate(a_plus) == (a_plus, 0)
            assert GaussInt(0, 1) ** s * a_plus == a

    def test_product_of_primary_is_primary(self):
        rng = random.Random(8)
        checked = 0
        while checked < 100:
            a, b = random_gauss(rng, 10**4), random_gauss(rng, 10**4)
            if not a or not b or not a.is_odd() or not b.is_odd():
                continue
            ap, _ = primary_associate(a)
            bp, _ = primary_associate(b)
            assert is_primary(ap * bp)
            checked += 1

    @pytest.mark.parametrize("shift", [0, 16 * 10**30, -16 * 10**30])
    def test_every_residue_mod_16_against_oracle(self, shift):
        # shift 0 includes zero, which is even and has no primary associate
        for re in range(16):
            for im in range(16):
                a = gi(re + shift, im - shift)
                assert is_primary(a) == is_primary_by_division(a)
                if not a.is_odd():
                    with pytest.raises(ValueError, match="divisible by 1\\+i"):
                        primary_associate(a)
                    continue
                a_plus, s = primary_associate(a)
                assert is_primary_by_division(a_plus)
                assert I ** s * a_plus == a

    @given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
    def test_large_parts_against_oracle(self, re, im):
        a = gi(re, im)
        assert is_primary(a) == is_primary_by_division(a)
        if a.is_odd():
            a_plus, s = primary_associate(a)
            assert is_primary_by_division(a_plus)
            assert I ** s * a_plus == a


class TestModPow:
    def test_known_values(self):
        p = gi(-1, -6)
        assert mod_pow(gi(1, 1), 18, p) == ONE
        assert mod_pow(I, 18, p) == gi(-1)
        assert mod_pow(gi(3, 5), 0, p) == ONE

    def test_matches_plain_power_primitive_odd_modulus(self):
        # For odd moduli the divmod_nearest remainder never ties, so it is a
        # class invariant and iterated reduction equals one-shot reduction.
        rng = random.Random(9)
        checked = 0
        while checked < 100:
            b = random_gauss(rng, 50)
            m = random_gauss(rng, 50)
            if not m.is_odd() or math.gcd(m.re, m.im) != 1:
                continue
            e = rng.randint(0, 12)
            assert mod_pow(b, e, m) == divmod_nearest(b ** e, m)[1]
            checked += 1

    def test_even_modulus_refused(self):
        rng = random.Random(12)
        checked = 0
        while checked < 100:
            b = random_gauss(rng, 50)
            m = random_gauss(rng, 50)
            if not m or m.is_odd():
                continue
            with pytest.raises(ValueError, match="odd norm with coprime parts"):
                mod_pow(b, rng.randint(0, 12), m)
            checked += 1

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            mod_pow(gi(2), 3, gi(0))

    def test_ramified_modulus_refused(self):
        # 5/(1+i) = 5/2 - 5i/2 ties in both parts; no modulus mod_pow takes ties
        with pytest.raises(ValueError, match="1\\+i is not a modulus"):
            mod_pow(gi(5), 1, ONE_PLUS_I)


# operands up to 2^80 with either sign; moduli of odd norm, of even norm, and
# the powers of 1+i times a unit, where nearest division ties most often
_PARTS = st.integers(-2 ** 80, 2 ** 80)
_GAUSS = st.builds(GaussInt, _PARTS, _PARTS)
_ODD_MODULI = _GAUSS.filter(lambda z: z.is_odd())
_EVEN_MODULI = st.builds(
    lambda z, t: z * ONE_PLUS_I ** t,
    st.builds(GaussInt, st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 40, 2 ** 40)),
    st.integers(1, 80),
).filter(bool)
_RAMIFIED = st.builds(lambda u, t: u * ONE_PLUS_I ** t,
                      st.sampled_from(I_POWERS), st.integers(0, 160))
_MODULI = st.one_of(_ODD_MODULI, _EVEN_MODULI, _RAMIFIED)
# the moduli mod_pow takes: odd norm, coprime parts
_PRIMITIVE_ODD_MODULI = st.builds(
    GaussInt, st.integers(-2 ** 64, 2 ** 64), st.integers(-2 ** 64, 2 ** 64),
).filter(lambda z: z.is_odd() and math.gcd(z.re, z.im) == 1)
# the moduli it refuses: even norm, or odd norm with an odd common factor
# of the parts, as in an inert prime
_COMMON_FACTOR_MODULI = st.builds(
    lambda z, g: z * GaussInt(g, 0),
    st.builds(GaussInt, st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 40, 2 ** 40)),
    st.integers(1, 2 ** 20).map(lambda g: 2 * g + 1),
).filter(lambda z: z.is_odd())
_REFUSED_MODULI = st.one_of(_EVEN_MODULI, _RAMIFIED.filter(lambda z: z.norm() > 1),
                            _COMMON_FACTOR_MODULI)
# a split prime: its norm 2417851639262243698245829 is a rational prime above 2^81
_SPLIT_PRIME_82 = GaussInt(1099511627777, 1099511627790)


def pair(z):
    return z.re, z.im


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestIntPairRoutes:
    """``mod_pow``, ``gcd`` and ``exact_div`` on int pairs against their oracles.

    The oracles are the ``GaussInt`` routes through ``divmod_nearest``; every
    value, and every error's type and message, must be the same.
    """

    @settings(max_examples=300, deadline=None)
    @given(_GAUSS, _MODULI)
    def test_remainder_is_nearest_division(self, n, m):
        assert _rem(n.re, n.im, m.re, m.im, m.norm()) == pair(divmod_nearest(n, m)[1])

    def test_remainder_on_ties(self):
        # every residue of a box modulo the associates of (1+i)^t, t <= 6,
        # and modulo 2 + 4i: one or both parts of the quotient tie
        ties = 0
        moduli = [u * ONE_PLUS_I ** t for u in I_POWERS for t in range(1, 7)]
        for m in moduli + [gi(2, 4), gi(-4, 2)]:
            nd = m.norm()
            for x in range(-12, 13):
                for y in range(-12, 13):
                    n = gi(x, y)
                    assert _rem(x, y, m.re, m.im, nd) == pair(divmod_nearest(n, m)[1])
                    t = n * m.conj()
                    ties += (2 * t.re % (2 * nd) == nd) + (2 * t.im % (2 * nd) == nd)
        assert ties > 1000

    @settings(max_examples=200, deadline=None)
    @given(_GAUSS, st.integers(0, 2 ** 64), _REFUSED_MODULI)
    # common factors (3, 15, 3 + 3i, -7i) and even moduli where nearest
    # division ties (2, 2 + 4i, (1+i)^5)
    @example(gi(-4, -1), 2 ** 64, gi(3))
    @example(gi(7, -11), 0, gi(15))
    @example(gi(-1, -2), 2 ** 64, gi(3, 3))
    @example(gi(4, 9), 1, gi(0, -7))
    @example(gi(-3, 7), 2 ** 64, gi(2))
    @example(gi(-9, 5), 0, gi(2, 4))
    @example(gi(-3, -5), 2 ** 64, ONE_PLUS_I ** 5)
    def test_mod_pow_refuses_other_moduli(self, base, exponent, modulus):
        with pytest.raises(ValueError, match="odd norm with coprime parts"):
            mod_pow(base, exponent, modulus)

    @given(_GAUSS, st.integers(-2 ** 64, 2 ** 64), st.one_of(_MODULI, st.just(ZERO)))
    @example(gi(2), -1, ZERO)
    @example(gi(2), 0, ZERO)
    @example(gi(2), -1, ONE)
    def test_mod_pow_errors(self, base, exponent, modulus):
        if exponent >= 0 and modulus:
            exponent = -exponent - 1
        expected = outcome(mod_pow_by_division, base, exponent, modulus)
        assert expected in ((ValueError, "negative exponent"),
                            (ZeroDivisionError, "zero modulus"))
        assert outcome(mod_pow, base, exponent, modulus) == expected

    @settings(max_examples=200, deadline=None)
    @given(_GAUSS, st.integers(0, 2 ** 64), _PRIMITIVE_ODD_MODULI)
    # a split prime, a primitive composite (N = 169) and the four units
    @example(gi(-5, 12), 0, _SPLIT_PRIME_82)
    @example(gi(-3, -2 ** 70), 2 ** 64, _SPLIT_PRIME_82)
    @example(gi(-7, 3), 0, gi(5, 12))
    @example(gi(2, -9), 2 ** 64, gi(5, 12))
    @example(gi(-6, 1), 0, ONE)
    @example(gi(-6, 1), 2 ** 64, gi(0, 1))
    @example(gi(2, -3), 0, gi(-1))
    @example(gi(2, -3), 2 ** 64, gi(0, -1))
    def test_mod_pow_against_oracle(self, base, exponent, modulus):
        assert mod_pow(base, exponent, modulus) == mod_pow_by_division(base, exponent, modulus)

    def test_split_prime_takes_one_integer_pow(self, monkeypatch):
        # square and multiply would reduce about 2 log2 N = 160 times; Z/N reduces once
        calls = []

        def counting_rem(*args):
            calls.append(args)
            return _rem(*args)

        monkeypatch.setattr("qirank.gaussian._rem", counting_rem)
        assert _SPLIT_PRIME_82.norm() > 2 ** 60
        e = (_SPLIT_PRIME_82.norm() - 1) // 2
        base = gi(-1234567, 7654321)
        assert mod_pow(base, e, _SPLIT_PRIME_82) == mod_pow_by_division(base, e, _SPLIT_PRIME_82)
        assert 1 <= len(calls) <= 2

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_GAUSS, st.just(ZERO)), st.one_of(_GAUSS, st.just(ZERO)),
           st.one_of(_MODULI, st.just(ONE)))
    @example(ZERO, ZERO, ONE)
    @example(gi(5), gi(3, 1), ONE)
    def test_gcd(self, a, b, common):
        # a common factor of even norm makes the chain run through ties
        a, b = a * common, b * common
        assert outcome(gcd, a, b) == outcome(gcd_by_division, a, b)

    def test_gcd_of_zeros(self):
        assert outcome(gcd, ZERO, ZERO) == (ValueError, "gcd(0, 0) is undefined")

    @settings(max_examples=300, deadline=None)
    @given(_GAUSS, _MODULI)
    def test_exact_div_of_a_multiple(self, q, d):
        assert exact_div(q * d, d) == exact_div_by_division(q * d, d) == q

    @settings(max_examples=300, deadline=None)
    @given(_GAUSS, st.one_of(_MODULI, st.just(ZERO)))
    @example(gi(5), ONE_PLUS_I)
    @example(gi(5), ZERO)
    def test_exact_div_any_pair(self, a, d):
        assert outcome(exact_div, a, d) == outcome(exact_div_by_division, a, d)

    def test_exact_div_errors(self):
        assert outcome(exact_div, gi(5), ONE_PLUS_I) == (
            ValueError, "5 is not divisible by 1+i")
        assert outcome(exact_div, gi(5), ZERO) == (
            ZeroDivisionError, "division by zero in Z[i]")


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", gi(3)),
            ("-5", gi(-5)),
            ("i", I),
            ("-i", gi(0, -1)),
            ("2i", gi(0, 2)),
            ("-6i", gi(0, -6)),
            ("2+i", gi(2, 1)),
            ("-1-6i", gi(-1, -6)),
            ("7 + 2i", gi(7, 2)),
            ("0", gi(0)),
        ],
    )
    def test_parse(self, text, value):
        assert GaussInt.parse(text) == value

    def test_str_roundtrip(self):
        rng = random.Random(10)
        for _ in range(200):
            a = random_gauss(rng, 100)
            assert GaussInt.parse(str(a)) == a

    def test_parse_rejects_garbage(self):
        for bad in ("", "x", "1+1", "i+1", "2.5", "3+4j+"):
            with pytest.raises(ValueError):
                GaussInt.parse(bad)

    def test_json_roundtrip(self):
        # the certificate format, read back by the verifier's (beta, k) reader
        assert gi(-1, -6).to_json() == {"im": "-6", "re": "-1"}
        rng = random.Random(12)
        for _ in range(200):
            a = random_gauss(rng, 10 ** 12)
            k = rng.randint(-10 ** 6, 10 ** 6)
            obj = {"beta": a.to_json(), "k": str(k), "version": "1"}
            assert _read_beta_k(obj) == (a.re, a.im, k)


class TestGaussRat:
    def test_reduction_and_equality(self):
        assert GaussRat.of(gi(2), gi(4)) == GaussRat.of(gi(1), gi(2))
        assert GaussRat.of(gi(0), gi(7, 3)) == GaussRat.of(gi(0), ONE)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            GaussRat.of(gi(1), gi(0))

    def test_zero_numerator_reduces_to_zero_over_one(self):
        # gcd(0, d) is d's canonical associate, so 0/d reduces to 0/1
        for re in range(-30, 31):
            for im in range(-30, 31):
                if re or im:
                    q = GaussRat.of(ZERO, gi(re, im))
                    assert (q.num, q.den) == (ZERO, ONE), (re, im)

    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = GaussRat.of(random_gauss(rng, 50), random_gauss(rng, 20) + gi(21))
            b = GaussRat.of(random_gauss(rng, 50), random_gauss(rng, 20) + gi(21))
            c = GaussRat.of(random_gauss(rng, 50), random_gauss(rng, 20) + gi(21))
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert a - a == GaussRat.of(gi(0))
            if b:
                assert (a / b) * b == a

    def test_power(self):
        half = GaussRat.of(ONE, gi(2))
        assert half ** 2 == GaussRat.of(ONE, gi(4))
        assert half ** -1 == GaussRat.of(gi(2))

    def test_integrality(self):
        # an integral value reduces to denominator 1
        assert GaussRat.of(gi(4, 2), gi(1, 1)).den == ONE
        assert GaussRat.of(gi(4, 2), gi(1, 1)).num == gi(3, -1)
        assert GaussRat.of(ONE, gi(2)).den != ONE

    def test_denominator_is_canonical(self):
        rng = random.Random(13)
        for _ in range(300):
            n = random_gauss(rng, 10**6)
            d = random_gauss(rng, 10**3) * ONE_PLUS_I ** rng.randint(0, 6)
            if not d:
                continue
            q = GaussRat.of(n, d)
            assert q.den == canonical_associate(q.den)
            assert n * q.den == q.num * d


class TestOneOperandType:
    """Each operator takes its own type: an int or the other type is refused."""

    @pytest.mark.parametrize("value, ops, other_type", [
        (gi(1, 2), (operator.add, operator.sub, operator.mul),
         GaussRat.of(gi(3, 1), gi(2))),
        (GaussRat.of(gi(3, 1), gi(2)),
         (operator.add, operator.sub, operator.mul, operator.truediv), gi(1, 2)),
    ], ids=["GaussInt", "GaussRat"])
    def test_operators_refuse_a_foreign_operand(self, value, ops, other_type):
        for op in ops:
            for foreign in (2, other_type):
                for left, right in ((value, foreign), (foreign, value)):
                    with pytest.raises((TypeError, AttributeError)):
                        op(left, right)


def source_names(tree):
    """Every name a module's source defines, imports, reads or quotes in an annotation."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= source_names(annotation)
    return found


def package_offenders(forbidden, only=None):
    """The forbidden names each module of the package uses, ``gaussian`` included.

    ``only`` limits the scan to the named modules, such as ``{"selmer"}``.
    """
    modules = sorted(Path(qirank.__file__).parent.glob("*.py"))
    assert "gaussian.py" in {m.name for m in modules}
    if only is not None:
        modules = [m for m in modules if m.stem in only]
        assert {m.stem for m in modules} == set(only)
    offenders = {
        m.name: sorted(source_names(ast.parse(m.read_text(encoding="utf-8"))) & forbidden)
        for m in modules
    }
    return {name: found for name, found in offenders.items() if found}


class TestOneInputType:
    """No module converts an int into a Gaussian value, ``gaussian`` included.

    A Gaussian argument to a library function is a GaussInt, and the
    arithmetic operators take one operand type, so no module may name
    ``_coerce``, ``_coerce_rat`` or ``GaussLike``, not even in a quoted
    annotation.
    """

    FORBIDDEN = {"_coerce", "_coerce_rat", "GaussLike"}

    def test_no_module_names_the_int_route(self):
        assert package_offenders(self.FORBIDDEN) == {}

    def test_the_check_sees_every_form(self):
        source = (
            "from .gaussian import _coerce\n"
            "def f(x: 'GaussInt | GaussLike'): return gaussian._coerce_rat(x)\n"
        )
        assert source_names(ast.parse(source)) >= self.FORBIDDEN


class TestEuclidInOracles:
    """Nearest division on ``GaussInt`` values lives only in ``tests/oracles.py``.

    ``mod_pow``, ``gcd`` and ``exact_div`` reduce on int pairs, so no module
    of the package defines, imports or calls ``divmod_nearest`` or
    ``_round_half_even``.
    """

    FORBIDDEN = {"divmod_nearest", "_round_half_even"}

    def test_no_module_names_the_euclid_route(self):
        assert package_offenders(self.FORBIDDEN) == {}

    def test_the_check_sees_every_form(self):
        assert source_names(ast.parse("def divmod_nearest(n, d): pass\n")) >= {
            "divmod_nearest"}
        assert source_names(ast.parse("class _round_half_even: pass\n")) >= {
            "_round_half_even"}
        assert source_names(ast.parse(
            "from .gaussian import divmod_nearest as dm\n"
            "r = gaussian._round_half_even(1, 2)\n"
        )) >= self.FORBIDDEN

    def test_the_oracles_define_it(self):
        oracles = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
        assert source_names(ast.parse(oracles)) >= self.FORBIDDEN


class TestPointMapsInOracles:
    """The group law, the isogenies and the twist live only in ``tests/oracles.py``.

    ``certify`` and ``qirank torsion`` run none of them, so no module of the
    package names ``scalar_mul``, ``phi_forward``, ``phi_dual``, ``twist_iso``
    or ``negate``.  ``add`` and ``scale`` are common words (``set.add``), so
    for them, and for the maps' constants, ``qirank.curves`` is checked
    directly.
    """

    MAPS = ("scale", "negate", "add", "scalar_mul", "phi_forward", "phi_dual", "twist_iso")
    FORBIDDEN = {"scalar_mul", "phi_forward", "phi_dual", "twist_iso", "negate"}

    def test_no_module_names_a_map(self):
        assert package_offenders(self.FORBIDDEN) == {}

    def test_curves_has_no_map_or_constant(self):
        for name in self.MAPS + ("_THREE", "_HALF", "_TWIST_U"):
            assert not hasattr(curves, name), name

    def test_the_oracles_define_them(self):
        oracles = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
        defined = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
        assert defined >= set(self.MAPS)


class TestDescentTakesPrimesAsGiven:
    """The descent layer proves no primality; its primes are proved where they come in.

    ``residues``, ``selmer`` and ``curves`` take their primes as given:
    ``certify`` passes the primes that ``constellation_at`` proved, and the
    CLI checks what it parses.  So none of them names ``is_gaussian_prime``
    or ``is_primary``, or imports ``qirank.primes``.
    """

    DESCENT = {"residues", "selmer", "curves"}
    FORBIDDEN = {"is_gaussian_prime", "is_primary"}

    def test_no_descent_module_names_a_primality_test(self):
        assert package_offenders(self.FORBIDDEN, only=self.DESCENT) == {}

    def test_no_descent_module_imports_the_primes_module(self):
        for name in sorted(self.DESCENT):
            source = Path(qirank.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
            imported = set()
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
                elif isinstance(node, ast.Import):
                    imported |= {alias.name for alias in node.names}
            assert not imported & {"primes", "qirank.primes"}, name
