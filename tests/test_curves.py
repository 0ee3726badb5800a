import random
from math import isqrt

import pytest

from qirank.gaussian import GaussInt, GaussRat, I
from qirank.curves import (
    CurvePoint,
    INFINITY,
    ORIGIN,
    cm_apply,
    is_torsion,
    on_curve,
    torsion_subgroup,
    two_torsion_points,
)
from qirank.primes import factor_primary

from oracles import (
    add,
    negate,
    on_curve_by_rationals,
    phi_dual,
    phi_forward,
    scalar_mul,
    scale,
    twist_iso,
    twist_iso_inv,
)


def gi(re, im=0):
    return GaussInt(re, im)


def pt(x, y):
    return CurvePoint.affine(x, y)


def random_curve_point(rng, bound=8):
    """A random integral point: x in Z[i], y = x*t makes alpha = x(t^2 - x)."""
    while True:
        x = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        t = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not x:
            continue
        alpha = x * (t * t - x)
        if not alpha:
            continue
        return alpha, pt(x, x * t)


def random_nonzero_rat(rng, bound=5):
    while True:
        num = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        den = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if num and den:
            return GaussRat.of(num, den)


def random_square_free(rng, bound=30):
    while True:
        g = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if g and g not in (I, -I) and factor_primary(g).is_square_free():
            return g


class TestAffine:
    @pytest.mark.parametrize("x, y", [
        (I, 0), (0, I), (1, 1), (GaussRat.of(I), I), (I, GaussRat.of(I)), (I, 1.0),
    ])
    def test_refuses_a_coordinate_that_is_not_a_gauss_int(self, x, y):
        with pytest.raises(TypeError, match="must be GaussInts"):
            CurvePoint.affine(x, y)

    def test_lifts_both_coordinates_into_q_i(self):
        p = CurvePoint.affine(I, gi(0))
        assert p == CurvePoint(GaussRat.of(I), GaussRat.of(gi(0)))
        assert p in two_torsion_points(gi(1))


class TestOnCurve:
    def test_known_values(self):
        assert on_curve(gi(-25), pt(gi(4), gi(0, -6)))
        assert on_curve(gi(17, 3), ORIGIN)
        assert not on_curve(gi(1), pt(gi(1), gi(1)))
        assert on_curve(gi(1), INFINITY)


class TestOnCurveOracle:
    """``on_curve`` in Z[i] against the reduced-fraction route in Q(i)."""

    @staticmethod
    def images_with_denominators():
        # (curve, point) from each map that makes denominators, on its curve
        rng = random.Random(70)
        for _ in range(40):
            alpha, p = random_curve_point(rng)
            triple = scalar_mul(alpha, 3, p)
            q = phi_forward(alpha, triple)
            c = GaussInt(rng.randint(-4, 4), rng.randint(1, 4))
            # u = c/(1+i) has u^4 = -c^4/4, so scale takes E_(-4 alpha) to E_(c^4 alpha)
            yield from [
                (alpha, triple),
                (gi(-4) * alpha, q),
                (alpha, phi_dual(alpha, q)),
                (alpha, twist_iso(q)),
                (c ** 4 * alpha, scale(q, GaussRat.of(c, gi(1, 1)))),
            ]

    def test_points_with_denominators_and_their_neighbours_off_the_curve(self):
        checked = 0
        for alpha, p in self.images_with_denominators():
            if p.is_infinity or p.x.den.norm() == p.y.den.norm() == 1:
                continue
            assert on_curve(alpha, p) and on_curve_by_rationals(alpha, p)
            # y + 1/yd squares to y^2 only if yn = -1/2, so this point is off
            off = CurvePoint(p.x, GaussRat.of(p.y.num + gi(1), p.y.den))
            assert not on_curve(alpha, off) and not on_curve_by_rationals(alpha, off)
            checked += 1
        assert checked == 200

    def test_infinity_and_origin(self):
        for alpha in (gi(1), gi(-25), gi(17, 3)):
            for p in (INFINITY, ORIGIN):
                assert on_curve(alpha, p) and on_curve_by_rationals(alpha, p)


class TestGroupLaw:
    def test_order_four_doubling(self):
        p = pt(I, gi(1, -1))
        assert on_curve(gi(-1), p)
        assert add(gi(-1), p, p) == ORIGIN

    def test_identity_and_inverse(self):
        rng = random.Random(50)
        for _ in range(50):
            alpha, p = random_curve_point(rng)
            assert add(alpha, p, INFINITY) == p
            assert add(alpha, INFINITY, p) == p
            assert add(alpha, p, negate(p)) == INFINITY

    def test_commutative(self):
        rng = random.Random(51)
        for _ in range(30):
            alpha, p = random_curve_point(rng)
            q = scalar_mul(alpha, 2, p)
            assert add(alpha, p, q) == add(alpha, q, p)

    def test_associative_spot_checks(self):
        rng = random.Random(52)
        for _ in range(15):
            alpha, p = random_curve_point(rng)
            q = scalar_mul(alpha, 2, p)
            r = negate(scalar_mul(alpha, 3, p))
            lhs = add(alpha, add(alpha, p, q), r)
            rhs = add(alpha, p, add(alpha, q, r))
            assert lhs == rhs


class TestScalarMul:
    def test_matches_repeated_add(self):
        rng = random.Random(64)
        points = [random_curve_point(rng, bound=4) for _ in range(4)]
        points.append((gi(-1), pt(I, gi(1, -1))))  # order 4
        for alpha, p in points:
            for n in range(-9, 10):
                step = negate(p) if n < 0 else p
                expected = INFINITY
                for _ in range(abs(n)):
                    expected = add(alpha, expected, step)
                assert scalar_mul(alpha, n, p) == expected, n


class TestScale:
    def test_fixed_points(self):
        u = GaussRat.of(gi(2, 1), gi(3))
        assert scale(INFINITY, u) == INFINITY
        assert scale(ORIGIN, u) == ORIGIN

    def test_image_on_scaled_curve(self):
        # for u = c/d, x = d^2 x0 and y = x t with t = d t0 lie on E_(d^4 a0),
        # a0 = x0 (t0^2 - x0), and u^4 d^4 a0 = c^4 a0 is integral
        rng = random.Random(66)
        for trial in range(40):
            u = random_nonzero_rat(rng)
            if trial % 2:
                u = GaussRat.of(u.num)  # integral
            x0 = GaussInt(rng.randint(-8, 8), rng.randint(-8, 8))
            t0 = GaussInt(rng.randint(-8, 8), rng.randint(-8, 8))
            a0 = x0 * (t0 * t0 - x0)
            if not a0:
                continue
            x, t = u.den * u.den * x0, u.den * t0
            p = pt(x, x * t)
            assert on_curve(u.den ** 4 * a0, p)
            assert on_curve(u.num ** 4 * a0, scale(p, u))

    def test_composition(self):
        rng = random.Random(67)
        for _ in range(30):
            _, p = random_curve_point(rng)
            u, v = random_nonzero_rat(rng), random_nonzero_rat(rng)
            assert scale(scale(p, u), v) == scale(p, u * v)

    def test_negate_and_cm_apply_are_scale(self):
        rng = random.Random(68)
        for p in (INFINITY, ORIGIN) + tuple(random_curve_point(rng)[1] for _ in range(30)):
            assert negate(p) == scale(p, GaussRat.of(gi(-1)))
            assert cm_apply(p) == scale(p, GaussRat.of(-I))


class TestCmApply:
    def test_fixes_origin(self):
        assert cm_apply(ORIGIN) == ORIGIN
        assert cm_apply(INFINITY) == INFINITY

    def test_fourth_power_is_identity(self):
        rng = random.Random(53)
        for _ in range(30):
            alpha, p = random_curve_point(rng)
            q = p
            for _ in range(4):
                q = cm_apply(q)
            assert q == p

    def test_explicit_point_image(self):
        p = pt(gi(4), gi(0, -6))
        image = cm_apply(p)
        assert image == pt(gi(-4), gi(6))
        assert on_curve(gi(-25), image)

    def test_homomorphism_and_square(self):
        rng = random.Random(54)
        for _ in range(20):
            alpha, p = random_curve_point(rng)
            q = scalar_mul(alpha, 2, p)
            assert cm_apply(add(alpha, p, q)) == add(alpha, cm_apply(p), cm_apply(q))
            assert cm_apply(cm_apply(p)) == negate(p)

    def test_stays_on_curve(self):
        rng = random.Random(55)
        for _ in range(30):
            alpha, p = random_curve_point(rng)
            assert on_curve(alpha, cm_apply(p))


class TestIsogenies:
    def test_kernels(self):
        assert phi_forward(gi(-25), ORIGIN) == INFINITY
        assert phi_forward(gi(-25), INFINITY) == INFINITY
        assert phi_dual(gi(-25), ORIGIN) == INFINITY
        assert phi_dual(gi(-25), INFINITY) == INFINITY

    def test_explicit_image(self):
        image = phi_forward(gi(-25), pt(gi(4), gi(0, -6)))
        assert image == CurvePoint(GaussRat.of(gi(-9), gi(4)), GaussRat.of(gi(0, 123), gi(8)))
        assert on_curve(gi(100), image)

    def test_dual_composed_is_duplication(self):
        rng = random.Random(56)
        for _ in range(100):
            alpha, p = random_curve_point(rng)
            assert phi_dual(alpha, phi_forward(alpha, p)) == scalar_mul(alpha, 2, p)

    def test_forward_image_lands_downstairs(self):
        rng = random.Random(57)
        for _ in range(20):
            alpha, p = random_curve_point(rng)
            q = phi_forward(alpha, p)
            assert on_curve(alpha * gi(-4), q)


class TestTwistIso:
    def test_fixed_points(self):
        assert twist_iso(INFINITY) == INFINITY
        assert twist_iso(ORIGIN) == ORIGIN

    def test_round_trip(self):
        rng = random.Random(58)
        for _ in range(100):
            # build a point on E_(-4 alpha) by seeding there directly
            beta, q = random_curve_point(rng)
            # choose alpha with -4*alpha = beta when divisible, else map other way
            p = twist_iso_inv(beta, q)  # on E_(-4 beta)
            assert twist_iso(p) == q

    def test_image_on_target(self):
        rng = random.Random(59)
        for _ in range(30):
            alpha, p = random_curve_point(rng)
            q = twist_iso_inv(alpha, p)
            assert on_curve(alpha * gi(-4), q)


class TestTwoTorsion:
    def test_explicit_sets(self):
        pts = two_torsion_points(gi(1))
        assert set(pts) == {INFINITY, ORIGIN, pt(I, gi(0)), pt(gi(0, -1), gi(0))}
        pts_i = two_torsion_points(I)
        assert set(pts_i) == {INFINITY, ORIGIN, pt(gi(-1), gi(0)), pt(gi(1), gi(0))}

    def test_each_doubles_to_infinity(self):
        rng = random.Random(60)
        for _ in range(20):
            g = random_square_free(rng)
            for p in two_torsion_points(g):
                assert on_curve(g * g, p)
                assert scalar_mul(g * g, 2, p) == INFINITY

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_torsion_points(gi(0))


class TestTorsionSubgroup:
    def test_gamma_i(self):
        tg = torsion_subgroup(I)
        assert tg.label == "Z2xZ4"
        assert len(tg.points) == 8
        p4 = pt(I, gi(1, -1))
        assert p4 in tg.points
        assert scalar_mul(gi(-1), 2, p4) == ORIGIN
        assert torsion_subgroup(-I).label == "Z2xZ4"

    def test_generic_square_free(self):
        assert torsion_subgroup(gi(-1, 2)).label == "Z2xZ2"
        assert torsion_subgroup(gi(1)).label == "Z2xZ2"
        rng = random.Random(61)
        for _ in range(10):
            g = random_square_free(rng)
            tg = torsion_subgroup(g)
            assert tg.label == "Z2xZ2"
            assert set(tg.points) == set(two_torsion_points(g))

    def test_closed_under_add_and_cm(self):
        for g in (I, gi(-1, 2), gi(1), gi(2, 1)):
            tg = torsion_subgroup(g)
            alpha = g * g
            pts = set(tg.points)
            for p in pts:
                assert cm_apply(p) in pts
                for q in pts:
                    assert add(alpha, p, q) in pts


class TestIsTorsion:
    def test_known_values(self):
        assert is_torsion(gi(-1, 2), ORIGIN)
        assert is_torsion(I, pt(I, gi(1, -1)))

    def test_nonzero_y_is_nontorsion(self):
        # (4 b^2 k^2, 2i b k (b^4 - 4k^4)) lies on y^2 = x^3 - (b^4 + 4k^4)^2 x
        # for every (b, k); with gamma = i(b^4 + 4k^4) square-free and y != 0
        # the point cannot be torsion.
        rng = random.Random(62)
        checked = 0
        while checked < 20:
            b = GaussInt(rng.randint(-4, 4), rng.randint(-4, 4))
            k = rng.randint(-3, 3)
            if not b or k == 0:
                continue
            g0 = b ** 4 + gi(4 * k ** 4)
            if not g0 or not factor_primary(g0).is_square_free():
                continue
            gamma = I * g0
            p = pt(gi(4 * k * k) * b * b, gi(0, 2 * k) * b * (b ** 4 - gi(4 * k ** 4)))
            if p.y == GaussRat.of(gi(0)):
                continue
            assert on_curve(gamma * gamma, p)
            assert not is_torsion(gamma, p)
            checked += 1

    def test_all_explicit_torsion_points_report_torsion(self):
        for g in (I, gi(1), gi(-1, 2)):
            for p in torsion_subgroup(g).points:
                assert is_torsion(g, p)


class TestSquareClassChecks:
    def test_rational_square_classification(self):
        # torsion_subgroup rests on neither 3 (order-3 points) nor 2 (further
        # order-4 points) being a square in Q(i).  A rational is a Q(i)-square
        # iff it or its negative is a square in Q (a^2 or (bi)^2).
        assert not any(n >= 0 and isqrt(n) ** 2 == n for n in (2, -2, 3, -3))

    def test_psi3_has_no_roots_random(self):
        # 3x^4 + 6 g^2 x^2 - g^4 = 0 would force (x/g)^2 = -1 +/- 2/sqrt(3),
        # impossible since 3 is not a square in Q(i); spot-check numerically
        # that no Gaussian-integer x up to a small bound is a root.
        rng = random.Random(63)
        for _ in range(20):
            g = random_square_free(rng, bound=10)
            g2, g4 = g * g, (g * g) * (g * g)
            for xr in range(-12, 13):
                for xi in range(-12, 13):
                    x = GaussInt(xr, xi)
                    x2 = x * x
                    val = gi(3) * (x2 * x2) + gi(6) * (g2 * x2) - g4
                    assert val != GaussInt(0, 0)
