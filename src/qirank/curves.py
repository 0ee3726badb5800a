"""Exact point arithmetic on y^2 = x^3 + a*x over Q(i).

Curve coefficients are ``GaussInt``s, lifted into Q(i) where a formula
meets a coordinate; point coordinates are exact elements of Q(i).
``CurvePoint.affine`` builds a point from two ``GaussInt`` coordinates, and
``scale`` takes its factor u as a ``GaussRat``.  Alongside the chord-tangent
group law this module houses ``scale``, the isomorphism
(x, y) -> (u^2 x, u^3 y) from E_a to E_(u^4 a) (for j = 1728 every
isomorphism has this form: Silverman, *The Arithmetic of Elliptic Curves*,
III.1), the complex-multiplication automorphism, the 2-isogeny pair
between E_a and E_(-4a), the twist isomorphism E_(-4a) -> E_a, and the
torsion classification for congruent number curves E_(g^2) with g
square-free.

The functions take their preconditions as given and do not check them
again: the maps and ``is_torsion`` take points already on their curve, and
the torsion classification takes a square-free nonzero g.  ``certify``
tests ``on_curve`` on its two points and passes a g that is a product of
four distinct primes; the CLI ``torsion`` command checks its g itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gaussian import GaussInt, GaussRat, I, ONE, ONE_PLUS_I, RAT_ZERO, ZERO


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """An affine point with exact Q(i) coordinates, or the point at infinity."""

    x: Optional[GaussRat]
    y: Optional[GaussRat]

    @classmethod
    def affine(cls, x: GaussInt, y: GaussInt) -> "CurvePoint":
        if type(x) is not GaussInt or type(y) is not GaussInt:
            raise TypeError(f"affine coordinates must be GaussInts, not {x!r}, {y!r}")
        return cls(GaussRat(x, ONE), GaussRat(y, ONE))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_json(self):
        if self.is_infinity:
            return "infinity"
        return {"x": self.x.to_json(), "y": self.y.to_json()}


INFINITY = CurvePoint(None, None)
ORIGIN = CurvePoint.affine(ZERO, ZERO)
_THREE = GaussRat(GaussInt(3, 0), ONE)  # add: the tangent slope (3x^2 + a)/(2y)
_HALF = GaussRat.of(ONE, GaussInt(2, 0))  # phi_dual: E_(16 alpha) -> E_alpha
_TWIST_U = GaussRat.of(ONE, ONE_PLUS_I)  # twist_iso: u^4 = -1/4


def on_curve(alpha: GaussInt, point: CurvePoint) -> bool:
    """True iff the point satisfies y^2 = x^3 + alpha*x exactly (O counts).

    With x = xn/xd and y = yn/yd the test is yn^2 xd^3 = yd^2 (xn^3 + alpha xn xd^2),
    cross-multiplied in Z[i]: no fraction is reduced (oracle: on_curve_by_rationals).
    """
    if point.is_infinity:
        return True
    xn, xd, yn, yd = point.x.num, point.x.den, point.y.num, point.y.den
    xd_sq = xd * xd
    return yn * yn * xd_sq * xd == yd * yd * xn * (xn * xn + alpha * xd_sq)


def scale(point: CurvePoint, u: GaussRat) -> CurvePoint:
    """The isomorphism E_a -> E_(u^4 a), (x, y) -> (u^2 x, u^3 y), u nonzero in Q(i)."""
    if point.is_infinity:
        return point
    u_sq = u * u
    return CurvePoint(u_sq * point.x, u_sq * u * point.y)


def negate(point: CurvePoint) -> CurvePoint:
    """[-1], which is scale(point, -1) written with one negation."""
    if point.is_infinity:
        return point
    return CurvePoint(point.x, -point.y)


def add(alpha: GaussInt, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent sum of two points on y^2 = x^3 + alpha*x."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        # doubling; y != 0 here since y = -y was excluded
        lam = (_THREE * (p.x * p.x) + GaussRat(alpha, ONE)) / (p.y + p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return CurvePoint(x3, y3)


def scalar_mul(alpha: GaussInt, n: int, point: CurvePoint) -> CurvePoint:
    """n * point by left-to-right double-and-add over the bits of |n|."""
    if n < 0:
        return scalar_mul(alpha, -n, negate(point))
    acc = INFINITY
    for bit in bin(n)[2:]:
        acc = add(alpha, acc, acc)
        if bit == "1":
            acc = add(alpha, acc, point)
    return acc


def cm_apply(point: CurvePoint) -> CurvePoint:
    """The automorphism [i]: (x, y) -> (-x, iy), fixing O and (0,0).

    It is scale(point, -I) in one product, not four: certify runs it.
    """
    if point.is_infinity:
        return point
    return CurvePoint(-point.x, point.y * GaussRat.of(I))


def phi_forward(alpha: GaussInt, point: CurvePoint) -> CurvePoint:
    """The degree-2 isogeny E_alpha -> E_(-4 alpha).

    Kernel {O, (0,0)}; elsewhere (x, y) -> (y^2/x^2, y(alpha - x^2)/x^2).
    """
    if point.is_infinity or point == ORIGIN:
        return INFINITY
    x_sq = point.x * point.x
    return CurvePoint(point.y * point.y / x_sq,
                      point.y * (GaussRat(alpha, ONE) - x_sq) / x_sq)


def phi_dual(alpha: GaussInt, point: CurvePoint) -> CurvePoint:
    """The dual isogeny E_(-4 alpha) -> E_alpha: phi_forward, then scale by 1/2.

    Kernel {O, (0,0)}; elsewhere (x, y) -> (y^2/(4x^2), -y(4 alpha + x^2)/(8x^2)).
    Composing with phi_forward is duplication on E_alpha.
    """
    return scale(phi_forward(GaussInt(-4, 0) * alpha, point), _HALF)


def twist_iso(point: CurvePoint) -> CurvePoint:
    """The isomorphism E_(-4 alpha) -> E_alpha, (x, y) -> (x/(1+i)^2, y/(1+i)^3)."""
    return scale(point, _TWIST_U)


@dataclass(frozen=True, slots=True)
class TorsionGroup:
    """The full torsion of E_(g^2)(Q(i)): label plus the explicit points."""

    label: str  # "Z2xZ2" or "Z2xZ4"
    points: tuple[CurvePoint, ...]


def two_torsion_points(gamma: GaussInt) -> tuple[CurvePoint, ...]:
    """The four 2-torsion points {O, (0,0), (gamma*i, 0), (-gamma*i, 0)} of E_(gamma^2)."""
    if not gamma:
        raise ValueError("gamma = 0 gives a singular curve")
    gi_ = gamma * I
    return (
        INFINITY,
        ORIGIN,
        CurvePoint.affine(gi_, ZERO),
        CurvePoint.affine(-gi_, ZERO),
    )


# torsion of E_(-1): the 2-torsion plus four points of order 4
_ORDER4_POINTS = (
    CurvePoint.affine(I, GaussInt(1, -1)),
    CurvePoint.affine(I, GaussInt(-1, 1)),
    CurvePoint.affine(GaussInt(0, -1), GaussInt(1, 1)),
    CurvePoint.affine(GaussInt(0, -1), GaussInt(-1, -1)),
)


def torsion_subgroup(gamma: GaussInt) -> TorsionGroup:
    """The torsion subgroup of E_(gamma^2)(Q(i)), gamma square-free and nonzero.

    Square-freeness is not checked: ``certify`` passes a product of four
    distinct primes, and the CLI ``torsion`` command checks its input.
    Z2xZ4 exactly when gamma = +/-i (both give the curve y^2 = x^3 - x);
    Z2xZ2 with the explicit 2-torsion points otherwise.  The classification
    rests on two constant facts, pinned in the test suite: an order-3 point
    would need sqrt(3) in Q(i), and a further order-4 point sqrt(2), and
    neither 3 nor 2 is a square in Q(i).
    """
    if gamma == I or gamma == -I:
        return TorsionGroup("Z2xZ4", two_torsion_points(gamma) + _ORDER4_POINTS)
    return TorsionGroup("Z2xZ2", two_torsion_points(gamma))


def is_torsion(gamma: GaussInt, point: CurvePoint) -> bool:
    """Torsion membership of a point on E_(gamma^2), gamma square-free and nonzero.

    Neither the point lying on the curve nor gamma being square-free is
    checked.  Away from gamma = +/-i every torsion point other than O has
    y = 0; for gamma = +/-i membership is checked against the explicit
    8-point set.
    """
    if gamma == I or gamma == -I:
        return point in torsion_subgroup(gamma).points
    return point.is_infinity or point.y == RAT_ZERO
