"""Points on y^2 = x^3 + a*x over Q(i): what ``certify`` and ``qirank torsion`` run.

Curve coefficients are ``GaussInt``s; point coordinates are exact elements
of Q(i), and ``CurvePoint.affine`` builds a point from two ``GaussInt``
coordinates.  The module holds what a certificate's finite check runs: the
curve equation ``on_curve``, the complex-multiplication automorphism [i],
and the torsion classification for congruent number curves E_(g^2) with g
square-free.  The chord-tangent group law, [n]P, the isomorphisms
(x, y) -> (u^2 x, u^3 y), the 2-isogeny pair and the twist map are not
needed for that check; they live in ``tests/oracles.py`` as test oracles.

The functions take their preconditions as given and do not check them
again: ``is_torsion`` takes a point already on its curve, and the torsion
classification takes a square-free nonzero g.  ``certify`` tests
``on_curve`` on its family point only (``cm_apply`` is an automorphism of
the curve, so the image needs no test) and passes a g that is a product of
four distinct primes; the CLI ``torsion`` command checks its g itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gaussian import GaussInt, GaussRat, I, ONE, RAT_ZERO, ZERO


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


_RAT_I = GaussRat(I, ONE)  # i over 1 is already reduced


def cm_apply(point: CurvePoint) -> CurvePoint:
    """The automorphism [i]: (x, y) -> (-x, iy), fixing O and (0,0).

    It is the oracle scale(point, -I) in one product, not four: certify runs
    it.  The factor i is a module constant, so an image costs one
    ``GaussRat.of`` (the product's reduction) and one ``gcd``.
    """
    if point.is_infinity:
        return point
    return CurvePoint(-point.x, point.y * _RAT_I)


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
