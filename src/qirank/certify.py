"""End-to-end certification of rank-2 curves from prime constellations.

``certify`` runs every check on a candidate (beta, k): the four-prime
constellation conditions, genuineness over Q(i), the Selmer candidate set
with its dimension and rank bound, the torsion classification, and the
explicit non-torsion point P.  Its CM image [i]P = (-x, iy) is recorded
without a check of its own: [i] is an automorphism of the curve (Silverman,
The Arithmetic of Elliptic Curves, X.4), so the image of a non-torsion point
is one.  ``certify`` refuses norms at or above the bound below which
Miller-Rabin with fixed bases is a proof.  Its last step hands the
values it derived to ``verifier.certificate_fields``, the one owner of the
certificate layout, and a ``Certificate`` is the canonical bytes of that
dict plus ``toolchain``: sorted keys, ASCII, no whitespace, decimal
strings, no floats.

Genuineness is certified by the witness Im(gamma^2) != 0, for gamma =
beta^4 + 4k^4.  When it is zero, gamma^2 is a rational integer and the curve
is a base change from Q.  Nonzero is necessary, not sufficient.  The curve
y^2 = x^3 - gamma^2 x is a base change from Q iff gamma lies in
(Q* u iQ*) Q(i)*^2, since its twists are classified by Q(i)*/Q(i)*^4;
gamma = -9+12i = 3(1+2i)^2 has Im(gamma^2) = -216 and lies there.  What
makes a constellation's curve genuine is its class: gamma = p_1 p_2 p_3 p_4,
and each conj(p_j) is primary and congruent to 15+6i mod 16, not 15+10i, so
no conj(p_j) is associate to any p_i.  The primes that divide gamma to an
odd power are then not closed under conjugation, as they are for every
element of (Q* u iQ*) Q(i)*^2.

``verify_certificate`` does not run ``certify``: it hands the bytes to
``qirank.verifier``, a stand-alone checker that re-derives every field from
(beta, k) by a shorter route of its own.  The two share the layout, never a
derived value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from . import __version__, verifier
from .gaussian import GaussInt, I
from .curves import CurvePoint, cm_apply, is_torsion, on_curve, torsion_subgroup
from .search import ConstellationHit, Rejection, constellation_at
from .selmer import selmer_candidate_set
from .verifier import MR_DETERMINISTIC_BOUND


@dataclass(frozen=True, slots=True)
class FailureReport:
    """A certification failure: short reason plus the condition it violates."""

    reason: str
    condition: str


@dataclass(frozen=True, slots=True)
class Certificate:
    """One certified rank-2 curve, held as its canonical JSON bytes."""

    data: bytes

    def to_json_bytes(self) -> bytes:
        return self.data


def certify(beta: GaussInt, k: int) -> Union[Certificate, FailureReport]:
    """Run the full verification chain for (beta, k).

    Each value is derived once.  The bound check reads the largest of the
    four norms (a +- k)^2 + (b +- k)^2 off the ints, before any of the four
    values is built; gamma and gamma^2 are computed once, and the witness
    Im(gamma^2) and alpha = -gamma^2 share them, as gamma and the family
    point (4 b^2 k^2, 2i b k (b^4 - 4k^4)) share b^2, b^4 and 4k^4.
    """
    a, b = beta.re, beta.im
    max_norm = max((a - k) ** 2, (a + k) ** 2) + max((b - k) ** 2, (b + k) ** 2)
    if max_norm >= MR_DETERMINISTIC_BOUND:
        return FailureReport(
            reason="norm above the deterministic primality bound",
            condition=f"each norm of beta + i^j k(1+i) must be below "
                      f"{MR_DETERMINISTIC_BOUND}, where Miller-Rabin with fixed "
                      f"bases is a proof of primality",
        )
    result = constellation_at(beta, k)
    if isinstance(result, Rejection):
        return FailureReport(
            reason=result.reason,
            condition="each of beta + i^j k(1+i), j = 1..4, must be a Gaussian prime "
                      "congruent to -1-6i mod 16, with k nonzero",
        )
    hit: ConstellationHit = result
    # p_1 p_2 p_3 p_4 = gamma is an identity in (beta, k)
    beta_squared = beta * beta
    beta_fourth = beta_squared * beta_squared
    four_k_fourth = GaussInt(4 * k ** 4, 0)
    gamma = beta_fourth + four_k_fourth
    gamma_squared = gamma * gamma

    # necessary only: the class argument in the module docstring proves it
    im_gamma_squared = gamma_squared.im
    if not im_gamma_squared:
        return FailureReport(
            reason="not genuine",
            condition="Im((beta^4 + 4k^4)^2) must be nonzero, otherwise the curve "
                      "is a base change from Q",
        )

    alpha = -gamma_squared

    report = selmer_candidate_set(hit.primes)
    rows = report.matrix.row_strings()
    if tuple(rows) not in verifier.CONSTELLATION_ROWS:
        return FailureReport(
            reason="unexpected symbol matrix",
            condition="the matrix of pairwise residue symbols must be one of the "
                      "two constellation matrices",
        )
    # the fixed Klein four-group: a subgroup of F2 dimension 2, so the rank
    # bound 2*dim - 2 is 2
    if report.candidates != verifier.SELMER_CANDIDATES:
        return FailureReport(
            reason="unexpected Selmer candidate set",
            condition="candidates must be exactly {1, p1p2p3p4, i p1p3, i p2p4}",
        )

    # gamma is a product of four distinct primes, so it is square-free, as
    # torsion_subgroup and is_torsion require, and not a unit, so
    # i*gamma != +-i and the torsion is Z2xZ2
    gamma_torsion = I * gamma
    torsion = torsion_subgroup(gamma_torsion)

    point = CurvePoint.affine(GaussInt(4 * k * k, 0) * beta_squared,
                              GaussInt(0, 2 * k) * beta * (beta_fourth - four_k_fourth))
    if not on_curve(alpha, point):
        return FailureReport(
            reason="point not on curve",
            condition="(4 b^2 k^2, 2i b k(b^4 - 4k^4)) must satisfy "
                      "y^2 = x^3 - (b^4+4k^4)^2 x",
        )
    if is_torsion(gamma_torsion, point):
        return FailureReport(
            reason="point is torsion",
            condition="the exhibited point must have y != 0 (b != 0, k != 0 and "
                      "b^4 != 4k^4 since 4 is not a fourth power in Z[i])",
        )
    # [i] is an automorphism of the curve, so the image is a non-torsion
    # point too: (iy)^2 = -y^2 = (-x)^3 + alpha(-x), and iy != 0
    point_cm = cm_apply(point)

    fields = verifier.certificate_fields(
        beta=_pair(beta), k=k, primes=[_pair(p) for p in hit.primes], rows=rows,
        alpha=_pair(alpha), im_gamma_squared=im_gamma_squared,
        point=_coordinates(point), point_cm=_coordinates(point_cm),
        gamma_torsion=_pair(gamma_torsion), torsion_group=torsion.label,
    )
    fields["toolchain"] = f"qirank {__version__}"
    return Certificate(json.dumps(
        fields, sort_keys=True, ensure_ascii=True, separators=(",", ":"),
    ).encode("ascii"))


def _pair(z: GaussInt) -> tuple[int, int]:
    return z.re, z.im


def _coordinates(point: CurvePoint):
    """(x, y) of an affine point, each coordinate as (numerator, denominator) pairs."""
    return tuple((_pair(c.num), _pair(c.den)) for c in (point.x, point.y))


def verify_certificate(data: Union[str, bytes, Certificate]) -> bool:
    """Check a certificate with the stand-alone ``qirank.verifier``.

    It takes certificate text, ``str`` or ``bytes``, or a ``Certificate``;
    a parsed dict fails in ``json.loads`` with TypeError.  It re-derives
    every field from the certificate's (beta, k) and compares them all; a
    tampered matrix entry, a swapped point, an unsupported format version or
    a norm above the primality bound makes the certificate invalid.  The
    ``toolchain`` field is provenance, not mathematics, and is ignored.
    Raises ValueError on malformed input.
    """
    if isinstance(data, Certificate):
        data = data.data
    return verifier.verify(data)
