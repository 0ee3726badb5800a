"""End-to-end certification of rank-2 curves from prime constellations.

``certify`` runs every check on a candidate (beta, k): the four-prime
constellation conditions, genuineness over Q(i), the Selmer candidate set
with its dimension and rank bound, the torsion classification, and the
explicit non-torsion point.  It refuses norms at or above the bound below
which Miller-Rabin with fixed bases is a proof.  The result is a
self-contained certificate.  Serialization is byte-stable: sorted keys,
decimal strings, no floats.

``verify_certificate`` does not run ``certify``: it hands the certificate
to ``qirank.verifier``, a stand-alone checker that shares no code with this
chain and re-derives every field from (beta, k) by a shorter route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from . import __version__, verifier
from .gaussian import GaussInt, GaussLike, I, _coerce
from .curves import (
    CurvePoint,
    TorsionGroup,
    cm_apply,
    is_torsion,
    on_curve,
    torsion_subgroup,
)
from .search import (
    ConstellationHit,
    Rejection,
    constellation_at,
    constellation_primes,
)
from .selmer import DivisorClass, F2Matrix, SelmerReport, selmer_candidate_set
from .verifier import (
    CERT_VERSION,
    CONCLUSION,
    GAMMA_CONVENTION,
    MR_DETERMINISTIC_BOUND,
)

# the only two symbol matrices a valid constellation can produce, by the
# common value of (k / p_j), and the Klein-four candidate set both give;
# the verifier holds the constants
CONSTELLATION_MATRICES = tuple(map(F2Matrix.from_rows, verifier.CONSTELLATION_ROWS))
EXPECTED_CANDIDATES = tuple(
    DivisorClass(unit == "i", indices) for unit, indices in verifier.SELMER_CANDIDATES
)


@dataclass(frozen=True, slots=True)
class GenuineWitness:
    """Is the curve genuinely defined over Q(i), witnessed by Im((beta^4+4k^4)^2)."""

    value: bool
    im_gamma_squared: int


@dataclass(frozen=True, slots=True)
class FailureReport:
    """A certification failure: short reason plus the condition it violates."""

    reason: str
    condition: str


@dataclass(frozen=True, slots=True)
class Certificate:
    """Machine-checkable record of one certified rank-2 curve."""

    beta: GaussInt
    k: int
    primes: tuple[GaussInt, GaussInt, GaussInt, GaussInt]
    alpha: GaussInt
    selmer: SelmerReport
    genuine: GenuineWitness
    point: CurvePoint
    point_cm: CurvePoint
    torsion: TorsionGroup
    gamma_torsion: GaussInt
    conclusion: str
    version: str

    def to_json_obj(self) -> dict:
        return {
            "L": self.selmer.matrix.row_strings(),
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "conclusion": self.conclusion,
            "genuine": {
                "im_gamma_squared": str(self.genuine.im_gamma_squared),
                "value": self.genuine.value,
            },
            "k": str(self.k),
            "point": self.point.to_json(),
            "point_cm": self.point_cm.to_json(),
            "primes": [p.to_json() for p in self.primes],
            "rank_upper": str(self.selmer.rank_upper),
            "selmer_candidates": [
                {
                    "primes": [str(j) for j in c.indices],
                    "unit": "i" if c.unit_i else "1",
                }
                for c in self.selmer.candidates
            ],
            "selmer_dim": str(self.selmer.dim),
            "toolchain": f"qirank {__version__}",
            "torsion": {
                "convention": GAMMA_CONVENTION,
                "gamma": self.gamma_torsion.to_json(),
                "group": self.torsion.label,
            },
            "version": self.version,
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(
            self.to_json_obj(), sort_keys=True, ensure_ascii=True,
            separators=(",", ":"),
        ).encode("ascii")


def is_genuine(beta: GaussLike, k: int) -> GenuineWitness:
    """The curve is genuine iff (beta^4 + 4k^4)^2 is not a rational integer."""
    b = _coerce(beta)
    gamma = b ** 4 + GaussInt(4 * k ** 4, 0)
    im = (gamma * gamma).im
    return GenuineWitness(value=(im != 0), im_gamma_squared=im)


def family_point(beta: GaussLike, k: int) -> CurvePoint:
    """(4 b^2 k^2, 2i b k (b^4 - 4k^4)), always on y^2 = x^3 - (b^4+4k^4)^2 x."""
    b = _coerce(beta)
    x = 4 * (b * b) * (k * k)
    y = 2 * I * b * k * (b ** 4 - GaussInt(4 * k ** 4, 0))
    return CurvePoint.affine(x, y)


def certify(beta: GaussLike, k: int) -> Union[Certificate, FailureReport]:
    """Run the full verification chain for (beta, k)."""
    b = _coerce(beta)
    if any(v.norm() >= MR_DETERMINISTIC_BOUND for v in constellation_primes(b, k)):
        return FailureReport(
            reason="norm above the deterministic primality bound",
            condition=f"each norm of beta + i^j k(1+i) must be below "
                      f"{MR_DETERMINISTIC_BOUND}, where Miller-Rabin with fixed "
                      f"bases is a proof of primality",
        )
    result = constellation_at(b, k)
    if isinstance(result, Rejection):
        return FailureReport(
            reason=result.reason,
            condition="each of beta + i^j k(1+i), j = 1..4, must be a Gaussian prime "
                      "congruent to -1-6i mod 16, with k nonzero",
        )
    hit: ConstellationHit = result
    # p_1 p_2 p_3 p_4 = gamma is an identity in (beta, k)
    gamma = b ** 4 + GaussInt(4 * k ** 4, 0)

    genuine = is_genuine(b, k)
    if not genuine.value:
        return FailureReport(
            reason="not genuine",
            condition="Im((beta^4 + 4k^4)^2) must be nonzero, otherwise the curve "
                      "is a base change from Q",
        )

    alpha = -(gamma * gamma)

    report = selmer_candidate_set(hit.primes)
    if not any(report.matrix == m for m in CONSTELLATION_MATRICES):
        return FailureReport(
            reason="unexpected symbol matrix",
            condition="the matrix of pairwise residue symbols must be one of the "
                      "two constellation matrices",
        )
    # the fixed Klein four-group: a subgroup of F2 dimension 2, so the rank
    # bound 2*dim - 2 is 2
    if report.candidates != EXPECTED_CANDIDATES:
        return FailureReport(
            reason="unexpected Selmer candidate set",
            condition="candidates must be exactly {1, p1p2p3p4, i p1p3, i p2p4}",
        )

    # gamma is a product of four distinct primes, so it is square-free, as
    # torsion_subgroup and is_torsion require, and not a unit, so
    # i*gamma != +-i and the torsion is Z2xZ2
    gamma_torsion = I * gamma
    torsion = torsion_subgroup(gamma_torsion)

    point = family_point(b, k)
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
    point_cm = cm_apply(point)
    if not on_curve(alpha, point_cm) or is_torsion(gamma_torsion, point_cm):
        return FailureReport(
            reason="CM image of point invalid",
            condition="the CM image (-x, iy) must be a non-torsion curve point",
        )

    return Certificate(
        beta=b,
        k=k,
        primes=hit.primes,
        alpha=alpha,
        selmer=report,
        genuine=genuine,
        point=point,
        point_cm=point_cm,
        torsion=torsion,
        gamma_torsion=gamma_torsion,
        conclusion=CONCLUSION,
        version=CERT_VERSION,
    )


def verify_certificate(data: Union[str, bytes, dict, Certificate]) -> bool:
    """Check a certificate with the stand-alone ``qirank.verifier``.

    It re-derives every field from the certificate's (beta, k) and compares
    them all; a tampered matrix entry, a swapped point, an unsupported format
    version or a norm above the primality bound makes the certificate
    invalid.  The ``toolchain`` field is provenance, not mathematics, and is
    ignored.  Raises ValueError on malformed input.
    """
    if isinstance(data, Certificate):
        data = data.to_json_obj()
    return verifier.verify(data)
