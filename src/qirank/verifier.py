"""Stand-alone certificate checker.

It uses only the standard library and imports nothing from the rest of
qirank, so it can be read, audited and copied on its own.  It reads a
certificate as JSON text, ``str`` or ``bytes``, and never takes a parsed
object.  From the certificate's ``(beta, k)`` alone it rebuilds the whole
expected certificate, proving each claim on the way, then compares every
field but ``toolchain`` with the given one.  Only ``beta`` and ``k`` are
ever parsed; every other field must equal its recomputed value exactly,
type included.

The paper's 2-isogeny descent makes the rank-2 claim a finite check:

* the four values p_j = beta + i^j k(1+i), j = 1..4, are distinct (k != 0)
  and congruent to -1-6i mod 16.  Such a value has both parts nonzero, so it
  is a Gaussian prime iff its norm is a rational prime.  Miller-Rabin with
  the first t bases of ``MR_BASES`` proves that for a norm below psi_t, the
  least strong pseudoprime to those bases; each norm gets the least such t,
  and 13 bases reach ``MR_DETERMINISTIC_BOUND`` = psi_13.  Larger norms are
  refused;
* gamma = beta^4 + 4k^4 = p_1 p_2 p_3 p_4 (an identity in a, b, k, so it
  is not checked), and y^2 = x^3 - gamma^2 x is not a base change from Q.
  It would be iff gamma lay in (Q* u iQ*) Q(i)*^2, whose elements have
  their odd-exponent primes closed under conjugation.  Those of gamma are
  the p_j, and each conj(p_j) is primary and congruent to 15+6i mod 16, so
  it is associate to no p_i.  The recorded witness Im(gamma^2) != 0 says
  only that gamma^2 is not rational, which is necessary, not sufficient:
  gamma = -9+12i = 3(1+2i)^2 has Im(gamma^2) = -216 and is a base change;
* the pairwise residue symbols give the matrix L, which must be one of the
  two ``CONSTELLATION_ROWS``.  The class -1-6i mod 16 fixes every n_bar to 1,
  and for both matrices the Selmer candidates are then the Klein four-group
  ``SELMER_CANDIDATES``: F2 dimension 2, rank at most 2;
* gamma is a product of four distinct primes, so it is square-free and not a
  unit, and the torsion is Z/2 x Z/2 with y = 0 away from O.  The family
  point lies on the curve with y != 0, so it is non-torsion.  Its CM image
  (-x, iy) needs no check of its own: (iy)^2 = -y^2 = -(x^3 + alpha x) =
  (-x)^3 + alpha(-x), and iy != 0.  The rank is 2.

The module also owns the certificate format.  ``certificate_fields`` lays
out every field but ``toolchain`` from values its caller derived;
``expected_certificate`` and ``qirank.certify`` both call it, so the layout
is written once while each still derives every value on its own.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Optional, Sequence, Union

CERT_VERSION = "1"
CONCLUSION = "rank = 2, group ≅ ℤ² ⊕ (ℤ/2ℤ)²"
GAMMA_CONVENTION = "gamma = i*(beta^4 + 4*k^4)"

# Miller-Rabin with the first t of these bases proves primality below psi_t,
# the least strong pseudoprime to them (Jaeschke, Math. Comp. 61, 1993, for
# t <= 8; Sorenson & Webster, Math. Comp. 86, 2017, up to t = 13).  Above
# psi_13, the bound, fixed bases can be fooled, so larger norms are refused
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# psi_1, ..., psi_13: the t-th entry bounds the prefix MR_BASES[:t]
MR_PSI = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    MR_DETERMINISTIC_BOUND,
)

# beta.re, beta.im and k have at most 13 digits below the bound
MAX_DIGITS = 40

# a certificate is under 1.5 KB; longer input is refused before parsing
MAX_CERT_BYTES = 1 << 20

# row strings of the only two symbol matrices a valid constellation can give
CONSTELLATION_ROWS = (
    ("1001", "0011", "0110", "1100"),
    ("0110", "1100", "1001", "0011"),
)

# the candidates (unit, 1-based prime indices) both matrices give
SELMER_CANDIDATES = (("1", ()), ("1", (1, 2, 3, 4)), ("i", (1, 3)), ("i", (2, 4)))

GaussPair = tuple[int, int]
# (x, y) with each coordinate a (numerator, denominator) pair
GaussPoint = tuple[tuple[GaussPair, GaussPair], tuple[GaussPair, GaussPair]]


def parse_certificate(data: Union[str, bytes]) -> dict:
    """Parse certificate JSON text into a dict, validating the basic shape."""
    if len(data) > MAX_CERT_BYTES:
        raise ValueError(f"malformed certificate: longer than {MAX_CERT_BYTES} bytes")
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("malformed certificate: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("certificate must be a JSON object")
    for field in ("beta", "k", "version"):
        if field not in obj:
            raise ValueError(f"certificate is missing the {field!r} field")
    return obj


def verify(data: Union[str, bytes]) -> bool:
    """True iff the certificate text is exactly the one (beta, k) determines.

    Raises ValueError on malformed input; a wrong version, a failed claim or
    any changed field gives False.
    """
    obj = parse_certificate(data)
    if obj.get("version") != CERT_VERSION:
        return False
    expected = expected_certificate(*_read_beta_k(obj))
    given = {key: value for key, value in obj.items() if key != "toolchain"}
    # an expected certificate holds only str, bool, list and dict, and among
    # JSON values == crosses types only between bool, int and float: the one
    # bool leaf is the only one that 1 or 1.0 could match
    return (expected is not None and given == expected
            and type(given["genuine"]["value"]) is bool)


def _read_beta_k(obj: dict) -> tuple[int, int, int]:
    try:
        texts = (obj["beta"]["re"], obj["beta"]["im"], obj["k"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc!r}") from exc
    for text in texts:
        if not isinstance(text, str) or len(text) > MAX_DIGITS:
            raise ValueError(
                f"malformed certificate: beta and k must be decimal strings of "
                f"at most {MAX_DIGITS} characters, got {text!r:.60}")
    try:
        return int(texts[0]), int(texts[1]), int(texts[2])
    except ValueError as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc


def expected_certificate(a: int, b: int, k: int) -> Optional[dict]:
    """The certificate of beta = a + bi and k, or None if a claim fails."""
    if k == 0:
        return None  # the four values coincide
    primes = ((a - k, b + k), (a - k, b - k), (a + k, b - k), (a + k, b + k))
    if not all(map(_in_target_class, primes)):
        return None
    norms = [re * re + im * im for re, im in primes]
    if max(norms) >= MR_DETERMINISTIC_BOUND or not all(map(_is_prime, norms)):
        return None

    beta = (a, b)
    beta4 = _mul(_mul(beta, beta), _mul(beta, beta))
    gamma = (beta4[0] + 4 * k ** 4, beta4[1])
    gamma2 = _mul(gamma, gamma)
    if gamma2[1] == 0:
        return None
    rows = _symbol_rows(primes)
    if rows not in CONSTELLATION_ROWS:
        return None

    alpha = (-gamma2[0], -gamma2[1])
    # (4 b^2 k^2, 2i b k (b^4 - 4k^4)); its CM image (-x, iy) needs no check
    x = _mul((4 * k * k, 0), _mul(beta, beta))
    y = _mul(_mul((0, 2 * k), beta), (beta4[0] - 4 * k ** 4, beta4[1]))
    if y == (0, 0) or _mul(y, y) != _add(_mul(_mul(x, x), x), _mul(alpha, x)):
        return None
    x_cm, y_cm = (-x[0], -x[1]), (-y[1], y[0])

    one = (1, 0)
    return certificate_fields(
        beta=beta, k=k, primes=primes, rows=rows, alpha=alpha,
        im_gamma_squared=gamma2[1],
        point=((x, one), (y, one)), point_cm=((x_cm, one), (y_cm, one)),
        gamma_torsion=(-gamma[1], gamma[0]), torsion_group="Z2xZ2",
    )


def certificate_fields(
    *, beta: GaussPair, k: int, primes: Sequence[GaussPair], rows: Sequence[str],
    alpha: GaussPair, im_gamma_squared: int, point: GaussPoint, point_cm: GaussPoint,
    gamma_torsion: GaussPair, torsion_group: str,
) -> dict:
    """Every field of a certificate but ``toolchain``, as JSON values.

    It only formats what the caller derived: integers become decimal
    strings and Gaussian pairs ``{"im", "re"}`` objects.  ``rows`` are the
    row strings of L and a point is a ``GaussPoint``.  The fields every
    certificate shares are written as constants: the genuine flag, the
    Selmer candidates ``SELMER_CANDIDATES`` of F2 dimension 2, the rank
    bound 2 and the conclusion.
    """
    return {
        "L": list(rows),
        "alpha": _gauss_json(alpha),
        "beta": _gauss_json(beta),
        "conclusion": CONCLUSION,
        "genuine": {"im_gamma_squared": str(im_gamma_squared), "value": True},
        "k": str(k),
        "point": _point_json(point),
        "point_cm": _point_json(point_cm),
        "primes": [_gauss_json(p) for p in primes],
        "rank_upper": "2",
        "selmer_candidates": [
            {"primes": [str(j) for j in indices], "unit": unit}
            for unit, indices in SELMER_CANDIDATES
        ],
        "selmer_dim": "2",
        "torsion": {
            "convention": GAMMA_CONVENTION,
            "gamma": _gauss_json(gamma_torsion),
            "group": torsion_group,
        },
        "version": CERT_VERSION,
    }


def residue_symbol(alpha: GaussPair, pi: GaussPair) -> int:
    """The quadratic residue symbol (alpha / pi) in {+1, -1}.

    pi = c + di must have prime norm p and d != 0 mod p, and must not divide
    alpha.  In Z[i]/(pi) = F_p, i maps to r = -c/d, so alpha maps to
    Re(alpha) + r Im(alpha) and the symbol is its Legendre symbol.
    """
    c, d = pi
    p = c * c + d * d
    r = -c * pow(d, -1, p) % p
    t = (alpha[0] + alpha[1] * r) % p
    return 1 if pow(t, (p - 1) // 2, p) == 1 else -1


def _symbol_rows(primes: tuple[GaussPair, ...]) -> tuple[str, ...]:
    """Row strings of L: entry (i, j) is 1 iff (p_i / p_j) = -1, and the
    diagonal makes each row sum to zero."""
    n = len(primes)
    bits = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # distinct primary primes: pi_j does not divide p_i, and Gaussian
            # reciprocity gives (p_i / p_j) = (p_j / p_i)
            bits[i][j] = bits[j][i] = int(residue_symbol(primes[i], primes[j]) == -1)
    for i, row in enumerate(bits):
        row[i] = sum(row) % 2
    return tuple("".join(map(str, row)) for row in bits)


def _in_target_class(z: GaussPair) -> bool:
    """z = -1-6i mod 16, which makes z primary and fixes its n_bar to 1."""
    return z[0] % 16 == 15 and z[1] % 16 == 10


def _is_prime(n: int) -> bool:
    """Miller-Rabin with ``proof_bases(n)``; a proof for n below the bound."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    return is_strong_probable_prime(n, proof_bases(n))


def proof_bases(n: int) -> tuple[int, ...]:
    """The shortest prefix of ``MR_BASES`` whose Miller-Rabin test proves n.

    That is ``MR_BASES[:t]`` for the least t with n < psi_t, so n must be
    below ``MR_DETERMINISTIC_BOUND``.
    """
    return MR_BASES[:bisect_right(MR_PSI, n) + 1]


def is_strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """True iff n is a strong probable prime to every base (Miller-Rabin).

    n must be odd and larger than every base.  This is the one strong test
    in qirank: ``qirank.primes`` calls it too.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mul(x: GaussPair, y: GaussPair) -> GaussPair:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x: GaussPair, y: GaussPair) -> GaussPair:
    return (x[0] + y[0], x[1] + y[1])


def _gauss_json(z: GaussPair) -> dict:
    return {"im": str(z[1]), "re": str(z[0])}


def _point_json(point: GaussPoint) -> dict:
    return {name: {"den": _gauss_json(den), "num": _gauss_json(num)}
            for name, (num, den) in zip("xy", point)}
