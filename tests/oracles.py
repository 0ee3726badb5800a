"""Slow reference implementations that the tests compare the package against.

None of these is on a path the package runs; each is either a brute-force
or second route to a value the package computes another way, an
enumeration only the tests need, or a map on E(Q(i)) that the package never
computes: the chord-tangent group law, [n]P, the isomorphisms
(x, y) -> (u^2 x, u^3 y) from E_a to E_(u^4 a) (for j = 1728 every
isomorphism has this form: Silverman, *The Arithmetic of Elliptic Curves*,
III.1), the 2-isogeny pair between E_a and E_(-4a) and the twist map.  The
maps are not a second route to a package value; the tests check their
identities (phi_dual . phi_forward = [2], [i] a group automorphism, ...)
and build points with them.
"""

from __future__ import annotations

from typing import Iterator, Union

from qirank import search
from qirank.certify import Certificate, FailureReport, certify
from qirank.curves import INFINITY, ORIGIN, CurvePoint
from qirank.gaussian import (
    GaussInt,
    GaussRat,
    ONE,
    ONE_PLUS_I,
    canonical_associate,
    divides,
)
from qirank.primes import (
    factor_primary,
    is_base2_probable_prime,
    is_gaussian_prime,
    rational_prime_sieve,
)
from qirank.residues import MNInvariant, euler_symbol, mn_invariants
from qirank.selmer import Candidate, F2Matrix
from qirank.verifier import (
    CERT_VERSION,
    MR_BASES,
    is_strong_probable_prime,
    parse_certificate,
)

_FOUR = GaussInt(4, 0)
_THREE_PLUS_2I = GaussInt(3, 2)
_ONE_PLUS_I_CUBED = ONE_PLUS_I ** 3  # -2 + 2i
_MODULUS_7 = ONE_PLUS_I ** 7  # 8 - 8i


def _round_half_even(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties to the even integer.  b > 0."""
    q, r = divmod(a, b)
    twice = 2 * r
    if twice > b or (twice == b and q % 2 == 1):
        q += 1
    return q


def divmod_nearest(n: GaussInt, d: GaussInt) -> tuple[GaussInt, GaussInt]:
    """Euclidean division n = q*d + r with norm(r) <= norm(d)/2.

    q is the exact quotient n/d with each coordinate rounded to the nearest
    integer, ties resolved to the even integer, so the result is fully
    deterministic.  The int-pair remainder behind ``gaussian.mod_pow`` and
    ``gaussian.gcd`` must equal this one, ties included.
    """
    nd = d.norm()
    if nd == 0:
        raise ZeroDivisionError("division by zero in Z[i]")
    t = n * d.conj()
    q = GaussInt(_round_half_even(t.re, nd), _round_half_even(t.im, nd))
    return q, n - q * d


def exact_div_by_division(a: GaussInt, d: GaussInt) -> GaussInt:
    """Quotient a/d as the quotient of nearest division; validates ``exact_div``."""
    q, r = divmod_nearest(a, d)
    if r:
        raise ValueError(f"{a} is not divisible by {d}")
    return q


def gcd_by_division(a: GaussInt, b: GaussInt) -> GaussInt:
    """Euclid on ``GaussInt`` values with ``divmod_nearest``; validates ``gcd``."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        _, r = divmod_nearest(a, b)
        a, b = b, r
    return canonical_associate(a)


def mod_pow_by_division(base: GaussInt, exponent: int, modulus: GaussInt) -> GaussInt:
    """base**exponent modulo modulus on ``GaussInt`` values; validates ``mod_pow``.

    Square and multiply, each product reduced by ``divmod_nearest``.
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    if not modulus:
        raise ZeroDivisionError("zero modulus")
    _, acc = divmod_nearest(ONE, modulus)
    _, b = divmod_nearest(base, modulus)
    e = exponent
    while e:
        if e & 1:
            _, acc = divmod_nearest(acc * b, modulus)
        _, b = divmod_nearest(b * b, modulus)
        e >>= 1
    return acc


def on_curve_by_rationals(alpha: GaussInt, point: CurvePoint) -> bool:
    """y^2 = x^3 + alpha*x evaluated in Q(i), every term a reduced ``GaussRat``.

    Validates ``curves.on_curve``, which cross-multiplies in Z[i] instead.
    """
    if point.is_infinity:
        return True
    return point.y * point.y == point.x ** 3 + point.x * GaussRat(alpha, ONE)


def is_prime_by_all_bases(n: int) -> bool:
    """Miller-Rabin with all 13 bases of ``MR_BASES``, whatever the size of n.

    A proof below ``MR_DETERMINISTIC_BOUND``; validates the shortest proving
    prefix that ``verifier._is_prime`` and ``primes.is_rational_prime`` run.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    return is_strong_probable_prime(n, MR_BASES)


def is_primary_by_division(alpha: GaussInt) -> bool:
    """The definition of primary: alpha = 1 mod (1+i)**3, tested by division.

    Validates the residue-mod-4 lookup behind ``is_primary`` and
    ``primary_associate``.
    """
    return divides(_ONE_PLUS_I_CUBED, alpha - ONE)


def brute_force_symbol(alpha: GaussInt, p: GaussInt) -> int:
    """(alpha / p) by enumerating all squares modulo p.

    Only sensible for small norm(p); validates euler_symbol.
    """
    if not is_gaussian_prime(p) or not p.is_odd():
        raise ValueError(f"{p} is not an odd Gaussian prime")
    if divides(p, alpha):
        raise ValueError(f"{p} divides {alpha}")
    n = p.norm()
    if p.re != 0 and p.im != 0:
        # split: Z[i]/(p) = F_n via i -> r with p.re + p.im * r = 0 mod n
        r = (-p.re * pow(p.im, -1, n)) % n
        squares = {x * x % n for x in range(1, n)}
        return 1 if (alpha.re + alpha.im * r) % n in squares else -1
    # inert: field with q0**2 elements, residues a + bi with 0 <= a, b < q0
    q0 = abs(p.re or p.im)
    squares = set()
    for x in range(q0):
        for y in range(q0):
            if x == 0 and y == 0:
                continue
            sq = GaussInt(x, y) * GaussInt(x, y)
            squares.add((sq.re % q0, sq.im % q0))
    return 1 if (alpha.re % q0, alpha.im % q0) in squares else -1


def mn_invariants_by_search(alpha: GaussInt) -> MNInvariant:
    """(m, n) by trying all 16 products (1-4i)^m (-1-6i)^n modulo (1+i)^7.

    Validates the residue table of ``mn_invariants``; the group of primary
    classes mod (1+i)^7 has order 16, so exactly one product must match.
    """
    if not alpha or not alpha.is_odd() or not is_primary_by_division(alpha):
        raise ValueError(f"{alpha} is not primary")
    hits = [
        MNInvariant(m, n)
        for m in range(4)
        for n in range(4)
        if divides(_MODULUS_7, alpha - GaussInt(1, -4) ** m * GaussInt(-1, -6) ** n)
    ]
    if len(hits) != 1:
        raise AssertionError(f"{len(hits)} pairs (m, n) match {alpha}")
    return hits[0]


def mn_sum(x: MNInvariant, y: MNInvariant) -> MNInvariant:
    """The sum in (Z/4)^2: the invariants of a product, if (m, n) is additive."""
    return MNInvariant((x.m + y.m) % 4, (x.n + y.n) % 4)


def build_L_by_all_symbols(primes) -> F2Matrix:
    """The symbol matrix with the symbol of every ordered pair computed.

    n(n-1) symbols where ``build_L`` computes one per unordered pair and
    relies on reciprocity for the other.
    """
    ps = list(primes)
    rows = []
    for i, p in enumerate(ps):
        mask = sum(
            1 << j for j, q in enumerate(ps) if j != i and euler_symbol(p, q) == -1
        )
        if bin(mask).count("1") & 1:
            mask |= 1 << i
        rows.append(mask)
    return F2Matrix(tuple(rows), len(ps))


def symbol_i(p: GaussInt) -> int:
    """(i / p) = (-1)**n_p for a primary prime p, via the class invariants."""
    return -1 if mn_invariants(_require_prime(p)).n % 2 else 1


def symbol_one_plus_i(p: GaussInt) -> int:
    """(1+i / p) = (-1)**m_p for a primary prime p, via the class invariants."""
    return -1 if mn_invariants(_require_prime(p)).m % 2 else 1


def _require_prime(p: GaussInt) -> GaussInt:
    # mn_invariants rejects a prime that is not primary
    if not is_gaussian_prime(p):
        raise ValueError(f"{p} is not a Gaussian prime")
    return p


def mod4_consistency(alpha: GaussInt) -> bool:
    """Check alpha = (3+2i)**n_bar mod 4 for primary alpha."""
    inv = mn_invariants(alpha)
    return divides(_FOUR, alpha - _THREE_PLUS_2I ** inv.n_bar)


def primes_in_box(
    re_range: tuple[int, int], im_range: tuple[int, int]
) -> Iterator[GaussInt]:
    """Every Gaussian prime in the inclusive box, in (re, im) lexicographic order."""
    for a in range(re_range[0], re_range[1] + 1):
        for b in range(im_range[0], im_range[1] + 1):
            alpha = GaussInt(a, b)
            if is_gaussian_prime(alpha):
                yield alpha


def density_by_point(box: search.Box) -> search.DensityStats:
    """The census of ``prime_density_stats``, one lattice point at a time."""
    max_re = max(abs(box.re_min), abs(box.re_max), 1)
    max_im = max(abs(box.im_min), abs(box.im_max), 1)
    limit = max_re * max_re + max_im * max_im
    sieve = rational_prime_sieve(limit)
    counts: dict[tuple[int, int], int] = {}
    total = 0
    for a in range(box.re_min, box.re_max + 1):
        aa = a * a
        for b in range(box.im_min, box.im_max + 1):
            n = aa + b * b
            if n < 2:
                continue
            if sieve[n]:
                prime = True
            elif (a == 0 or b == 0) and abs(a or b) % 4 == 3 and sieve[abs(a or b)]:
                prime = True
            else:
                prime = False
            if not prime:
                continue
            total += 1
            if n % 2 == 1:  # odd primes lie in invertible classes mod 16
                key = (a % 16, b % 16)
                counts[key] = counts.get(key, 0) + 1
    return search.DensityStats(
        total_primes=total,
        class_counts=counts,
        target_class=(search.TARGET_CLASS.re % 16, search.TARGET_CLASS.im % 16),
    )


def primary_primes_up_to_norm(bound: int) -> list[GaussInt]:
    """All primary Gaussian primes of norm < bound, sorted by (norm, re, im)."""
    r = 1
    while r * r < bound:
        r += 1
    found = [
        p for p in primes_in_box((-r, r), (-r, r))
        if p.norm() < bound and p.is_odd() and is_primary_by_division(p)
    ]
    found.sort(key=lambda p: (p.norm(), p.re, p.im))
    return found


def is_square(alpha: GaussInt) -> bool:
    """True iff alpha is a perfect square in Z[i] (zero counts)."""
    if not alpha:
        return True
    f = factor_primary(alpha)
    return f.s % 2 == 0 and f.t % 2 == 0 and all(e % 2 == 0 for _, e in f.factors)


def family_point(beta: GaussInt, k: int) -> CurvePoint:
    """(4 b^2 k^2, 2i b k (b^4 - 4k^4)), always on y^2 = x^3 - (b^4+4k^4)^2 x.

    A second route to the point that ``certify`` builds from the b^2, b^4
    and 4k^4 it shares with gamma.
    """
    x = GaussInt(4 * k * k, 0) * beta * beta
    y = GaussInt(0, 2 * k) * beta * (beta ** 4 - GaussInt(4 * k ** 4, 0))
    return CurvePoint.affine(x, y)


def genuine_witness(beta: GaussInt, k: int) -> int:
    """Im(gamma^2) for gamma = beta^4 + 4k^4: nonzero on every genuine curve.

    A second route to the witness that ``certify`` reads off the gamma^2 it
    has already computed.  Nonzero is necessary, not sufficient: the class
    argument is in the ``qirank.certify`` docstring, and ``is_base_change``
    decides the question.
    """
    gamma = beta ** 4 + GaussInt(4 * k ** 4, 0)
    return (gamma * gamma).im


def is_base_change(gamma: GaussInt) -> bool:
    """Whether y^2 = x^3 - gamma^2 x over Q(i) is a base change from Q.

    Twists of j = 1728 are classified by Q(i)*/Q(i)*^4, so it is one iff
    gamma lies in (Q* u iQ*) Q(i)*^2: iff 1+i divides gamma to an even power
    and the primary primes dividing it to an odd power are closed under
    conjugation (a rational prime is inert, or the product of conjugates).
    """
    f = factor_primary(gamma)
    odd = {p for p, e in f.factors if e % 2}
    return f.t % 2 == 0 and {p.conj() for p in odd} == odd


_THREE = GaussRat(GaussInt(3, 0), ONE)  # add: the tangent slope (3x^2 + a)/(2y)
_HALF = GaussRat.of(ONE, GaussInt(2, 0))  # phi_dual: E_(16 alpha) -> E_alpha
_TWIST_U = GaussRat.of(ONE, ONE_PLUS_I)  # twist_iso: u^4 = -1/4


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


_IOTA_X = GaussRat.of(ONE_PLUS_I * ONE_PLUS_I)   # (1+i)^2
_IOTA_Y = GaussRat.of(ONE_PLUS_I ** 3)           # (1+i)^3


def twist_iso_inv(alpha: GaussInt, point: CurvePoint) -> CurvePoint:
    """Inverse of twist_iso: E_alpha -> E_(-4 alpha)."""
    if point.is_infinity:
        return point
    return CurvePoint(point.x * _IOTA_X, point.y * _IOTA_Y)


def constellation_primes_by_offsets(beta: GaussInt, k: int) -> tuple[GaussInt, ...]:
    """The four values beta + i^j k (1+i), j = 1..4, by Z[i] products with
    the offsets i^j (1+i)."""
    return tuple(beta + off * GaussInt(k, 0) for off in search.OFFSETS)


def residue_prefilter(beta: GaussInt, k: int) -> bool:
    """The residue test the search kernel steps through, on one pair.

    Reads the kernel's own class constants, so a test that proves this equal
    to the four mod-16 congruences proves those constants.
    """
    if k % 8 != 0 or k == 0:
        return False
    cls = search._BETA_CLASS_K0 if k % 16 == 0 else search._BETA_CLASS_K8
    return (beta.re % 16, beta.im % 16) == cls


def scan_pairs(classes: list[tuple[range, range, range]]) -> Iterator[tuple[int, int, int]]:
    """The pair loop: yields each pair (a, b, k) whose four norms pass the stage.

    A pair needs the norms of its four values, (a -+ k)^2 + (b +- k)^2 in
    j-order, to pass the first primality stage, ``is_base2_probable_prime``
    (exact for values in the target class, see the ``qirank.search`` docstring),
    tested on plain ints with the first failure ending the pair.  k is the
    outer loop, so the im-parts (b +- k)^2 are computed once per k.  Its
    memory does not grow with the region.  The search's sieve along k must
    yield exactly its pairs, and the join exactly the pairs of its hits.
    """
    stage = is_base2_probable_prime
    for res, ims, ks in classes:
        for k in ks:
            if k == 0:
                continue
            columns = [(b, (b + k) * (b + k), (b - k) * (b - k)) for b in ims]
            for a in res:
                am2 = (a - k) * (a - k)
                ap2 = (a + k) * (a + k)
                for b, bp2, bm2 in columns:
                    if (stage(am2 + bp2) and stage(am2 + bm2)
                            and stage(ap2 + bm2) and stage(ap2 + bp2)):
                        yield a, b, k


def f2_apply(matrix: F2Matrix, v: int) -> int:
    """The product M v over F2, as masks: bit j of v is column j, bit i of M v row i."""
    if v >> matrix.ncols:
        raise ValueError("dimension mismatch")
    return sum((bin(r & v).count("1") & 1) << i for i, r in enumerate(matrix.rows))


def class_mask(divisor_class: Candidate, n: int) -> int:
    """A candidate class ``(unit, indices)`` as a bitmask in F2^(n+1).

    Bit n is the unit i, bit j-1 marks p_j.
    """
    unit, indices = divisor_class
    mask = sum(1 << (j - 1) for j in indices)
    return mask | ((unit == "i") << n)


def is_f2_subgroup(masks) -> bool:
    """True iff the set of F2 bitmask vectors contains 0 and is closed under XOR."""
    group = set(masks)
    return 0 in group and all(a ^ b in group for a in group for b in group)


def verify_by_recertify(data: Union[str, bytes, Certificate]) -> bool:
    """Check a certificate by running ``certify`` on its (beta, k) again.

    The route ``verify_certificate`` took before the stand-alone verifier:
    compare the recomputed JSON with the given one, ignoring ``toolchain``.
    """
    obj = parse_certificate(data.to_json_bytes() if isinstance(data, Certificate) else data)
    if obj.get("version") != CERT_VERSION:
        return False
    try:
        beta = GaussInt(int(obj["beta"]["re"]), int(obj["beta"]["im"]))
        k = int(obj["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    recomputed = certify(beta, k)
    if isinstance(recomputed, FailureReport):
        return False
    expected = parse_certificate(recomputed.to_json_bytes())
    expected.pop("toolchain")
    given = {key: value for key, value in obj.items() if key != "toolchain"}
    return given == expected
