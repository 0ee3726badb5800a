"""Exact arithmetic in Z[i] and Q(i).

Everything here is integer-exact: no floats anywhere.  The two value types
are ``GaussInt`` (a + bi with arbitrary-precision integer parts) and
``GaussRat`` (a reduced fraction of two GaussInts, the coordinate field for
curve points).  All values are immutable and safe to share across threads.
Normal forms are read off the element, not searched for: ``odd_part``
strips the powers of 1+i in one pass, and the unit that makes an odd
element primary comes from its residue mod 4.

A Gaussian argument is a ``GaussInt``, here and in every other module; the
CLI parses each one at the boundary.  The arithmetic operators take one
operand type as well: ``GaussInt`` with ``GaussInt`` and ``GaussRat`` with
``GaussRat``.  A caller names its constants (``GaussInt(4, 0) * beta``) and
lifts a ``GaussInt`` into Q(i) with ``GaussRat(z, ONE)``.

``mod_pow``, ``gcd`` and ``exact_div`` work on pairs of ints and build a
``GaussInt`` only for their result; each remainder is the one nearest division
(ties to even) gives.  ``tests/oracles.py`` keeps that division and the
``GaussInt`` routes (``*_by_division``) the tests compare the three with.
``mod_pow`` takes only a modulus c + di of odd norm N with gcd(c, d) = 1,
every split prime among them: Z[i]/(c + di) is then Z/N (i -> -c/d mod N),
so it raises with one integer ``pow`` and reduces once.
"""

from __future__ import annotations

import math as _math
import re as _re
from dataclasses import dataclass

_GAUSS_FULL_RE = _re.compile(
    r"""^\s*(?P<re>[+-]?\s*\d+)\s*(?P<im>[+-]\s*\d*)\s*[iI]\s*$"""
)
_GAUSS_IMAG_RE = _re.compile(r"""^\s*(?P<im>[+-]?\s*\d*)\s*[iI]\s*$""")
_GAUSS_REAL_RE = _re.compile(r"""^\s*(?P<re>[+-]?\s*\d+)\s*$""")


@dataclass(frozen=True, slots=True)
class GaussInt:
    """A Gaussian integer re + im*i with exact integer parts."""

    re: int
    im: int

    @classmethod
    def parse(cls, text: str) -> "GaussInt":
        """Parse forms like ``3``, ``-i``, ``2i``, ``-1-6i`` (spaces allowed)."""
        m = _GAUSS_FULL_RE.match(text)
        if m:
            re_s = m.group("re").replace(" ", "")
            im_s = m.group("im").replace(" ", "")
            if im_s in ("+", "-"):
                im_s += "1"
            return cls(int(re_s), int(im_s))
        m = _GAUSS_IMAG_RE.match(text)
        if m:
            im_s = m.group("im").replace(" ", "")
            if im_s in ("", "+", "-"):
                im_s += "1"
            return cls(0, int(im_s))
        m = _GAUSS_REAL_RE.match(text)
        if m:
            return cls(int(m.group("re").replace(" ", "")), 0)
        raise ValueError(f"cannot parse Gaussian integer from {text!r}")

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im_s = "i"
        elif self.im == -1:
            im_s = "-i"
        else:
            im_s = f"{self.im}i"
        if self.re == 0:
            return im_s
        return f"{self.re}{im_s}" if im_s.startswith("-") else f"{self.re}+{im_s}"

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __mul__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __pow__(self, exponent: int) -> "GaussInt":
        if exponent < 0:
            raise ValueError("negative exponents are not defined in Z[i]")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        """re**2 + im**2; zero iff the element is zero, and multiplicative."""
        return self.re * self.re + self.im * self.im

    def is_odd(self) -> bool:
        """True iff not divisible by 1+i, i.e. re and im have opposite parity."""
        return (self.re + self.im) % 2 == 1

    def to_json(self) -> dict[str, str]:
        return {"im": str(self.im), "re": str(self.re)}


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
ONE_PLUS_I = GaussInt(1, 1)

# i**0 .. i**3
I_POWERS = (ONE, I, GaussInt(-1, 0), GaussInt(0, -1))


def _rem(x: int, y: int, c: int, d: int, nd: int) -> tuple[int, int]:
    """(x + yi) mod (c + di), nd = c^2 + d^2 > 0, as an int pair; 2 Nm(r) <= nd."""
    # the parts of (x + yi)(c - di)/nd round half to even: up iff 2r + (q & 1) > nd
    qr, rr = divmod(x * c + y * d, nd)
    qi, ri = divmod(y * c - x * d, nd)
    qr += 2 * rr + (qr & 1) > nd
    qi += 2 * ri + (qi & 1) > nd
    return x - qr * c + qi * d, y - qr * d - qi * c


def divides(d: GaussInt, a: GaussInt) -> bool:
    """True iff d | a in Z[i] (d != 0)."""
    nd = d.norm()
    if nd == 0:
        raise ZeroDivisionError("zero divides only zero")
    t = a * d.conj()
    return t.re % nd == 0 and t.im % nd == 0


def exact_div(a: GaussInt, d: GaussInt) -> GaussInt:
    """a/d on ints, raising if d does not divide a (oracle: exact_div_by_division)."""
    nd = d.norm()
    if nd == 0:
        raise ZeroDivisionError("division by zero in Z[i]")
    qr, rr = divmod(a.re * d.re + a.im * d.im, nd)
    qi, ri = divmod(a.im * d.re - a.re * d.im, nd)
    if rr or ri:
        raise ValueError(f"{a} is not divisible by {d}")
    return GaussInt(qr, qi)


def odd_part(alpha: GaussInt) -> tuple[int, GaussInt]:
    """(t, u) with alpha = (1+i)**t * u and u odd (alpha != 0)."""
    if not alpha:
        raise ValueError("odd_part is undefined at zero")
    t = 0
    re, im = alpha.re, alpha.im
    while (re + im) % 2 == 0:
        # division by 1+i: (re+im)/2 + ((im-re)/2) i
        re, im = (re + im) // 2, (im - re) // 2
        t += 1
    return t, GaussInt(re, im)


# s with alpha = i**s * (a primary element), keyed by the odd alpha's residue
# mod 4.  Primary means 1 mod (1+i)**3; mod 4 = -(1+i)**4 that is 1 or 3+2i.
_PRIMARY_UNIT = {
    ((u * r).re % 4, (u * r).im % 4): s
    for s, u in enumerate(I_POWERS)
    for r in (ONE, GaussInt(3, 2))
}


def is_primary(alpha: GaussInt) -> bool:
    """True iff alpha is congruent to 1 mod (1+i)**3."""
    return _PRIMARY_UNIT.get((alpha.re % 4, alpha.im % 4)) == 0


def primary_associate(alpha: GaussInt) -> tuple[GaussInt, int]:
    """Return (a_plus, s) with alpha = i**s * a_plus and a_plus primary.

    Exactly one of the four associates of an odd element is congruent to 1
    mod (1+i)**3, and s is read off alpha's residue mod 4; units normalize
    to (1, s).  Even input, zero included, is an error.
    """
    s = _PRIMARY_UNIT.get((alpha.re % 4, alpha.im % 4))
    if s is None:
        raise ValueError(f"{alpha} is divisible by 1+i; no primary associate exists")
    return alpha * I_POWERS[-s], s


def canonical_associate(alpha: GaussInt) -> GaussInt:
    """Unique associate of the form (1+i)**t * u with u primary (alpha != 0).

    Writing alpha = i**s (1+i)**t u with u odd, the unit is absorbed and the
    odd part replaced by its primary associate.  Serves as the normal form
    for gcd results.
    """
    t, u = odd_part(alpha)
    return ONE_PLUS_I ** t * primary_associate(u)[0]


def gcd(a: GaussInt, b: GaussInt) -> GaussInt:
    """A canonical-associate gcd by Euclid on int pairs (oracle: gcd_by_division)."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    x, y, c, d = a.re, a.im, b.re, b.im
    while c or d:
        x, y, (c, d) = c, d, _rem(x, y, c, d, c * c + d * d)
    return canonical_associate(GaussInt(x, y))


def mod_pow(base: GaussInt, exponent: int, modulus: GaussInt) -> GaussInt:
    """base**exponent modulo modulus on int pairs (oracle: mod_pow_by_division).

    The modulus m = c + di must have odd norm N and gcd(c, d) = 1, as every
    split prime has; any other modulus raises ValueError.  One integer
    ``pow``: a + bi -> a + b*r mod N, r = -c/d mod N, maps Z[i]/(m) onto Z/N,
    its kernel holding m with index N.  For odd N nearest division never
    ties, so the remainder depends only on the class.
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    if not modulus:
        raise ZeroDivisionError("zero modulus")
    c, d = modulus.re, modulus.im
    nd = modulus.norm()
    if not nd & 1 or _math.gcd(c, d) != 1:
        raise ValueError(f"{modulus} is not a modulus of odd norm with coprime parts")
    r = -c * pow(d, -1, nd)
    return GaussInt(*_rem(pow((base.re + base.im * r) % nd, exponent, nd), 0, c, d, nd))


@dataclass(frozen=True, slots=True)
class GaussRat:
    """An exact element of Q(i), stored as num/den in reduced canonical form.

    The denominator is normalized to canonical associate form
    ((1+i)**t times a primary odd part), which makes equality componentwise
    and serialization byte-stable.  Construct via ``GaussRat.of``; a
    ``GaussInt`` z is already reduced over ``ONE``, so ``GaussRat(z, ONE)``
    lifts it.
    """

    num: GaussInt
    den: GaussInt

    @classmethod
    def of(cls, num: GaussInt, den: GaussInt = ONE) -> "GaussRat":
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = gcd(num, den)
        n, d = exact_div(num, g), exact_div(den, g)
        # rotate by the unit that makes the denominator canonical
        _, s = primary_associate(odd_part(d)[1])
        w = I_POWERS[-s]
        return cls(n * w, d * w)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, o: "GaussRat") -> "GaussRat":
        return GaussRat.of(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "GaussRat") -> "GaussRat":
        return GaussRat.of(self.num * o.den - o.num * self.den, self.den * o.den)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.num, self.den)

    def __mul__(self, o: "GaussRat") -> "GaussRat":
        return GaussRat.of(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "GaussRat") -> "GaussRat":
        if not o:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat.of(self.num * o.den, self.den * o.num)

    def __pow__(self, exponent: int) -> "GaussRat":
        if exponent < 0:
            if not self:
                raise ZeroDivisionError("zero to a negative power")
            return GaussRat.of(self.den, self.num) ** (-exponent)
        return GaussRat.of(self.num ** exponent, self.den ** exponent)

    def to_json(self) -> dict[str, dict[str, str]]:
        return {"den": self.den.to_json(), "num": self.num.to_json()}


RAT_ZERO = GaussRat(ZERO, ONE)
