"""Quadratic residue symbols over Z[i] and the mod-(1+i)^7 class invariants.

A primary element is uniquely (1-4i)**m * (-1-6i)**n modulo (1+i)^7 with
(m, n) in (Z/4)^2.  Since 16 is divisible by (1+i)^7 = 8-8i, the pair is
read off the residue mod 16 in a 32-entry table.  The pair determines the
residue symbols of i and 1+i without any exponentiation; the test suite
reads them off it and cross-checks them against the Euler-criterion symbol
here.  Its oracles also hold the brute-force symbol and the search for
(m, n) over all 16 products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GaussInt, ONE, mod_pow

_GEN_M = GaussInt(1, -4)
_GEN_N = GaussInt(-1, -6)


@dataclass(frozen=True, slots=True)
class MNInvariant:
    """Exponents (m, n) in (Z/4)^2 of a primary element."""

    m: int
    n: int

    @property
    def n_bar(self) -> int:
        return self.n % 2


# (re mod 16, im mod 16) -> (m, n): each class mod (1+i)^7 = 8-8i has the
# two residues g and g + 8+8i mod 16, so the 16 products give 32 keys, which
# are exactly the primary residues mod 16
_MN_BY_RESIDUE = {
    ((g.re + d) % 16, (g.im + d) % 16): MNInvariant(m, n)
    for m in range(4)
    for n in range(4)
    for g in (_GEN_M ** m * _GEN_N ** n,)
    for d in (0, 8)
}


def mn_invariants(alpha: GaussInt) -> MNInvariant:
    """The unique (m, n) with alpha = (1-4i)^m (-1-6i)^n mod (1+i)^7.

    A lookup on alpha mod 16; a residue outside the table is not primary.
    """
    try:
        return _MN_BY_RESIDUE[alpha.re % 16, alpha.im % 16]
    except KeyError:
        raise ValueError(f"{alpha} is not primary") from None


def euler_symbol(alpha: GaussInt, p: GaussInt) -> int:
    """Gaussian quadratic residue symbol (alpha / p) in {+1, -1}.

    Euler criterion: alpha**((Nm(p)-1)/2) mod p, for an odd Gaussian prime p
    not dividing alpha.  That p is an odd prime is taken as given (the CLI
    ``symbol`` command checks it); for a composite p the value means nothing.
    A split p goes through ``mod_pow``, and the power itself detects p | alpha:
    the exponent is at least 2, so the power is 0 mod p exactly when p
    divides alpha, and a zero result raises ValueError without a separate
    divisibility test.  An inert p is an associate of a rational prime
    q = 3 mod 4, and Frobenius gives alpha**q = conj(alpha) mod q, so
    alpha**((q^2-1)/2) = (alpha * conj(alpha))**((q-1)/2) =
    Nm(alpha)**((q-1)/2) mod q: the symbol is the Legendre symbol of
    Nm(alpha) mod q (Ireland & Rosen, ch. 9), and q | alpha iff q | Nm(alpha).
    """
    if p.re == 0 or p.im == 0:
        q = abs(p.re or p.im)
        n = alpha.norm() % q
        if not n:
            raise ValueError(f"{p} divides {alpha}")
        return 1 if pow(n, (q - 1) // 2, q) == 1 else -1
    r = mod_pow(alpha, (p.norm() - 1) // 2, p)
    if r == ONE:
        return 1
    if r == -ONE:
        return -1
    if not r:
        raise ValueError(f"{p} divides {alpha}")
    raise AssertionError(f"Euler criterion gave non-unit {r} mod {p}")
