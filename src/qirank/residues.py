"""Quadratic residue symbols over Z[i] and the mod-(1+i)^7 class invariants.

A primary element is uniquely (1-4i)**m * (-1-6i)**n modulo (1+i)^7 with
(m, n) in (Z/4)^2; the pair determines the residue symbols of i and 1+i
without any exponentiation.  The Euler-criterion symbol is the independent
second route and the two are cross-checked in the test suite, which also
holds the brute-force symbol oracle (squares enumerated modulo p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import (
    GaussInt,
    GaussLike,
    ONE,
    ONE_PLUS_I,
    _coerce,
    divides,
    is_primary,
    mod_pow,
    norm,
)
from .primes import is_gaussian_prime

_GEN_M = GaussInt(1, -4)
_GEN_N = GaussInt(-1, -6)
_MODULUS_7 = ONE_PLUS_I ** 7  # 8 - 8i

# all 16 products (1-4i)^m (-1-6i)^n, indexed [m][n]
_MN_TABLE = tuple(
    tuple(_GEN_M ** m * _GEN_N ** n for n in range(4)) for m in range(4)
)


@dataclass(frozen=True, slots=True)
class MNInvariant:
    """Exponents (m, n) in (Z/4)^2 of a primary element."""

    m: int
    n: int

    @property
    def n_bar(self) -> int:
        return self.n % 2

    def __add__(self, other: "MNInvariant") -> "MNInvariant":
        return MNInvariant((self.m + other.m) % 4, (self.n + other.n) % 4)


def mn_invariants(alpha: GaussLike) -> MNInvariant:
    """The unique (m, n) with alpha = (1-4i)^m (-1-6i)^n mod (1+i)^7.

    Exhaustive search over the 16 candidate pairs; the group of primary
    classes mod (1+i)^7 has order exactly 16, so exactly one pair matches.
    """
    a = _coerce(alpha)
    if not a or not a.is_odd() or not is_primary(a):
        raise ValueError(f"{alpha} is not primary")
    hit = None
    for m in range(4):
        for n in range(4):
            if divides(_MODULUS_7, a - _MN_TABLE[m][n]):
                if hit is not None:
                    raise AssertionError(f"non-unique (m, n) for {a}")
                hit = MNInvariant(m, n)
    if hit is None:
        raise AssertionError(f"no (m, n) found for primary {a}")
    return hit


def euler_symbol(alpha: GaussLike, p: GaussLike) -> int:
    """Gaussian quadratic residue symbol (alpha / p) in {+1, -1}.

    Euler criterion: alpha**((Nm(p)-1)/2) mod p, for an odd Gaussian prime p
    not dividing alpha.
    """
    a, q = _coerce(alpha), _coerce(p)
    if not is_gaussian_prime(q):
        raise ValueError(f"{p} is not a Gaussian prime")
    if not q.is_odd():
        raise ValueError(f"{p} is even (the symbol needs an odd prime)")
    if divides(q, a):
        raise ValueError(f"{p} divides {alpha}")
    r = mod_pow(a, (norm(q) - 1) // 2, q)
    if r == ONE:
        return 1
    if r == -ONE:
        return -1
    raise AssertionError(f"Euler criterion gave non-unit {r} mod {p}")


def symbol_i(p: GaussLike) -> int:
    """(i / p) = (-1)**n_p for a primary prime p, via the class invariants."""
    q = _require_primary_prime(p)
    return -1 if mn_invariants(q).n % 2 else 1


def symbol_one_plus_i(p: GaussLike) -> int:
    """(1+i / p) = (-1)**m_p for a primary prime p, via the class invariants."""
    q = _require_primary_prime(p)
    return -1 if mn_invariants(q).m % 2 else 1


def _require_primary_prime(p: GaussLike) -> GaussInt:
    q = _coerce(p)
    if not is_gaussian_prime(q):
        raise ValueError(f"{p} is not a Gaussian prime")
    if not q.is_odd() or not is_primary(q):
        raise ValueError(f"{p} is not primary")
    return q

