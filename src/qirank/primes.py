"""Gaussian prime testing, factorization into primary primes, a prime sieve
over an arithmetic progression.

Rational primality comes in two stages.  ``is_base2_probable_prime`` is the
cheap one: trial division by the primes up to 97, as one gcd, then one
strong base-2 test.  It never rejects a prime, so a filter built on it is
exact, but a strong base-2 pseudoprime with no factor up to 97 passes it.
``is_rational_prime`` is the answer: it runs the stage, then the rest of
``verifier.proof_bases(n)``, the shortest prefix of the 13 fixed bases that
proves n (n below psi_t, the least strong pseudoprime to the first t prime
bases: Jaeschke 1993, Sorenson & Webster 2017).  Every norm of box = k =
256, at most 2 * 512^2, is below psi_2 = 1 373 653, so there base 3 is the
only one after the stage.  Both stages call
``verifier.is_strong_probable_prime``, the one Miller-Rabin routine, so no
base runs twice for a number.

Rational integer factorization is delegated to sympy; everything Gaussian
(splitting, primary normalization, ordering) is done here exactly.
``factor_primary`` refuses norms from ``MR_DETERMINISTIC_BOUND`` (~3.3e24) up,
which bounds sympy's work: below it the hardest norms, products of two
13-digit primes, took at most 1.3 s on a 2-vCPU machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from sympy import factorint

from .gaussian import (
    GaussInt,
    I_POWERS,
    ONE_PLUS_I,
    divides,
    exact_div,
    gcd,
    odd_part,
)
from .verifier import MR_BASES, MR_DETERMINISTIC_BOUND, is_strong_probable_prime, proof_bases

# Miller-Rabin with a prefix of MR_BASES is deterministic below
# MR_DETERMINISTIC_BOUND (about 3.3e24), which covers the desk-scale norms
# this toolkit targets.  Above it all of MR_BASES runs, with extra bases:
# probabilistic with error < 4**-28 per composite.
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
                   107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
                   173, 179)

_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                           47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# a number with no prime factor up to 97 is prime below 101^2
_TRIAL_BOUND = 101 * 101


def is_base2_probable_prime(n: int) -> bool:
    """First primality stage: trial division up to 97, then a strong base-2 test.

    True for every prime.  False proves n composite (or below 2); True
    proves n prime only below 101^2.  ``is_rational_prime`` runs it first,
    and the search's sieve along k runs it on the k that its strikes leave.
    It keeps no cache, so its memory does not grow with the values tested.
    """
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < _TRIAL_BOUND:
        return n > 1
    return is_strong_probable_prime(n, (2,))


@lru_cache(maxsize=1 << 12)
def is_rational_prime(n: int) -> bool:
    """Primality of a rational integer.

    Deterministic below ~3.3e24, with the bases of ``proof_bases(n)``;
    strong probabilistic with error below 4**-28 above that.  Base 2 and
    trial division come from ``is_base2_probable_prime``.
    """
    if not is_base2_probable_prime(n):
        return False
    if n < _TRIAL_BOUND:
        return True
    if n < MR_DETERMINISTIC_BOUND:
        bases = proof_bases(n)[1:]  # the first base is 2, which the stage has run
    else:
        bases = MR_BASES[1:] + _MR_EXTRA_BASES
    return is_strong_probable_prime(n, bases)


def is_gaussian_prime(alpha: GaussInt) -> bool:
    """True iff alpha is prime in Z[i].

    Split and ramified primes have rational prime norm; inert primes are the
    associates of rational primes q = 3 mod 4.
    """
    n = alpha.norm()
    if n < 2:
        return False
    if is_rational_prime(n):
        return True
    if alpha.re != 0 and alpha.im != 0:
        return False
    q = abs(alpha.re or alpha.im)
    return q % 4 == 3 and is_rational_prime(q)


@dataclass(frozen=True, slots=True)
class PrimaryFactorization:
    """alpha = i**s * (1+i)**t * prod(p**e) with primary primes p.

    Factors are pairwise non-associate and ordered by (norm, re, im).
    """

    s: int
    t: int
    factors: tuple[tuple[GaussInt, int], ...]

    def value(self) -> GaussInt:
        acc = I_POWERS[self.s % 4] * ONE_PLUS_I ** self.t
        for p, e in self.factors:
            acc = acc * p ** e
        return acc

    def is_square_free(self) -> bool:
        return self.t <= 1 and all(e == 1 for _, e in self.factors)


def sqrt_minus_one_mod(p: int) -> int:
    """Smallest-witness square root of -1 modulo a prime p = 1 mod 4."""
    if p % 4 != 1:
        raise ValueError(f"{p} is not 1 mod 4")
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)  # its square is a^((p-1)/2) = -1
    raise AssertionError(f"no quadratic non-residue found mod {p}")


def prime_above(p: int) -> GaussInt:
    """A primary Gaussian prime above the split rational prime p = 1 mod 4.

    gcd(p, x + i) with x^2 = -1 mod p is a prime of norm p; it is odd, so its
    canonical associate is the primary one.
    """
    return gcd(GaussInt(p, 0), GaussInt(sqrt_minus_one_mod(p), 1))


def factor_primary(alpha: GaussInt) -> PrimaryFactorization:
    """Primary factorization of a nonzero alpha with norm below ``MR_DETERMINISTIC_BOUND``."""
    if not alpha:
        raise ValueError("cannot factor zero")
    if alpha.norm() >= MR_DETERMINISTIC_BOUND:
        raise ValueError(f"the norm of {alpha} must be below {MR_DETERMINISTIC_BOUND} "
                         f"to be factored")
    t, u = odd_part(alpha)
    factors: list[tuple[GaussInt, int]] = []
    for p, e in sorted(factorint(u.norm()).items()):
        if p % 4 == 3:
            # inert: the primary associate of q is -q, of norm q**2, so e is even
            factors.append((GaussInt(-p, 0), e // 2))
            u = exact_div(u, GaussInt(-p, 0) ** (e // 2))
        else:
            pi = prime_above(p)
            for q in (pi, pi.conj()):  # conjugation fixes 1 and 3+2i mod 4
                mult = 0
                while divides(q, u):
                    u = exact_div(u, q)
                    mult += 1
                if mult:
                    factors.append((q, mult))
    s = I_POWERS.index(u)
    factors.sort(key=lambda fe: (fe[0].norm(), fe[0].re, fe[0].im))
    return PrimaryFactorization(s=s, t=t, factors=tuple(factors))


def rational_prime_sieve(limit: int, start: int = 0, step: int = 1) -> bytearray:
    """Flags for start, start + step, ... up to limit: sieve[i] == 1 iff
    start + i * step is prime.

    start must be coprime to step, so that no prime dividing step divides a
    value.  The census sieves with step 2 on the odd norms, and the search's
    join with step 32 on the norms = 5 mod 32, the only ones its values
    have; the census's axis flags use step 1.  The primes up to
    isqrt(limit) that strike the range come from a sieve of their own, so
    the memory is that of the range plus its square root.
    """
    sieve = bytearray([1]) * len(range(start, limit + 1, step))
    for n in range(start, min(2, limit + 1), step):
        sieve[(n - start) // step] = 0
    root = math.isqrt(limit)
    small = rational_prime_sieve(root) if root > 1 else b""
    for p in range(2, root + 1):
        if small[p] and step % p:
            # the least i with start + i * step >= max(p^2, start), and the
            # i = -start / step mod p whose values p divides
            least = -(-(max(p * p, start) - start) // step)
            first = least + (-start * pow(step, -1, p) - least) % p
            sieve[first::p] = bytearray(len(range(first, len(sieve), p)))
    return sieve
