"""Checks of qirank's outputs that do not use qirank's own code.

Primality comes from ``sympy.isprime``; Gaussian arithmetic is done on
plain ``(re, im)`` tuples.  Digests fix the exact hit order and the exact
certificate bytes, which the project treats as its output contract.
"""

from __future__ import annotations

import hashlib
import json

from sympy import isprime

TARGET = (-1, -6)
# i^j (1+i) for j = 1..4
OFFSETS = ((-1, 1), (-1, -1), (1, -1), (1, 1))


def gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def constellation(a: int, b: int, k: int) -> list[tuple[int, int]]:
    return [(a + k * u, b + k * v) for u, v in OFFSETS]


def in_target_class(p: tuple[int, int]) -> bool:
    return (p[0] - TARGET[0]) % 16 == 0 and (p[1] - TARGET[1]) % 16 == 0


def is_gaussian_prime(p: tuple[int, int]) -> bool:
    re, im = p
    if re and im:
        return isprime(re * re + im * im)
    q = abs(re or im)
    return q % 4 == 3 and isprime(q)


def hit_problems(row: list) -> list[str]:
    """Why a reported hit ``[a, b, k, [[re, im] x 4]]`` is wrong; empty if it is right."""
    a, b, k, primes = row
    expected = constellation(a, b, k)
    if [tuple(p) for p in primes] != expected:
        return [f"primes of ({a},{b},{k}) are not beta + i^j k(1+i)"]
    problems = []
    if k == 0 or len(set(expected)) != 4:
        problems.append(f"({a},{b},{k}): values not distinct")
    for j, p in enumerate(expected, start=1):
        if not in_target_class(p):
            problems.append(f"({a},{b},{k}): p_{j} = {p} not = -1-6i mod 16")
        elif not is_gaussian_prime(p):
            problems.append(f"({a},{b},{k}): p_{j} = {p} not a Gaussian prime")
    product = (1, 0)
    for p in expected:
        product = gmul(product, p)
    b2 = gmul((a, b), (a, b))
    b4 = gmul(b2, b2)
    if product != (b4[0] + 4 * k ** 4, b4[1]):
        problems.append(f"({a},{b},{k}): product identity fails")
    return problems


def certificate_problems(text: str | None, row: list) -> list[str]:
    """Why a certificate does not belong to the hit ``row``; empty if it does."""
    a, b, k, primes = row
    if text is None:
        return [f"({a},{b},{k}): certify returned a failure report"]
    obj = json.loads(text)
    if obj.get("beta") != {"re": str(a), "im": str(b)} or obj.get("k") != str(k):
        return [f"({a},{b},{k}): certificate names another (beta, k)"]
    if obj.get("primes") != [{"re": str(p[0]), "im": str(p[1])} for p in primes]:
        return [f"({a},{b},{k}): certificate lists other primes"]
    return []


def hits_sha256(rows: list) -> str:
    h = hashlib.sha256()
    for a, b, k, _ in rows:
        h.update(f"{a},{b},{k}\n".encode("ascii"))
    return h.hexdigest()


def certs_sha256(texts: list) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update((text or "").encode("ascii"))
    return h.hexdigest()


def census_sha256(census: dict) -> str:
    return hashlib.sha256(
        json.dumps(census, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()


def census_problems(census: dict, box: list[int]) -> list[str]:
    """Consistency of a census: odd primes by class plus the (1+i) associates."""
    re_min, re_max, im_min, im_max = box
    ramified = sum(1 for u in (-1, 1) for v in (-1, 1)
                   if re_min <= u <= re_max and im_min <= v <= im_max)
    by_class = sum(n for _, _, n in census["class_counts"])
    if census["total_primes"] != by_class + ramified:
        return ["census total is not the class counts plus the (1+i) associates"]
    if any(re % 2 == im % 2 for re, im, _ in census["class_counts"]):
        return ["census counts an odd prime in an even class"]
    return []
