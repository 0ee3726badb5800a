"""F2 linear algebra and the Selmer-group candidate-set computation.

Every F2 vector is an int bitmask with bit j for column j, and an
``F2Matrix`` holds one such mask per row.  Matrices enter and leave as row
strings like ``"1001"`` (character j is column j), the form the certificate
and the CLI print.

The descent input is a nonempty list of distinct primary Gaussian primes,
taken as given: ``certify`` passes primes that ``constellation_at`` proved,
and the CLI ``selmer`` command checks its own.  From their pairwise residue
symbols we build the symbol matrix L (rows sum to zero by construction; by
quadratic reciprocity it is symmetric, so each unordered pair costs one
symbol).  A class u * prod_{j in T} p_j with u in {1, i} is a candidate
when L 1_T = u n_bar, a condition linear in (1_T, u), so the candidates are
one subspace: the kernel of [L | n_bar], with bit n the unit.  The candidate
conditions depend only on the primes.  The dimension of that kernel feeds
the rank bound 2*dim - 2.  A class is the pair ``(unit, indices)``, unit
``"1"`` or ``"i"`` and indices the 1-based positions of the primes in T: the
form of ``verifier.SELMER_CANDIDATES`` and of the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .gaussian import GaussInt
from .residues import euler_symbol, mn_invariants

# a divisor class modulo squares: (unit "1" or "i", 1-based prime indices)
Candidate = tuple[str, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class F2Matrix:
    """Dense matrix over F2; each row is an int bitmask, bit j = column j."""

    rows: tuple[int, ...]
    ncols: int

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "F2Matrix":
        """The matrix of row strings such as ``"1001"``; character j is column j."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols or not set(r) <= {"0", "1"} for r in rows):
            raise ValueError("rows must be strings of 0 and 1 of equal length")
        return cls(
            tuple(sum(1 << j for j, c in enumerate(r) if c == "1") for r in rows),
            ncols,
        )

    def row_strings(self) -> list[str]:
        return ["".join(str((r >> j) & 1) for j in range(self.ncols)) for r in self.rows]


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = list(rows)
    pivots: list[int] = []
    row_idx = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(row_idx, len(work)) if (work[r] >> col) & 1), None
        )
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and (work[r] >> col) & 1:
                work[r] ^= work[row_idx]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    return work[:row_idx], pivots


def f2_kernel(matrix: F2Matrix) -> list[int]:
    """A basis of the null space of the matrix, one mask per free column."""
    reduced, pivots = _rref(list(matrix.rows), matrix.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.ncols):
        if free in pivot_set:
            continue
        mask = 1 << free
        for row, pcol in zip(reduced, pivots):
            if (row >> free) & 1:
                mask |= 1 << pcol
        basis.append(mask)
    return basis


def _span(basis: Sequence[int]) -> list[int]:
    """Every F2 combination of the basis: 2**len(basis) masks."""
    masks = [0]
    for b in basis:
        masks += [m ^ b for m in masks]
    return masks


def build_L(primes: Sequence[GaussInt]) -> F2Matrix:
    """The symbol matrix of distinct primary primes, taken as given.

    Off-diagonal entry (i, j) is 1 exactly when (p_i / p_j) = -1; the
    diagonal is the sum of the rest of the row, so L applied to the all-ones
    vector is zero.
    """
    n = len(primes)
    rows = [0] * n
    # quadratic reciprocity in Z[i]: (p / q) = (q / p) for distinct primary
    # primes (Lemmermeyer, Reciprocity Laws, 2000), so L is symmetric and one
    # symbol per pair sets both entries
    for i in range(n):
        for j in range(i + 1, n):
            if euler_symbol(primes[i], primes[j]) == -1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    for i in range(n):
        if bin(rows[i]).count("1") & 1:
            rows[i] |= 1 << i
    return F2Matrix(tuple(rows), n)


@dataclass(frozen=True, slots=True)
class SelmerReport:
    """Everything the descent produces for one curve coefficient."""

    primes: tuple[GaussInt, ...]
    matrix: F2Matrix
    nbar: tuple[int, ...]
    candidates: tuple[Candidate, ...]
    dim: int
    rank_upper: int


def rank_upper_bound(dim: int) -> int:
    """Mordell-Weil rank bound 2*dim - 2 from the Selmer F2-dimension."""
    if dim < 1:
        raise ValueError("dim must be at least 1 (the identity class is present)")
    return 2 * dim - 2


@lru_cache(maxsize=8)
def candidate_classes(matrix: F2Matrix, nbar: int) -> tuple[tuple[Candidate, ...], int]:
    """The candidate classes of L and the n_bar mask, sorted, and their F2 dimension.

    A subset T with unit u is a candidate when L 1_T = u n_bar, that is when
    1_T, plus bit n when u = i, lies in the kernel of [L | n_bar] (n_bar as
    column n).  The unit is the highest bit, so sorting the span's masks
    sorts by (unit, subset); the dimension is the length of the kernel basis.

    The result depends only on (matrix, nbar), both hashable and immutable,
    and is memoized.  Every constellation gives one of two inputs (the two
    ``verifier.CONSTELLATION_ROWS`` with n_bar all ones), so ``certify``
    computes two kernels per process.  The memo holds 8 entries at most,
    since one entry can hold up to 2**21 classes.
    """
    n = matrix.ncols
    augmented = F2Matrix(
        tuple(row | ((nbar >> r) & 1) << n for r, row in enumerate(matrix.rows)),
        n + 1,
    )
    kernel = f2_kernel(augmented)
    if len(kernel) > 21:  # at most 2**21 candidates
        raise ValueError("kernel too large to enumerate candidate classes")
    candidates = tuple(
        ("i" if mask >> n else "1", tuple(j + 1 for j in range(n) if (mask >> j) & 1))
        for mask in sorted(_span(kernel))
    )
    return candidates, len(kernel)


def selmer_candidate_set(primes: Sequence[GaussInt]) -> SelmerReport:
    """Candidate divisor classes containing the phi-Selmer group.

    The primes are distinct, primary and prime, as ``build_L`` takes them;
    ``candidate_classes`` does the F2 half.
    """
    matrix = build_L(primes)
    ps = tuple(primes)
    nbar = tuple(mn_invariants(p).n_bar for p in ps)
    candidates, dim = candidate_classes(
        matrix, sum(bit << j for j, bit in enumerate(nbar))
    )
    return SelmerReport(
        primes=ps,
        matrix=matrix,
        nbar=nbar,
        candidates=candidates,
        dim=dim,
        rank_upper=rank_upper_bound(dim),
    )
