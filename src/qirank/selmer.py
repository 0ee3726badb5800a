"""F2 linear algebra and the Selmer-group candidate-set computation.

The descent input is a list of distinct primary Gaussian primes; ``build_L``
validates it.  From their pairwise residue symbols we build the symbol
matrix L (rows sum to zero by construction; by quadratic reciprocity it
is symmetric, so each unordered pair costs one symbol), and the candidate
divisor classes are the kernel of L (primary branch) together with the
solution set of L x = (n_bar_j) (the i-branch).  The candidate conditions
depend only on the primes, not on the sign or square shape of the curve
coefficient.  The F2 dimension of the span of all candidates feeds the rank
bound 2*dim - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .gaussian import GaussInt, GaussLike, _coerce, is_primary
from .primes import is_gaussian_prime
from .residues import euler_symbol, mn_invariants

F2Vector = tuple[int, ...]

MAX_DIMENSION = 64  # dense bit rows; the certified family needs N = 4


@dataclass(frozen=True, slots=True)
class F2Matrix:
    """Dense matrix over F2; each row is an int bitmask, bit j = column j."""

    rows: tuple[int, ...]
    ncols: int

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        masks = tuple(
            sum((int(x) & 1) << j for j, x in enumerate(row)) for row in rows
        )
        return cls(masks, ncols)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _vec_to_mask(v: F2Vector) -> int:
    return sum((int(x) & 1) << j for j, x in enumerate(v))


def _mask_to_vec(mask: int, n: int) -> F2Vector:
    return tuple((mask >> j) & 1 for j in range(n))


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [r for r in rows]
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


def f2_rank(rows: Sequence[int], ncols: int) -> int:
    return len(_rref(list(rows), ncols)[1])


def f2_kernel(matrix: F2Matrix) -> list[F2Vector]:
    """A basis of the null space of the matrix, one vector per free column."""
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
        basis.append(_mask_to_vec(mask, matrix.ncols))
    return basis


@dataclass(frozen=True, slots=True)
class F2Solutions:
    """The full solution set of M x = v: a particular solution + kernel basis."""

    particular: F2Vector
    kernel: tuple[F2Vector, ...]

    def __iter__(self) -> Iterator[F2Vector]:
        n = len(self.particular)
        base = _vec_to_mask(self.particular)
        kmasks = [_vec_to_mask(k) for k in self.kernel]
        for bits in range(1 << len(kmasks)):
            mask = base
            for j, km in enumerate(kmasks):
                if (bits >> j) & 1:
                    mask ^= km
            yield _mask_to_vec(mask, n)

    def all(self) -> list[F2Vector]:
        return sorted(self)


def f2_solve(matrix: F2Matrix, v: F2Vector) -> Optional[F2Solutions]:
    """Solve M x = v over F2; None when the system is inconsistent."""
    if len(v) != matrix.nrows:
        raise ValueError("dimension mismatch")
    n = matrix.ncols
    augmented = [row | ((int(b) & 1) << n) for row, b in zip(matrix.rows, v)]
    reduced, pivots = _rref(augmented, n + 1)
    if n in pivots:
        return None
    mask = 0
    for row, pcol in zip(reduced, pivots):
        if (row >> n) & 1:
            mask |= 1 << pcol
    return F2Solutions(_mask_to_vec(mask, n), tuple(f2_kernel(matrix)))


def build_L(primes: Sequence[GaussLike]) -> F2Matrix:
    """The symbol matrix of distinct primary primes.

    Off-diagonal entry (i, j) is 1 exactly when (p_i / p_j) = -1; the
    diagonal is the sum of the rest of the row, so L applied to the all-ones
    vector is zero.
    """
    ps = _validated_primes(primes)
    n = len(ps)
    rows = [0] * n
    # quadratic reciprocity in Z[i]: (p / q) = (q / p) for distinct primary
    # primes (Lemmermeyer, Reciprocity Laws, 2000), so L is symmetric and one
    # symbol per pair sets both entries
    for i in range(n):
        for j in range(i + 1, n):
            if euler_symbol(ps[i], ps[j]) == -1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    for i in range(n):
        if bin(rows[i]).count("1") & 1:
            rows[i] |= 1 << i
    return F2Matrix(tuple(rows), n)


def _validated_primes(primes: Sequence[GaussLike]) -> list[GaussInt]:
    ps = [_coerce(p) for p in primes]
    if not ps:
        raise ValueError("need at least one prime")
    if len(ps) > MAX_DIMENSION:
        raise ValueError(f"at most {MAX_DIMENSION} primes supported")
    for p in ps:
        if not is_gaussian_prime(p) or not is_primary(p):
            raise ValueError(f"{p} is not a primary Gaussian prime")
    if len(set(ps)) != len(ps):
        # primary elements are associate only when equal
        raise ValueError("primes must be pairwise distinct")
    return ps


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """A square-free divisor class modulo squares: unit in {1, i} + a prime subset.

    ``indices`` are 1-based positions into the report's prime list.
    """

    unit_i: bool
    indices: tuple[int, ...]

    def label(self) -> str:
        parts = (["i"] if self.unit_i else []) + [f"p{j}" for j in self.indices]
        return "*".join(parts) if parts else "1"

    def span_vector(self, n: int) -> int:
        """Bitmask in F2^(n+1): bit n is the unit flag, bit j-1 marks p_j."""
        mask = sum(1 << (j - 1) for j in self.indices)
        if self.unit_i:
            mask |= 1 << n
        return mask


@dataclass(frozen=True, slots=True)
class SelmerReport:
    """Everything the descent produces for one curve coefficient."""

    primes: tuple[GaussInt, ...]
    matrix: F2Matrix
    nbar: tuple[int, ...]
    candidates: tuple[DivisorClass, ...]
    dim: int
    rank_upper: int


def rank_upper_bound(dim: int) -> int:
    """Mordell-Weil rank bound 2*dim - 2 from the Selmer F2-dimension."""
    if dim < 1:
        raise ValueError("dim must be at least 1 (the identity class is present)")
    return 2 * dim - 2


def selmer_candidate_set(primes: Sequence[GaussLike]) -> SelmerReport:
    """Candidate divisor classes containing the phi-Selmer group.

    A subset T is a candidate with unit 1 when its indicator lies in ker(L),
    and with unit i when L applied to the indicator equals the vector of
    n_bar invariants.  ``build_L`` validates the primes.
    """
    matrix = build_L(primes)
    ps = [_coerce(p) for p in primes]
    n = len(ps)
    nbar = tuple(mn_invariants(p).n_bar for p in ps)

    kernel = f2_kernel(matrix)
    if len(kernel) > 20:
        raise ValueError("kernel too large to enumerate candidate classes")

    candidates: list[DivisorClass] = []
    for vec in F2Solutions(tuple([0] * n), tuple(kernel)):
        candidates.append(DivisorClass(False, _indices_of(vec)))
    i_branch = f2_solve(matrix, nbar)
    if i_branch is not None:
        for vec in i_branch:
            candidates.append(DivisorClass(True, _indices_of(vec)))

    candidates.sort(key=lambda c: (c.unit_i, sum(1 << (j - 1) for j in c.indices)))
    span_masks = [c.span_vector(n) for c in candidates]
    dim = f2_rank(span_masks, n + 1)
    return SelmerReport(
        primes=tuple(ps),
        matrix=matrix,
        nbar=nbar,
        candidates=tuple(candidates),
        dim=dim,
        rank_upper=rank_upper_bound(dim),
    )


def _indices_of(vec: F2Vector) -> tuple[int, ...]:
    return tuple(j + 1 for j, bit in enumerate(vec) if bit)
