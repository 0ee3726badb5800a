"""Search for (beta, k) making beta + i^j k(1+i), j = 1..4, simultaneously
prime and congruent to -1-6i mod 16.

The region scan uses two pre-filters.  The residue pre-filter (k a multiple
of 8, beta in one of two classes mod 16 depending on k mod 16) is
exhaustively proven equivalent to the direct four-congruence test in the
test suite; the scan steps beta through those classes directly.  The norm
pre-filter then asks that the four norms be prime.  It is exact: a value
congruent to -1-6i mod 16 has real part 15 and imaginary part 10 mod 16,
both nonzero, so it is a Gaussian prime iff its norm is a rational prime.
Its norm is also 5 mod 32.  Two kernels apply the filter, each a generator
of the pairs that pass it: ``_join_rows`` sieves the norms = 5 mod 32 of
the shard's window once and joins rows of prime flags as big-int bitsets;
``_sieve_k`` strikes, along the diagonal lines that the values of the pairs
lie on, the k at which a split prime up to 499, and up to twice the length
of the lines, divides one of the four norms, and tests the rest with the
first primality stage, ``is_base2_probable_prime`` (trial division up to
499 and one strong base-2 test, which never rejects a prime).  ``_scan_shard`` chooses the kernel,
counts the shard's pairs, and gives every pair that a kernel yields the full
``constellation_at`` check (direct congruences and the full primality test),
so the kernels remain optimizations only.  ``_run_shards`` spreads the
shards over at most ``os.cpu_count()`` processes: the caller, which scans its
own share, and workers made by POSIX fork, which send their hits back as
(a, b, k) triples; where fork is missing, the caller scans every shard.
Sharded searches merge deterministically, so output never depends on the
shard count.
"""

from __future__ import annotations

import marshal
import os
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .gaussian import GaussInt, I_POWERS, ONE_PLUS_I
from .primes import (
    _SMALL_PRIMES,
    is_base2_probable_prime,
    is_gaussian_prime,
    rational_prime_sieve,
    sqrt_minus_one_mod,
)

TARGET_CLASS = GaussInt(-1, -6)
# beta residues mod 16 compatible with the target class, by k mod 16
_BETA_CLASS_K0 = (15, 10)   # k = 0 mod 16: beta = -1-6i
_BETA_CLASS_K8 = (7, 2)     # k = 8 mod 16: beta = -1-6i - 8(1+i)

# offsets i^j (1+i) in j-order, j = 1..4
OFFSETS = tuple(I_POWERS[j % 4] * ONE_PLUS_I for j in (1, 2, 3, 4))


@dataclass(frozen=True, slots=True)
class Box:
    """An inclusive lattice rectangle for beta."""

    re_min: int
    re_max: int
    im_min: int
    im_max: int

    @classmethod
    def centered(cls, radius: int) -> "Box":
        return cls(-radius, radius, -radius, radius)

    def split_re(self, shards: int) -> list["Box"]:
        """Partition into at most ``shards`` sub-boxes along the real axis."""
        width = self.re_max - self.re_min + 1
        if width <= 0 or self.im_max < self.im_min:
            return []
        shards = max(1, min(shards, width))
        bounds = [self.re_min + (width * s) // shards for s in range(shards + 1)]
        return [
            Box(bounds[s], bounds[s + 1] - 1, self.im_min, self.im_max)
            for s in range(shards)
            if bounds[s + 1] > bounds[s]
        ]


@dataclass(frozen=True, slots=True)
class ConstellationHit:
    """A verified constellation: beta, k, and the four primes in j-order."""

    beta: GaussInt
    k: int
    primes: tuple[GaussInt, GaussInt, GaussInt, GaussInt]

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (
            max(abs(self.beta.re), abs(self.beta.im)),
            abs(self.k),
            0 if self.k > 0 else 1,
            self.beta.re,
            self.beta.im,
        )


@dataclass(frozen=True, slots=True)
class Rejection:
    """Why a candidate (beta, k) is not a constellation."""

    reason: str


def constellation_primes(beta: GaussInt, k: int) -> tuple[GaussInt, ...]:
    """The four values beta + i^j k (1+i), j = 1..4: i^j (1+i) is -1+i,
    -1-i, 1-i and 1+i in turn."""
    a, b = beta.re, beta.im
    return (GaussInt(a - k, b + k), GaussInt(a - k, b - k),
            GaussInt(a + k, b - k), GaussInt(a + k, b + k))


def constellation_at(beta: GaussInt, k: int) -> Union[ConstellationHit, Rejection]:
    """Full check of one candidate; a Rejection names the first failed condition."""
    if k == 0:
        return Rejection("primes not distinct")
    values = constellation_primes(beta, k)
    for j, p in enumerate(values, start=1):
        if (p.re - TARGET_CLASS.re) % 16 or (p.im - TARGET_CLASS.im) % 16:
            return Rejection(f"p_{j} = {p} is not congruent to -1-6i mod 16")
    for j, p in enumerate(values, start=1):
        if not is_gaussian_prime(p):
            return Rejection(f"p_{j} = {p} is not a Gaussian prime")
    return ConstellationHit(beta=beta, k=k, primes=values)


# The join sieves the norms = 5 mod 32 of its window, so it is chosen only
# when that sieve is small.  _JOIN_MAX_ENTRIES bounds its memory: 16 MiB of
# flags, one per 32 norms, which covers a window about the origin with norms
# up to about 2^29.  _JOIN_ENTRIES_PER_PAIR bounds its work per
# residue-passing pair against the sieve along k by lines, striking the
# split primes up to 499.  Called directly on square boxes of radius 64 and
# 128 centred at (c, c) for c = 500-12000 with |k| <= 64, 128 or 256 (best
# of 7, one core of a 2-vCPU VM), the two cross at 10-22 entries per pair,
# lower for longer k ranges: the join took 0.41-1.03x the sieve's time at
# 3-15 entries per pair, and the sieve ran 2.3-3.2x faster at 57-69, under
# the cap.  The cap stays 64 until a benchmark workload lies on each side
# of a lower one.
_JOIN_MAX_ENTRIES = 1 << 24
_JOIN_ENTRIES_PER_PAIR = 64
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")

_SIEVE_BLOCK = 1 << 15
_SIEVE_TILE = 16
# The split primes that the first primality stage trial-divides: the 44
# primes = 1 mod 4 up to _TRIAL_LIMIT = 499, from 5, 13, 17 to 449, 457 and
# 461.  A value x + yi has a prime factor above ell iff x = r y mod ell for
# one of the two roots r of r^2 = -1.  On a line of the sieve along k, the
# value at position p is (x_0 + 16 s1 p) + (y_0 + 16 s2 p)i, with
# (s1, s2) = i^j (1+i); it is struck iff p = (r y_0 - x_0) / (16 (s1 - r s2))
# mod ell (s1 - r s2 is a unit, as r is not +-1).  Per ell, the table holds,
# for each offset in j-order, the pairs (r, 1 / (16 (s1 - r s2))) of both
# roots.  A struck norm above ell also fails the stage; a norm equal to ell
# is prime, and every value of the target sublattice has norm 5 mod 32, so
# only the table primes = 5 mod 32 can be such norms: 37 of -1-6i, 101 of
# -1+10i and 389 of -17+10i (``_sieve_k`` leaves them out where they occur).
_SIEVE_TABLE = tuple(
    (ell, tuple(
        tuple((r, pow(16 * (off.re - r * off.im), -1, ell)) for r in (root, ell - root))
        for off in OFFSETS))
    for ell in sorted(_SMALL_PRIMES) if ell % 4 == 1
    for root in [sqrt_minus_one_mod(ell)]
)


def _shard_ranges(args: tuple[int, int, int, int, int, int]) -> list[tuple[range, range, range]]:
    """Per beta class, the lazy ranges (re, im, k) of its residue-passing pairs.

    k steps by 16 through its class mod 16, re and im through the beta class;
    k = 0 may lie in a k range, but it is no pair.
    """
    re_lo, re_hi, im_lo, im_hi, k_lo, k_hi = args
    return [
        (range(re_lo + (cre - re_lo) % 16, re_hi + 1, 16),
         range(im_lo + (cim - im_lo) % 16, im_hi + 1, 16),
         range(k_lo + (k_class - k_lo) % 16, k_hi + 1, 16))
        for (cre, cim), k_class in ((_BETA_CLASS_K0, 0), (_BETA_CLASS_K8, 8))
    ]


def _join_window(
    classes: list[tuple[range, range, range]]
) -> Optional[tuple[range, range, int, int]]:
    """(xs, ys, lo, hi): the re and im ranges, by 16, that hold every value of
    every pair, a least norm and the greatest norm over them.

    Each value (a -+ k, b +- k) lies on the sublattice re = 15, im = 10 mod 16,
    within |k| <= K of its beta, so its norm is 1 + 4 = 5 mod 32, and lo is
    the least number = 5 mod 32 at or above the least norm over the ranges.
    None when the shard has no pair.
    """
    spans = []
    for res, ims, ks in classes:
        if res and ims and len(ks) > (0 in ks):
            reach = max(abs(ks[0]), abs(ks[-1]))
            spans.append((res[0] - reach, res[-1] + reach, ims[0] - reach, ims[-1] + reach))
    if not spans:
        return None
    x_los, x_his, y_los, y_his = zip(*spans)
    x_min, x_max, y_min, y_max = min(x_los), max(x_his), min(y_los), max(y_his)
    x_lo, x_hi = _abs_range(x_min, x_max)
    y_lo, y_hi = _abs_range(y_min, y_max)
    lo = x_lo * x_lo + y_lo * y_lo
    return (range(x_min, x_max + 1, 16), range(y_min, y_max + 1, 16),
            lo + (5 - lo) % 32, x_hi * x_hi + y_hi * y_hi)


def _scan_shard(
    args: tuple[int, int, int, int, int, int]
) -> tuple[list[ConstellationHit], int, int]:
    """Worker: scan one sub-box; returns (hits, candidates, filter passes).

    Only residue-passing pairs are visited, and the counts come from range
    lengths.  A shard with no pair runs no kernel.  Otherwise one kernel
    yields the pairs that pass its norm filter.  ``_join_rows`` runs when
    the sieve of the norms = 5 mod 32 that the shard's values cover is
    small: at most _JOIN_MAX_ENTRIES entries and _JOIN_ENTRIES_PER_PAIR per
    pair, which holds close to the origin.  ``_sieve_k`` runs in every other
    case: far from the origin, and near it over the cap.  The choice reads
    range endpoints alone, before anything is allocated.  Each pair yielded gets
    ``constellation_at``, and the hits are kept in the kernel's order; the
    canonical order is left to the caller.
    """
    re_lo, re_hi, im_lo, im_hi = args[:4]
    classes = _shard_ranges(args)
    k_counts = [len(ks) - (0 in ks) for _, _, ks in classes]
    candidates = len(range(re_lo, re_hi + 1)) * len(range(im_lo, im_hi + 1)) * sum(k_counts)
    passes = sum(len(res) * len(ims) * n for (res, ims, _), n in zip(classes, k_counts))
    window = _join_window(classes)
    if window is None:
        return [], candidates, passes
    with_beta = [c for c in classes if c[0] and c[1]]
    _, _, lo, hi = window
    entries = (hi - lo) // 32 + 1
    if entries <= _JOIN_MAX_ENTRIES and entries <= _JOIN_ENTRIES_PER_PAIR * passes:
        survivors = _join_rows(with_beta, window)
    else:
        survivors = _sieve_k(with_beta, lo)
    hits: list[ConstellationHit] = []
    for a, b, k in survivors:
        result = constellation_at(GaussInt(a, b), k)
        if isinstance(result, ConstellationHit):
            hits.append(result)
    return hits, candidates, passes


def _join_rows(
    classes: list[tuple[range, range, range]], window: tuple[range, range, int, int]
) -> Iterator[tuple[int, int, int]]:
    """The join: exact prime rows over the shard's window, ANDed per (k, b).

    One ``rational_prime_sieve`` covers the window's norms = 5 mod 32, the
    only norms its values have, and holds the flag of a norm n at
    (n - lo) / 32.  ``rows[i]`` is one int for y = y_0 + 16i: bit j is set
    iff (x_0 + 16j)^2 + y^2 is prime, which for a value on the target
    sublattice (both parts nonzero) is iff the value is a Gaussian prime.
    For fixed (k, b), M = row[b+k] & row[b-k]
    holds both im-parts; the a whose four norms are prime are the bits of
    (M >> s_-) & (M >> s_+), with s_-+ = (a_0 -+ k - x_0) / 16, and each
    (a, b, k) is yielded.  The sieve has an entry for every 32nd norm of the
    window, so ``_scan_shard`` calls this only under its cap.
    """
    xs, ys, lo, hi = window
    sieve = rational_prime_sieve(hi, lo, 32)
    x_norms = [x * x - lo for x in reversed(xs)]  # the last x is the top bit
    rows = []
    for y in ys:
        yy = y * y
        flags = bytes([sieve[(xx + yy) >> 5] for xx in x_norms])
        rows.append(int(flags.translate(_BIT_CHARS), 2))
    del sieve
    x0, y0 = xs[0], ys[0]
    for res, ims, ks in classes:
        a0 = res[0]
        full = (1 << len(res)) - 1
        for k in ks:
            if k == 0:
                continue
            minus, plus = (a0 - k - x0) >> 4, (a0 + k - x0) >> 4
            up, down = rows[(ims[0] + k - y0) >> 4 :], rows[(ims[0] - k - y0) >> 4 :]
            for b, row_up, row_down in zip(ims, up, down):
                both = row_up & row_down
                passing = (both >> minus) & (both >> plus) & full
                while passing:
                    low = passing & -passing
                    passing ^= low
                    yield a0 + 16 * low.bit_length() - 16, b, k


def _period_masks(table: tuple, width: int) -> list[tuple[int, int, tuple]]:
    """Per entry (ell, strikes) of table with ell at most 2 width, (ell,
    mask, strikes): bit p of mask is 0 iff ell divides p, for every p below
    width + ell.

    A prime strikes a line of width flags about 2 width / ell times, and
    each line costs it two shifts and ANDs; past 2 width those cost more
    than the stage calls they save.  Far out (best of 5, 2-vCPU VM),
    striking up to width took 1.3 times as long on the far window with 16 k
    per class, and striking up to 3 width 1.1 times as long on one beta
    with 16 k.
    """
    return [(ell, int(("1" * (ell - 1) + "0") * (width // ell + 2), 2), strikes)
            for ell, strikes in table if ell <= 2 * width]


def _struck_lines(
    masks: list[tuple[int, int, tuple]], j: int, x0: int, y0: int, count: int
) -> list[int]:
    """The lines u = 0 .. count - 1 of offset j (0 to 3, for OFFSETS[j] =
    s1 + s2 i), each an int of flags: bit p of line u is 0 iff a prime of
    masks divides the norm of (x0 + 16 s1 p) + (y0 + 16 u + 16 s2 p)i, for
    every p below the width of masks.

    Per prime ell and root r, the struck p are those = (r y - x0) c mod ell,
    with y = y0 + 16 u and c from the table: the prime's mask shifted right
    by (x0 - r y) c mod ell has exactly those bits clear, and is ANDed in.
    """
    shifts = [(mask, ell, (x0 - r * y0) * c, 16 * r * c)
              for ell, mask, strikes in masks for r, c in strikes[j]]
    lines = []
    for u in range(count):
        line = -1
        for mask, ell, s0, step in shifts:
            line &= mask >> (s0 - u * step) % ell
        lines.append(line)
    return lines


def _sieve_tile(
    masks: list[tuple[int, int, tuple]], tile_a: range, tile_b: range, block: range
) -> Iterator[tuple[int, int, int]]:
    """The pairs of one tile of beta = a + bi (a in tile_a, b in tile_b) and
    one block of k whose four norms pass the stage.

    The k row of a beta is the AND of its four lines from ``_struck_lines``,
    each shifted right by i_a, or by n_a - 1 - i_a when the line is reversed
    (see ``_sieve_k``); each k it leaves tests its four norms with
    ``is_base2_probable_prime`` in j-order.  The lines are freed when the
    tile is done.
    """
    stage = is_base2_probable_prime
    n_a, k0, row_mask = len(tile_a), block[0], (1 << len(block)) - 1
    lines = []
    for j, off in enumerate(OFFSETS):
        # position 0 of line 0 holds the value of beta = a_0 + b_0 i, or
        # a_0 + (b_0 - 16 (n_a - 1))i when s1 = s2, at k = k_0, or at
        # k = k_0 - 16 (n_a - 1) when s1 = -1 (a reversed line)
        k_first = k0 if off.re > 0 else k0 - 16 * (n_a - 1)
        b_first = tile_b[0] - (16 * (n_a - 1) if off.re == off.im else 0)
        lines.append(_struck_lines(masks, j, tile_a[0] + off.re * k_first,
                                   b_first + off.im * k_first, n_a + len(tile_b) - 1))
    minus_plus, minus_minus, plus_minus, plus_plus = lines
    for i_a, a in enumerate(tile_a):
        back = n_a - 1 - i_a
        for i_b, b in enumerate(tile_b):
            row = ((minus_plus[i_b + i_a] >> back) & (minus_minus[i_b + back] >> back)
                   & (plus_minus[i_b + i_a] >> i_a) & (plus_plus[i_b + back] >> i_a)
                   & row_mask)
            flags = bin(row)[:1:-1]  # flags[i] is bit i, of k = k_0 + 16 i
            i = flags.find("1")
            while i >= 0:
                k = k0 + 16 * i
                i = flags.find("1", i + 1)
                if k == 0:
                    continue
                am2, ap2 = (a - k) * (a - k), (a + k) * (a + k)
                bm2, bp2 = (b - k) * (b - k), (b + k) * (b + k)
                if (stage(am2 + bp2) and stage(am2 + bm2)
                        and stage(ap2 + bm2) and stage(ap2 + bp2)):
                    yield a, b, k


def _sieve_k(
    classes: list[tuple[range, range, range]], lo: int
) -> Iterator[tuple[int, int, int]]:
    """The sieve along k, run on the diagonal lines that the four values of
    the pairs lie on: the k where a small split prime divides one of the
    four norms are struck before any norm is tested.

    Each class is cut into blocks of at most _SIEVE_BLOCK k and tiles of at
    most _SIEVE_TILE by _SIEVE_TILE beta.  In a tile and a block, write
    a = a_0 + 16 i_a, b = b_0 + 16 i_b and k = k_0 + 16 i_k.  The value
    (a + s1 k) + (b + s2 k)i of offset (s1, s2) then lies on the line
    i_b - s1 s2 i_a, at position i_a + s1 i_k, and a step along a line adds
    16 (s1 + s2 i).  A line holds the values of many (beta, k), so it is
    struck once for all of them: per offset, the tile has n_a + n_b - 1
    lines of n_a + n_k - 1 flags, each one int, and those of s1 = -1 are
    stored reversed.  The masks are built once per block, for the table
    primes up to twice the length of its lines (``_period_masks``), and
    ``_sieve_tile`` strikes the lines and joins each beta's row.

    A struck norm is composite unless it is the prime itself.  Every norm
    on the target sublattice is 5 mod 32 and at least lo, the window's least
    norm, so a table prime = 5 mod 32 from lo up is left out (37, the norm
    of -1-6i, and 101, that of -1+10i, near the origin).  The stage, whose
    trial division covers every table prime, rejects each struck pair too,
    so this yields exactly the pairs whose four norms pass the stage.
    Memory is one tile's lines over one block, at most 4 (2 _SIEVE_TILE - 1)
    ints of _SIEVE_TILE + _SIEVE_BLOCK - 1 bits, and one mask per prime.
    """
    table = tuple(e for e in _SIEVE_TABLE if e[0] < lo or e[0] % 32 != 5)
    for res, ims, ks in classes:
        for k_start in range(0, len(ks), _SIEVE_BLOCK):
            block = ks[k_start : k_start + _SIEVE_BLOCK]
            masks = _period_masks(table, min(len(res), _SIEVE_TILE) + len(block) - 1)
            for a_start in range(0, len(res), _SIEVE_TILE):
                for b_start in range(0, len(ims), _SIEVE_TILE):
                    yield from _sieve_tile(masks, res[a_start : a_start + _SIEVE_TILE],
                                           ims[b_start : b_start + _SIEVE_TILE], block)


ProgressFn = Callable[[dict], None]


def _from_triples(triples: list[tuple[int, int, int]]) -> list[ConstellationHit]:
    """The hits of a worker's triples; the worker proved each with
    ``constellation_at``, so only the four primes are recomputed."""
    hits = []
    for a, b, k in triples:
        beta = GaussInt(a, b)
        hits.append(ConstellationHit(beta=beta, k=k, primes=constellation_primes(beta, k)))
    return hits


def _fork_worker(shard_args: list, read_fd: int, write_fd: int) -> None:
    """The body of a forked worker: scan shard_args, send the results down
    write_fd and leave by ``os._exit``.

    The worker never returns into the caller's code, so it runs none of the
    caller's ``finally`` blocks or ``atexit`` handlers and never flushes a
    stdio buffer it inherited.  It sends the marshalled list of its shards'
    (hits as (a, b, k) triples, candidates, filter passes) and exits 0, or
    sends its traceback as text and exits 1.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            sent = []
            for args in shard_args:
                hits, candidates, passes = _scan_shard(args)
                sent.append(([(h.beta.re, h.beta.im, h.k) for h in hits], candidates, passes))
            payload = marshal.dumps(sent)
            status = 0
        except BaseException:
            import traceback

            payload = traceback.format_exc().encode("utf-8", "replace")
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def _run_shards(shard_args: list) -> list[tuple[list[ConstellationHit], int, int]]:
    """``_scan_shard`` of every shard, in shard order.

    Shards are work units; the processes never outgrow the machine.  The
    caller is one of w = min(shard count, ``os.cpu_count()``) processes and
    scans shards 0, w, 2w, ... itself; each of the other w - 1, made by
    ``os.fork``, scans its own stride and sends its results back through a
    pipe as ``(a, b, k)`` triples (see ``_fork_worker``).  Where ``os.fork``
    does not exist, w is 1.  A worker that fails, or sends what does not
    decode, raises here, and every worker not yet reaped is killed and
    reaped before this returns or raises.  ``_scan_shard`` is looked up at
    call time, so a replaced global is what runs, in the caller and in the
    workers alike.
    """
    workers = max(1, min(len(shard_args), os.cpu_count() or 1)) if hasattr(os, "fork") else 1
    results: list = [None] * len(shard_args)
    children = {}  # pid -> (worker, read end of its pipe), until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _fork_worker(shard_args[worker::workers], read_fd, write_fd)
            os.close(write_fd)
            children[pid] = (worker, os.fdopen(read_fd, "rb"))
        results[0::workers] = [_scan_shard(a) for a in shard_args[0::workers]]
        for pid, (worker, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            name = f"shard worker {worker} (pid {pid})"
            if code != 0:
                detail = data.decode("utf-8", "replace")
                raise RuntimeError(f"{name} exited with status {code}:\n{detail}")
            stride = range(worker, len(shard_args), workers)
            try:
                for s, (triples, candidates, passes) in zip(
                        stride, marshal.loads(data), strict=True):
                    results[s] = (_from_triples(triples), candidates, passes)
            except (EOFError, ValueError, TypeError) as exc:
                raise RuntimeError(f"{name} sent data that does not decode") from exc
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return results


def search_region(
    beta_box: Box,
    k_range: tuple[int, int],
    shards: int = 1,
    progress: Optional[ProgressFn] = None,
) -> list[ConstellationHit]:
    """Every hit in the region, each exactly once, in canonical order.

    The order (growing max(|Re beta|, |Im beta|), then |k|, positive k first,
    then beta lexicographically) is independent of the shard count.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    sub_boxes = beta_box.split_re(shards)
    shard_args = [
        (sb.re_min, sb.re_max, sb.im_min, sb.im_max, k_range[0], k_range[1])
        for sb in sub_boxes
    ]
    hits: list[ConstellationHit] = []
    for args, (shard_hits, candidates, passes) in zip(shard_args, _run_shards(shard_args)):
        hits.extend(shard_hits)
        if progress is not None:
            progress({
                "event": "shard_done",
                "region": {
                    "re_min": args[0], "re_max": args[1],
                    "im_min": args[2], "im_max": args[3],
                    "k_min": args[4], "k_max": args[5],
                },
                "candidates": candidates,
                "filter_pass": passes,
                "hits": len(shard_hits),
            })
    hits.sort(key=ConstellationHit.sort_key)
    return hits


def find_first_hit(
    initial_radius: int, shards: int = 1, progress: Optional[ProgressFn] = None
) -> ConstellationHit:
    """First hit of the canonical expanding schedule.

    Round r searches beta with max(|re|, |im|) <= R and |k| <= R for
    R = initial_radius * 2**r, and returns the canonically-first hit of the
    first round that finds any.  The loop ends: every round with R >= 16
    holds (15+10i, 16), so at most ceil(log2(16 / initial_radius)) + 1 <= 5
    rounds run when initial_radius <= 16, and one round above that.  Raises
    ValueError when initial_radius is below 1 (the radius would never grow).
    """
    if initial_radius < 1:
        raise ValueError(f"initial_radius must be >= 1, got {initial_radius}")
    radius = initial_radius
    while True:
        hits = search_region(
            Box.centered(radius), (-radius, radius), shards=shards, progress=progress
        )
        if progress is not None:
            progress({"event": "round_done", "radius": radius, "hits": len(hits)})
        if hits:
            return hits[0]
        radius *= 2


@dataclass(frozen=True, slots=True)
class DensityStats:
    """Census of Gaussian primes in a box by residue class mod 16."""

    total_primes: int
    class_counts: dict[tuple[int, int], int]
    target_class: tuple[int, int]

    @property
    def target_count(self) -> int:
        return self.class_counts.get(self.target_class, 0)

    @property
    def target_ratio(self) -> Fraction:
        if self.total_primes == 0:
            return Fraction(0)
        return Fraction(self.target_count, self.total_primes)

    def associate_union_count(self) -> int:
        """Count over the four classes i^j * (-1-6i) mod 16."""
        total = 0
        cls = TARGET_CLASS
        for _ in range(4):
            total += self.class_counts.get((cls.re % 16, cls.im % 16), 0)
            cls = cls * GaussInt(0, 1)
        return total


def _abs_range(lo: int, hi: int) -> tuple[int, int]:
    """The least and greatest |v| over the nonempty range lo..hi."""
    if lo <= 0 <= hi:
        return 0, max(-lo, hi)
    return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))


def prime_density_stats(box: Box) -> DensityStats:
    """Exact per-class prime counts over the box (sieve-backed, no floats).

    Whether a + bi is prime depends only on {|a|, |b|}: off the axes it is
    prime iff a^2 + b^2 is a rational prime, and on an axis iff the nonzero
    coordinate is, up to sign, a rational prime q = 3 mod 4.  An odd prime
    has odd norm, so the sieve holds only the odd norms the box has, from
    x_lo^2 + y_lo^2 up to x_hi^2 + y_hi^2 with x = |a| and y = |b|, and is
    read only where x and y differ in parity; the associates of 1+i (norm
    2) count in the total but lie in no invertible class, and are added to
    the total by hand.  The axis flags come from a sieve up to
    max(x_hi, y_hi).  A box far from the origin still sieves about its
    width times its distance, halved.

    Let R = min(-re_min, re_max, -im_min, im_max), or 0 when the box does
    not hold the origin.  Every sign of both coordinates of the core
    1 <= x, y <= R lies in the box, so the census reads only its octant
    x < y (the diagonal has even norm), tallies the primes by
    (x mod 16, y mod 16), and credits each tally to the classes of its
    eight points (+-x, +-y) and (+-y, +-x).  The rest of the box is read
    once per point: one row per x = 0 or x > R over every y, in which the
    b >= 0 of one class mod 16 sit at y stepping by 16, and so do the b < 0
    at y = -b, so that each class count is two strided byte counts; and,
    for 1 <= x <= R, the axis points y = 0 and one column over x per y > R.
    """
    target = (TARGET_CLASS.re % 16, TARGET_CLASS.im % 16)
    if box.re_max < box.re_min or box.im_max < box.im_min:
        return DensityStats(total_primes=0, class_counts={}, target_class=target)
    x_lo, x_hi = _abs_range(box.re_min, box.re_max)
    y_lo, y_hi = _abs_range(box.im_min, box.im_max)
    start = (x_lo * x_lo + y_lo * y_lo) | 1
    # sieve[i] == 1 iff the odd norm start + 2i is prime
    sieve = rational_prime_sieve(x_hi * x_hi + y_hi * y_hi, start, 2)
    # axis[q] == 1 iff q and qi are Gaussian primes: q prime, q = 3 mod 4
    axis = rational_prime_sieve(max(x_hi, y_hi))
    for r in (0, 1, 2):
        axis[r::4] = bytes(len(range(r, len(axis), 4)))

    def half(v: int) -> int:
        """The part of v in a sieve position: for x and y of other parities,
        x^2 + y^2 = start + 2 (half(x) + half(y))."""
        return (v * v - start) >> 1 if v & 1 else (v * v) >> 1

    acc = [[0] * 16 for _ in range(16)]  # acc[a % 16][b % 16]: points

    def credit(c: int, d: int, n: int) -> None:
        """Count n points at a = x and n at a = -x, for x = c, b = d mod 16."""
        acc[c][d] += n
        acc[-c % 16][d] += n

    core = max(0, min(-box.re_min, box.re_max, -box.im_min, box.im_max))
    if core:
        halves = [half(v) for v in range(core + 1)]
        octant = [[0] * 16 for _ in range(16)]  # [x % 16][y % 16], x < y
        for x in range(1, core):
            hx = halves[x]
            flags = bytes([sieve[hx + hy] for hy in halves[x + 1 :: 2]])
            by_y = octant[x % 16]
            for j in range(8):
                by_y[(x + 1 + 2 * j) % 16] += flags[j::8].count(1)
        for c in range(16):
            for d in range(16):
                # a tuple, not a set: for s = 0, 8 the classes s and -s
                # coincide, and each of the two points counts
                for u, v in ((c, d), (c, -d % 16), (d, c), (d, -c % 16)):
                    credit(u, v, octant[c][d])
            # the axis points (+-x, 0) with 1 <= x <= R, x = c mod 16
            credit(c, 0, axis[(c - 1) % 16 + 1 : core + 1 : 16].count(1))
        for y in range(core + 1, y_hi + 1):
            x0 = 1 + y % 2  # the least x of the other parity than y
            hy = half(y)
            flags = bytes([sieve[hx + hy] for hx in halves[x0::2]])
            for b in (y, -y):
                if box.im_min <= b <= box.im_max:
                    for j in range(8):
                        credit((x0 + 2 * j) % 16, b % 16, flags[j::8].count(1))

    def strided(lo: int, hi: int, r: int) -> slice:
        """Row positions of the y in lo..hi with y = r mod 16."""
        if hi < lo:
            return slice(0, 0)
        return slice(lo + (r - lo) % 16 - y_lo, hi + 1 - y_lo, 16)

    # per class c mod 16: the b >= 0 at y = b, the b < 0 at y = -b
    slices = [
        (strided(max(box.im_min, 0), box.im_max, c),
         strided(max(-box.im_max, 1), -box.im_min, -c))
        for c in range(16)
    ]
    width = y_hi - y_lo + 1
    # by parity p of y: the row position of the first such y, and half(y)
    first = [(y_lo - p) % 2 for p in (0, 1)]
    y_halves = [[half(y) for y in range(y_lo + first[p], y_hi + 1, 2)]
                for p in (0, 1)]
    for x in range(x_lo, x_hi + 1):
        if 1 <= x <= core:
            continue
        if x == 0:
            row = axis[y_lo : y_hi + 1]
        else:
            p = 1 - x % 2  # x^2 + y^2 is odd for the y of parity p
            row = bytearray(width)
            hx = half(x)
            row[first[p] :: 2] = [sieve[hx + hy] for hy in y_halves[p]]
            if y_lo == 0:
                row[0] = axis[x]
        counts_x = [row[pos].count(1) + row[neg].count(1) for pos, neg in slices]
        for a in {x, -x}:
            if box.re_min <= a <= box.re_max:
                acc[a % 16] = [m + n for m, n in zip(acc[a % 16], counts_x)]
    counts = {(r, c): n for r, by_c in enumerate(acc) for c, n in enumerate(by_c) if n}
    units = (-1, 1)
    norm_two = sum(box.re_min <= a <= box.re_max for a in units) * sum(
        box.im_min <= b <= box.im_max for b in units)
    return DensityStats(
        total_primes=sum(counts.values()) + norm_two,
        class_counts=counts,
        target_class=target,
    )
