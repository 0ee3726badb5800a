"""Command-line surface: every capability as a subcommand with JSON output.

Gaussian integers are written as ``a+bi`` / ``a-bi`` (optional spaces);
a token that starts with ``-`` and then a digit or ``i`` is a value, never
an option, so negative literals are accepted and a malformed one such as
``-5x`` is reported as typed.  All numeric output is exact (decimal
strings or small integers, never floats).  Exit codes: 0 success, 1
mathematical rejection, 2 usage error.  The parser and the handlers raise
``UsageError`` for bad input, and handlers raise ``ValueError`` for a
mathematical rejection; ``run()`` turns either into a JSON error on stdout
with exit 2 or 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from .gaussian import GaussInt, is_primary
from .certify import FailureReport, certify, verify_certificate
from .curves import torsion_subgroup
from .primes import factor_primary, is_gaussian_prime
from .residues import euler_symbol, mn_invariants
from .search import Box, find_first_hit, prime_density_stats, search_region
from .selmer import selmer_candidate_set
from .verifier import MAX_CERT_BYTES

# the census sieves the box^2 odd norms up to 2 * box^2, one byte each; at
# this cap it peaks at 22.4 MB under tracemalloc
STATS_MAX_BOX = 4096

SELMER_MAX_PRIMES = 64  # caps selmer's n(n-1)/2 residue symbols; certify needs 4


class UsageError(Exception):
    """Bad command-line input: run() prints it as a JSON error, exit 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors (subparsers share the class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # tokens like -5, -i, -6i, -1-6i (and -5x) are values, not flags; no
        # option starts with a dash and a digit or i
        self._negative_number_matcher = re.compile(r"^-[\diI]")

    def error(self, message):
        raise UsageError(message)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_stderr(obj) -> None:
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stderr.flush()


def _gauss(text: str) -> GaussInt:
    try:
        return GaussInt.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qirank",
        description="Gaussian prime constellations and rank-2 curve certificates over Q(i)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="primary factorization of a Gaussian integer")
    p_factor.add_argument("value", type=_gauss)

    p_symbol = sub.add_parser("symbol", help="quadratic residue symbol (a / p)")
    p_symbol.add_argument("numerator", type=_gauss)
    p_symbol.add_argument("prime", type=_gauss)

    p_inv = sub.add_parser("invariants", help="(m, n) class invariants of a primary element")
    p_inv.add_argument("value", type=_gauss)

    p_tors = sub.add_parser("torsion", help="torsion subgroup of y^2 = x^3 + gamma^2 x")
    p_tors.add_argument("gamma", type=_gauss)

    p_selmer = sub.add_parser("selmer", help="Selmer candidate classes for a prime list")
    p_selmer.add_argument("primes", type=_gauss, nargs="+")

    p_search = sub.add_parser("search", help="search a region for constellations")
    p_search.add_argument("--box", type=int, default=None,
                          help="search |Re beta|, |Im beta| <= BOX")
    for bound in ("re-min", "re-max", "im-min", "im-max"):
        p_search.add_argument(f"--{bound}", type=int, default=None,
                              help=f"explicit beta bound (overrides --box); "
                                   f"splits a long search into separate runs")
    p_search.add_argument("--kmax", type=int, default=None,
                          help="search |k| <= KMAX (default: BOX)")
    p_search.add_argument("--shards", type=int, default=1,
                          help="worker shards (default: 1)")
    p_search.add_argument("--expand", action="store_true",
                          help="expand the region until a first hit is found")

    p_cert = sub.add_parser("certify", help="certify one (beta, k) candidate")
    p_cert.add_argument("beta", type=_gauss)
    p_cert.add_argument("k", type=int)
    p_cert.add_argument("--output", type=str, default=None,
                        help="also write the certificate JSON to this path")

    p_verify = sub.add_parser(
        "verify", help="check a certificate file: re-derive every field from its "
                       "(beta, k) with the stand-alone verifier")
    p_verify.add_argument("file", type=str)

    p_stats = sub.add_parser("stats", help="prime density census by residue class mod 16")
    p_stats.add_argument("--box", type=int, required=True,
                         help=f"census |Re|, |Im| <= BOX, 0 <= BOX <= {STATS_MAX_BOX}")

    return parser


def _cmd_factor(args) -> int:
    f = factor_primary(args.value)
    _emit({
        "s": f.s,
        "t": f.t,
        "factors": [
            {"prime": p.to_json(), "exponent": e} for p, e in f.factors
        ],
    })
    return 0


def _cmd_symbol(args) -> int:
    # euler_symbol takes an odd Gaussian prime as given
    if not is_gaussian_prime(args.prime):
        raise ValueError(f"{args.prime} is not a Gaussian prime")
    if not args.prime.is_odd():
        raise ValueError(f"{args.prime} is even (the symbol needs an odd prime)")
    _emit({"value": euler_symbol(args.numerator, args.prime)})
    return 0


def _cmd_invariants(args) -> int:
    inv = mn_invariants(args.value)
    _emit({"m": inv.m, "n": inv.n, "n_bar": inv.n_bar})
    return 0


def _cmd_torsion(args) -> int:
    # torsion_subgroup takes a square-free nonzero gamma as given
    if not args.gamma:
        raise ValueError("gamma must be nonzero")
    if not factor_primary(args.gamma).is_square_free():
        raise ValueError(f"{args.gamma} is not square-free")
    group = torsion_subgroup(args.gamma)
    _emit({
        "group": group.label,
        "points": [p.to_json() for p in group.points],
    })
    return 0


def _cmd_selmer(args) -> int:
    # selmer_candidate_set takes distinct primary primes as given
    if len(args.primes) > SELMER_MAX_PRIMES:
        raise ValueError(f"at most {SELMER_MAX_PRIMES} primes supported")
    for p in args.primes:
        if not is_gaussian_prime(p) or not is_primary(p):
            raise ValueError(f"{p} is not a primary Gaussian prime")
    if len(set(args.primes)) != len(args.primes):
        # primary elements are associate only when equal
        raise ValueError("primes must be pairwise distinct")
    report = selmer_candidate_set(args.primes)
    _emit({
        "primes": [p.to_json() for p in report.primes],
        "L": report.matrix.row_strings(),
        "nbar": list(report.nbar),
        "candidates": [
            {"unit": unit, "primes": list(indices)} for unit, indices in report.candidates
        ],
        "dim": report.dim,
        "rank_upper": report.rank_upper,
    })
    return 0


def _hit_json(hit) -> dict:
    return {
        "beta": hit.beta.to_json(),
        "k": str(hit.k),
        "primes": [p.to_json() for p in hit.primes],
    }


def _search_box(args) -> Box:
    """The beta region; UsageError unless it is given and nonempty."""
    explicit = (args.re_min, args.re_max, args.im_min, args.im_max)
    if args.box is None and any(b is None for b in explicit):
        raise UsageError("search needs --box or all four explicit bounds")
    base = Box.centered(args.box) if args.box is not None else None
    box = Box(
        explicit[0] if explicit[0] is not None else base.re_min,
        explicit[1] if explicit[1] is not None else base.re_max,
        explicit[2] if explicit[2] is not None else base.im_min,
        explicit[3] if explicit[3] is not None else base.im_max,
    )
    if box.re_min > box.re_max or box.im_min > box.im_max:
        raise UsageError(
            f"empty region: re {box.re_min}..{box.re_max}, "
            f"im {box.im_min}..{box.im_max}")
    return box


def _cmd_search(args) -> int:
    if args.shards < 1:
        raise UsageError("shard count must be >= 1")
    if args.box is not None and args.box < 0:
        raise UsageError(f"--box must be >= 0, got {args.box}")
    if args.expand:
        if args.box is None:
            raise UsageError("--expand needs --box as the initial radius")
        explicit = (args.re_min, args.re_max, args.im_min, args.im_max, args.kmax)
        if any(b is not None for b in explicit):
            raise UsageError("--expand grows the region from --box; it takes no "
                             "--re-min/--re-max/--im-min/--im-max/--kmax")
        hit = find_first_hit(max(1, args.box), shards=args.shards,
                             progress=_emit_stderr)
        _emit(_hit_json(hit))
        return 0
    box = _search_box(args)
    kmax = args.kmax if args.kmax is not None else args.box
    if kmax is None:
        raise UsageError("search needs --kmax when --box is not given")
    if kmax < 0:
        raise UsageError(f"--kmax must be >= 0, got {kmax}")
    hits = search_region(box, (-kmax, kmax), shards=args.shards,
                         progress=_emit_stderr)
    for hit in hits:
        _emit(_hit_json(hit))
    _emit_stderr({"event": "search_done", "hits": len(hits)})
    return 0


def _cmd_certify(args) -> int:
    result = certify(args.beta, args.k)
    if isinstance(result, FailureReport):
        _emit({"error": result.reason, "condition": result.condition})
        return 1
    payload = result.to_json_bytes().decode("ascii")
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    sys.stdout.write(payload + "\n")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            # one byte over the cap is enough for the verifier to refuse it
            data = fh.read(MAX_CERT_BYTES + 1)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from None
    valid = verify_certificate(data)
    _emit({"valid": valid})
    return 0 if valid else 1


def _cmd_stats(args) -> int:
    if not 0 <= args.box <= STATS_MAX_BOX:
        raise UsageError(f"stats --box must be between 0 and {STATS_MAX_BOX}, "
                         f"got {args.box}")
    stats = prime_density_stats(Box.centered(args.box))
    ratio = stats.target_ratio
    classes = [
        {"re": cls[0], "im": cls[1], "count": count}
        for cls, count in sorted(stats.class_counts.items())
    ]
    _emit({
        "total_primes": stats.total_primes,
        "target_class": {"re": stats.target_class[0], "im": stats.target_class[1]},
        "target_count": stats.target_count,
        "target_ratio": f"{ratio.numerator}/{ratio.denominator}",
        "associate_union_count": stats.associate_union_count(),
        "classes": classes,
    })
    return 0


_HANDLERS = {
    "factor": _cmd_factor,
    "symbol": _cmd_symbol,
    "invariants": _cmd_invariants,
    "torsion": _cmd_torsion,
    "selmer": _cmd_selmer,
    "search": _cmd_search,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        _emit({"error": str(exc)})
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        _emit({"error": str(exc)})
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
