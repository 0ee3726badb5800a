"""qirank benchmark: four seeded workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each a closed loop, one timed phase after another):

    search-origin   search_region(Box.centered(256), (-256, 256)), 1 shard
    certify-origin  certify, serialize and verify every hit of box = k = 256
    far             193x193 beta window centred at 2^20 + 2^20 i,
                    k in [2^18, 2^18 + 8192], 2 shards, then certify and
                    verify every hit found
    census          prime_density_stats(Box.centered(1000))

Seed 0 is the anchor region; any other seed translates the region by
16 * (u, v) with |u|, |v| <= 2, which keeps the residue classes and operand
sizes comparable.  Every timed phase runs in a fresh interpreter
(``measure.py``) with cold program caches, because every qirank CLI
invocation pays that cost.  The benchmark makes the inputs in its own
process and hands them over.

Every output is checked: each hit by an oracle that uses sympy, not qirank
(``oracle.py``), and the hit list, the certificate bytes and the census
against the digests in ``anchors.json``.  With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from traced phases (``spans.py``) run alternately with untraced
ones.  The line before it is a report with every metric the run measured,
by name and unit, the names of predicted metrics that were not measured,
and the time of every phase.  README.md defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common
import oracle
from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("search-origin", "certify-origin", "far", "census")
ORIGIN_SEARCH_RADIUS = 256
ORIGIN_CERTIFY_RADIUS = 256
FAR_CENTRE = 1 << 20
FAR_HALF_WIDTH = 96
FAR_K_RANGE = [1 << 18, (1 << 18) + 8192]
FAR_SHARDS = 2
CENSUS_RADIUS = 1000
OFFSET_STEPS = 2

# a run that has not finished after this many seconds is stopped and fails
HARD_LIMIT_S = 170.0
MIN_ITERATIONS = 3          # untraced timed phases per --trace 0 run
MIN_TRACED_ITERATIONS = 2   # of each kind per --trace 1 run
CLI_REPEATS = 3
CLI_COMMAND = ["-m", "qirank.cli", "certify", "15+10i", "16"]

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics every workload reports; the report line has the rest
PER_LAYER = (
    "search.constellation_at.calls", "search.filter_pass",
    "primes.is_gaussian_prime.calls", "primes.is_rational_prime.misses",
    "residues.euler_symbol.calls", "residues.mn_invariants.calls",
    "gaussian.GaussRat.of.calls", "gaussian.gcd.calls", "gaussian.mod_pow.calls",
    "curves.on_curve.calls",
    "gaussian.self_pct", "primes.self_pct", "residues.self_pct", "selmer.self_pct",
    "curves.self_pct", "search.self_pct", "certify.self_pct",
    "search.self_s", "primes.self_s",
    "cli.cold_start_s", "cli.import.sympy_s", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "pairs_per_s":
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or ".p50" in name or ".p90" in name:
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "efficiency", "frac")):
        return "ratio"
    if name == "certify.cert_bytes":
        return "bytes"
    return "count"


def offset(workload: str, seed: int) -> tuple[int, int]:
    """Translation of the workload's region for a seed; seed 0 is the anchor."""
    if seed == 0:
        return (0, 0)
    rng = random.Random(f"{workload}:{seed}")
    return (16 * rng.randint(-OFFSET_STEPS, OFFSET_STEPS),
            16 * rng.randint(-OFFSET_STEPS, OFFSET_STEPS))


def region(workload: str, d: tuple[int, int]) -> dict:
    """Box [re_min, re_max, im_min, im_max], k range and shards, translated by d."""
    if workload == "far":
        lo, hi = FAR_CENTRE - FAR_HALF_WIDTH, FAR_CENTRE + FAR_HALF_WIDTH
        box, k_range, shards = [lo, hi, lo, hi], FAR_K_RANGE, FAR_SHARDS
    else:
        r = {"search-origin": ORIGIN_SEARCH_RADIUS,
             "certify-origin": ORIGIN_CERTIFY_RADIUS,
             "census": CENSUS_RADIUS}[workload]
        box, k_range, shards = [-r, r, -r, r], [-r, r], 1
    box = [box[0] + d[0], box[1] + d[0], box[2] + d[1], box[3] + d[1]]
    return {"box": box, "k_range": k_range, "shards": shards}


def pairs_in(reg: dict) -> int:
    re_min, re_max, im_min, im_max = reg["box"]
    k_lo, k_hi = reg["k_range"]
    return (re_max - re_min + 1) * (im_max - im_min + 1) * (k_hi - k_lo + 1)


class Checker:
    """Counts checked outputs and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def digest(self, what: str, got: str, expected) -> None:
        if expected is None:
            self.check([f"no anchor for {what}"])
        else:
            self.check([] if got == expected else [f"{what} digest {got} != {expected}"])

    def hits(self, rows: list, anchor: dict) -> None:
        for row in rows:
            self.check(oracle.hit_problems(row))
        self.digest("hit list", oracle.hits_sha256(rows), anchor.get("hits_sha256"))

    def certificates(self, out: dict, rows: list, anchor: dict) -> None:
        if len(out["certs"]) != len(rows):
            self.check([f"{len(out['certs'])} certificates for {len(rows)} hits"])
            return
        for text, ok, row in zip(out["certs"], out["verified"], rows):
            problems = oracle.certificate_problems(text, row)
            if not ok:
                problems.append(f"({row[0]},{row[1]},{row[2]}): verify_certificate "
                                "rejected its own certificate")
            self.check(problems)
        self.digest("certificate bytes", oracle.certs_sha256(out["certs"]),
                    anchor.get("certs_sha256"))

    def iteration(self, job: dict, out: dict, anchor: dict, rows: list | None) -> None:
        if "hits" in out:
            rows = out["hits"]
            self.hits(rows, anchor)
            reported = sum(r["hits"] for r in out["progress"] if r.get("event") == "shard_done")
            self.check([] if reported == len(rows) else
                       [f"progress records report {reported} hits, search returned {len(rows)}"])
        if "certs" in out:
            self.certificates(out, rows, anchor)
        if "census" in out:
            self.check(oracle.census_problems(out["census"], job["box"]))
            self.digest("census", oracle.census_sha256(out["census"]),
                        anchor.get("census_sha256"))


def wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "ready":
        raise RuntimeError("measuring process did not start")


def measure_once(job: dict, deadline: float) -> tuple[float, dict]:
    """Run one timed phase in a fresh interpreter; returns (raw set-up s, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True, start_new_session=True,
    )
    try:
        wait_ready(proc, deadline)
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job) + "\n",
                                    timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        # the session holds the measuring process and its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    probe = result["import_probe"]
    result["setup_s"] = (setup_s - probe["spent_s"]) * probe["speed"]
    return setup_s, result


def percentiles(name: str, samples: list[float], report: dict) -> None:
    """p50 and p90, each only when at least 10 samples lie beyond it."""
    report[f"{name}.n"] = len(samples)
    ordered = sorted(samples)
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        if not ordered:
            break
        value = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        if sum(1 for s in ordered if s > value) >= 10:
            report[f"{name}.{label}"] = value


def end_to_end(reg: dict, untraced: list, setups: list, setups_ref: list) -> dict:
    report = {
        "wall_s": statistics.median(o["wall_s"] for o in untraced),
        "wall_ref_s": statistics.median(o["wall_ref_s"] for o in untraced),
        "setup_wall_s": statistics.median(setups),
        "setup_s": statistics.median(setups_ref),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in untraced),
    }
    if "search_s" in untraced[0]:
        report["pairs_per_s"] = pairs_in(reg) / statistics.median(
            o["search_s"] for o in untraced)
    if "certify_ms" in untraced[0]:
        percentiles("certify_ms", [s for o in untraced for s in o["certify_ms"]], report)
        percentiles("verify_ms", [s for o in untraced for s in o["verify_ms"]], report)
    return report


def predicted(workload: str) -> dict[str, bool]:
    """Per-layer metric name -> whether the table says it moves on this workload."""
    table = json.loads((HERE / "predictions.json").read_text())
    return {m: workload in row["on"] for row in table["rows"] for m in row["metrics"]}


def layer_metrics(out: dict, expected: dict[str, bool]) -> dict:
    """Per-layer metrics of one traced phase; None marks a metric not measured."""
    spans = out["spans"]
    values: dict = {}

    def from_span(name: str, field: int) -> None:
        fn = name.rsplit(".", 1)[0]
        entry = spans.get(fn)
        if entry is None or (entry[0] == 0 and expected.get(name)):
            values[name] = None
        else:
            values[name] = entry[field]

    for name in list(expected) + list(PER_LAYER):
        if name.endswith(".calls"):
            from_span(name, 0)
        elif name.endswith(".s") and name.count(".") >= 2:
            from_span(name, 1)

    module_self = {m: 0.0 for m in MODULES}
    for fn, (_, _, self_s) in spans.items():
        module = fn.split(".", 1)[0]
        if module in module_self:
            module_self[module] += self_s
    total_self = sum(module_self.values())
    for m, self_s in module_self.items():
        if any(fn.startswith(m + ".") for fn in spans):
            values[f"{m}.self_s"] = self_s
            values[f"{m}.self_pct"] = 100.0 * self_s / total_self if total_self else None
        else:
            values[f"{m}.self_s"] = values[f"{m}.self_pct"] = None
        if expected.get(f"{m}.self_s") and not values[f"{m}.self_s"]:
            values[f"{m}.self_s"] = None
    values["pool.wait_s"] = spans.get("pool.wait", [0, 0.0])[1]

    shards = [r for r in out.get("progress", []) if r.get("event") == "shard_done"]
    for key in ("candidates", "filter_pass", "hits"):
        name = f"search.{key}"
        values[name] = (None if not shards and expected.get(name)
                        else sum(r[key] for r in shards))
    passes = values["search.filter_pass"]
    values["search.hit_ratio"] = values["search.hits"] / passes if passes else None

    info = out["cache_info"].get("qirank.primes.is_rational_prime")
    if info is None or (info["misses"] == 0 and expected.get("primes.is_rational_prime.misses")):
        values["primes.is_rational_prime.misses"] = None
    else:
        values["primes.is_rational_prime.misses"] = info["misses"]
    lookups = info["hits"] + info["misses"] if info else 0
    values["primes.is_rational_prime.cache_hit_ratio"] = (
        info["hits"] / lookups if lookups else None)

    cert_bytes = sum(len(c) for c in out.get("certs", []) if c)
    values["certify.cert_bytes"] = (
        None if not cert_bytes and expected.get("certify.cert_bytes") else cert_bytes)
    return values


def sympy_import_s(stderr: str) -> float:
    """Cumulative import time of sympy from ``-X importtime`` output; 0 if not imported."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1].strip()) / 1e6
    return 0.0


def cli_metrics(anchors: dict, checker: Checker, deadline: float) -> dict:
    """Cold start of a fresh ``qirank certify`` and sympy's share of its imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cold, sympy = [], []
    for flags, sink in (([], cold), (["-X", "importtime"], sympy)):
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *flags, *CLI_COMMAND], cwd=ROOT, env=env,
                                  capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
            elapsed = time.perf_counter() - start
            digest = hashlib.sha256(proc.stdout).hexdigest()
            checker.check([] if proc.returncode == 0 and digest == anchors["cli_certify_sha256"]
                          else [f"qirank certify 15+10i 16 printed {digest}, "
                                f"exit {proc.returncode}"])
            sink.append(elapsed if not flags else sympy_import_s(proc.stderr.decode()))
    return {"cli.cold_start_s": statistics.median(cold),
            "cli.import.sympy_s": statistics.median(sympy)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "qirank" / "__init__.py").is_file():
        print(f"perfbench: no qirank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qirank

    anchors = json.loads((HERE / "anchors.json").read_text())
    d = offset(args.workload, args.seed)
    anchor = anchors["workloads"][args.workload].get(f"{d[0]},{d[1]}", {})
    reg = region(args.workload, d)
    checker = Checker()

    kind = {"search-origin": "search", "certify-origin": "certify"}.get(args.workload, args.workload)
    job = dict(reg, kind=kind)
    rows = None
    runs: dict[bool, list] = {False: [], True: []}
    setups: list[float] = []
    setups_ref: list[float] = []
    cli: dict = {}
    serial_search_s = None
    plan = [False, True] if args.trace else [False]
    spool = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if kind == "certify":
            # inputs: the region's hit list, made here and checked, not timed
            rows = common.hit_rows(qirank.search_region(qirank.Box(*reg["box"]),
                                                        tuple(reg["k_range"])))
            checker.hits(rows, anchor)
            job["pairs"] = [row[:3] for row in rows]
        start = time.perf_counter()
        if args.trace:
            # the traced run's extra measurements come first, so that the
            # phase loop below keeps the whole run within --seconds
            cli = cli_metrics(anchors, checker, deadline)
            if args.workload == "far":
                _, serial = measure_once(dict(job, kind="search", shards=1, trace=False,
                                              spool_dir=spool), deadline)
                checker.hits(serial["hits"], anchor)
                serial_search_s = serial["search_s"]
        loop_start = time.perf_counter()
        while True:
            traced = plan[(len(runs[False]) + len(runs[True])) % len(plan)]
            setup_s, out = measure_once(dict(job, trace=traced, spool_dir=spool), deadline)
            setups.append(setup_s)
            setups_ref.append(out["setup_s"])
            runs[traced].append(out)
            checker.iteration(job, out, anchor, rows)
            done = sum(len(v) for v in runs.values())
            enough = all(len(runs[p]) >= (MIN_TRACED_ITERATIONS if args.trace
                                          else MIN_ITERATIONS) for p in plan)
            now = time.perf_counter()
            if enough and now - start + (now - loop_start) / done > args.seconds:
                break
    except Exception as exc:
        # a program that crashed, overran or printed no result has failed
        # an output: the run still reports what it measured
        print(f"perfbench: measurement stopped: {exc!r}", file=sys.stderr)
        checker.check([f"measurement stopped: {type(exc).__name__}"])
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    report = end_to_end(reg, runs[False], setups, setups_ref) if runs[False] else {}
    missing: list[str] = []
    if args.trace and runs[True] and report:
        expected = predicted(args.workload)
        per_run = [layer_metrics(out, expected) for out in runs[True]]
        layer = {}
        for name in per_run[0]:
            values = [v[name] for v in per_run]
            if None in values:
                if expected.get(name) or name in PER_LAYER:
                    missing.append(name)
            elif all(isinstance(v, int) for v in values):
                layer[name] = statistics.median_low(values)
            else:
                layer[name] = statistics.median(values)
        layer["trace.overhead_s"] = (statistics.median(o["wall_ref_s"] for o in runs[True])
                                     - report["wall_ref_s"])
        layer.update(cli)
        if serial_search_s is not None:
            layer["search.parallel_efficiency"] = serial_search_s / (
                FAR_SHARDS * statistics.median(o["search_s"] for o in runs[False]))
        missing += sorted(n for n, on in expected.items()
                          if on and n not in layer and n not in missing)
        report.update(layer)

    report["failed_frac"] = checker.failed / checker.attempted
    wanted = PER_LAYER if args.trace else tuple(END_TO_END)
    correct = checker.failed == 0
    for problem in checker.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "report": {
            "workload": args.workload, "seed": args.seed, "offset": list(d),
            "trace": args.trace, "iterations": {"untraced": len(runs[False]),
                                                "traced": len(runs[True])},
            "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in sorted(report.items())},
            "missing": missing,
            "phases": {
                "wall_s": [o["wall_s"] for o in runs[False]],
                "wall_ref_s": [o["wall_ref_s"] for o in runs[False]],
                "setup_wall_s": setups,
                "setup_s": setups_ref,
                "probe_s": [o["probe_s"] for o in runs[False]],
            },
        }
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": report[n], "unit": unit_of(n)} for n in wanted if n in report},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
