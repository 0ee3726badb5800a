"""Regenerate ``anchors.json``: the expected outputs of every seeded region.

Usage (from the root of a checkout):

    python3 perfbench/anchors.py

Seeds map onto a 5 x 5 grid of translations, so the file lists every
region a seed can produce.  For each region it records the hit count and
the sha256 of the hit list, of the concatenated certificate bytes and of
the census that the qirank at this commit prints.  Before recording, every
value is checked against an enumeration that shares no code with qirank:
the set of constellations found by testing each (beta, k) directly with
sympy, and a census counted from a separate sieve.  A mismatch stops the
script.  Regenerate only when the project's output contract changes on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import common
import oracle
import run

ANCHORS = run.HERE / "anchors.json"


def oracle_hits(reg: dict) -> list[tuple[int, int, int]]:
    """Every (beta, k) in the region whose four values are primes = -1-6i mod 16."""
    re_min, re_max, im_min, im_max = reg["box"]
    k_lo, k_hi = reg["k_range"]
    found = []
    for k in range(k_lo, k_hi + 1):
        if k == 0:
            continue
        # p_1 = beta + k(-1 + i) must lie in the target class; the other
        # three differ from p_1 by multiples of k, so whether they do too
        # depends on k alone
        c_re = (oracle.TARGET[0] + k) % 16
        c_im = (oracle.TARGET[1] - k) % 16
        if not all(oracle.in_target_class(p) for p in oracle.constellation(c_re, c_im, k)):
            continue
        for a in range(re_min + (c_re - re_min) % 16, re_max + 1, 16):
            for b in range(im_min + (c_im - im_min) % 16, im_max + 1, 16):
                values = oracle.constellation(a, b, k)
                if all(oracle.in_target_class(p) for p in values) and all(
                        oracle.is_gaussian_prime(p) for p in values):
                    found.append((a, b, k))
    return found


def oracle_census(box: list[int]) -> tuple[int, dict]:
    re_min, re_max, im_min, im_max = box
    m = max(abs(re_min), abs(re_max), abs(im_min), abs(im_max))
    limit = 2 * m * m
    composite = bytearray(limit + 1)
    composite[0] = composite[1] = 1
    for p in range(2, int(limit ** 0.5) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
    total, counts = 0, {}
    for a in range(re_min, re_max + 1):
        for b in range(im_min, im_max + 1):
            if a and b:
                prime = not composite[a * a + b * b]
            else:
                q = abs(a or b)
                prime = q % 4 == 3 and not composite[q]
            if prime:
                total += 1
                if (a + b) % 2:
                    key = (a % 16, b % 16)
                    counts[key] = counts.get(key, 0) + 1
    return total, counts


def record(workload: str, d: tuple[int, int], qirank) -> dict:
    reg = run.region(workload, d)
    box = qirank.Box(*reg["box"])
    if workload == "census":
        stats = qirank.prime_density_stats(box)
        census = common.census_dict(stats)
        total, counts = oracle_census(reg["box"])
        if (total, counts) != (stats.total_primes, stats.class_counts):
            raise SystemExit(f"census of {reg['box']} disagrees with the oracle")
        return {"total_primes": total, "census_sha256": oracle.census_sha256(census)}
    hits = qirank.search_region(box, tuple(reg["k_range"]), shards=reg["shards"])
    rows = common.hit_rows(hits)
    expected = sorted(oracle_hits(reg))
    if sorted(tuple(r[:3]) for r in rows) != expected:
        raise SystemExit(f"hits of {reg} disagree with the oracle")
    for row in rows:
        if oracle.hit_problems(row):
            raise SystemExit(f"bad hit {row}: {oracle.hit_problems(row)}")
    entry = {"hits": len(rows), "hits_sha256": oracle.hits_sha256(rows)}
    if workload != "search-origin":
        certs = [qirank.certify(h.beta, h.k).to_json_bytes().decode("ascii") for h in hits]
        entry["certs_sha256"] = oracle.certs_sha256(certs)
    return entry


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import qirank

    steps = range(-run.OFFSET_STEPS, run.OFFSET_STEPS + 1)
    cli = subprocess.run([sys.executable, *run.CLI_COMMAND], cwd=run.ROOT, check=True,
                         capture_output=True, env={"PYTHONPATH": str(run.SRC)})
    anchors = {"cli_certify_sha256": hashlib.sha256(cli.stdout).hexdigest(), "workloads": {}}
    for workload in run.WORKLOADS:
        table = anchors["workloads"][workload] = {}
        for u in steps:
            for v in steps:
                d = (16 * u, 16 * v)
                table[f"{d[0]},{d[1]}"] = record(workload, d, qirank)
                print(workload, d, table[f"{d[0]},{d[1]}"], flush=True)
    ANCHORS.write_text(json.dumps(anchors, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
