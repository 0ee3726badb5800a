"""One measuring process: a fresh interpreter that runs one timed phase.

Usage: python3 measure.py <checkout root>

The process imports qirank from ``<root>/src``, prints ``ready`` and then
reads one JSON job from stdin.  The parent times the interval up to
``ready`` as set-up.  Before timing, the process checks that no qirank
cache is warm, so it pays what a fresh CLI invocation pays.  It prints one
JSON result line: the phase's wall time, that time at a fixed reference
speed (see ``SpeedProbe``, which also runs during the import so that the
parent can convert set-up time the same way), program outputs for the
parent to check, peak RSS and, for a traced job, the span aggregate.
"""

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import common

PROBE_INTERVAL_S = 0.02
CALIBRATION_S = 0.1
REFERENCE_STEPS = 25
REFERENCE_NOMINAL_S = 0.25e-3


class _Pair:
    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _Pair(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Pair(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)


def reference_work() -> None:
    """A fixed mix of the work qirank does: small objects, dicts and modpow."""
    p, q, acc = _Pair(12345678901, -98765432109), _Pair(3, 2), _Pair(0, 0)
    seen = {}
    for n in range(REFERENCE_STEPS):
        acc = acc + p * q
        p = _Pair(p.re % 100000007 + n, p.im % 100000007)
        m = (p.re * p.re + p.im * p.im) | 1
        seen[m] = pow(3, m >> 1, m) == 1
        seen.get(m - 2)


class SpeedProbe:
    """Samples the machine's speed while a phase runs.

    On a 2-vCPU virtual machine whose cores are shared with other tenants,
    the same Python code ran up to 2x slower for tens of seconds at a time,
    so raw phase times of runs made minutes apart differed by 20-50%.
    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times
    ``reference_work``.  The phase's wall time divided by the median sample,
    times REFERENCE_NOMINAL_S, is the time the phase would take at a fixed
    reference speed.  The handler's own time is taken out of the phase's
    wall time.

    While pool workers run, a sample would share the CPUs with them, and
    the median would then depend on how much of the phase is parallel.
    ``paused`` therefore takes no samples inside its block and instead
    samples back to back for CALIBRATION_S on each side of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.active = True

    def _take(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _sample(self, signum, frame) -> None:
        if self.active:
            self.spent_s += self._take()

    def _calibrate(self) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < CALIBRATION_S:
            self._take()
        self.spent_s += time.perf_counter() - start

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        self._calibrate()
        try:
            yield
        finally:
            self._calibrate()
            self.active = True

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def at_reference_speed(self, wall_s: float) -> float:
        return wall_s * REFERENCE_NOMINAL_S / statistics.median(
            self.samples or [REFERENCE_NOMINAL_S])


ROOT = os.path.abspath(sys.argv[1])
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

with SpeedProbe() as IMPORT_PROBE:
    import qirank

if not os.path.abspath(qirank.__file__).startswith(SRC + os.sep):
    sys.exit(f"qirank imported from {qirank.__file__}, not from {SRC}")
print("ready", flush=True)


def program_caches() -> dict:
    """Every cached qirank function, by qualified name."""
    caches = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "qirank" and not name.startswith("qirank."):
            continue
        for attr, obj in vars(mod).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == name):
                caches[f"{name}.{attr}"] = obj
    return caches


def box_of(spec):
    return qirank.Box(*spec)


def run_search(job, out, probe):
    records = []
    pool = probe.paused() if job["shards"] > 1 else contextlib.nullcontext()
    with pool:
        start = time.perf_counter()
        hits = qirank.search_region(box_of(job["box"]), tuple(job["k_range"]),
                                    shards=job["shards"], progress=records.append)
        out["search_s"] = time.perf_counter() - start
    out["hits"] = common.hit_rows(hits)
    out["progress"] = records
    return hits


def run_certify(pairs, out):
    certify_ms, verify_ms, certs, verified = [], [], [], []
    clock = time.perf_counter
    for a, b, k in pairs:
        t0 = clock()
        cert = qirank.certify(qirank.GaussInt(a, b), k)
        certify_ms.append((clock() - t0) * 1e3)
        if isinstance(cert, qirank.FailureReport):
            certs.append(None)
            verified.append(False)
            continue
        data = cert.to_json_bytes()
        t0 = clock()
        ok = qirank.verify_certificate(data)
        verify_ms.append((clock() - t0) * 1e3)
        certs.append(data.decode("ascii"))
        verified.append(ok is True)
    out.update(certify_ms=certify_ms, verify_ms=verify_ms, certs=certs,
               verified=verified)


def run_phase(job, out, probe):
    kind = job["kind"]
    if kind == "search":
        run_search(job, out, probe)
    elif kind == "certify":
        run_certify(job["pairs"], out)
    elif kind == "far":
        hits = run_search(job, out, probe)
        run_certify([(h.beta.re, h.beta.im, h.k) for h in hits], out)
    elif kind == "census":
        stats = qirank.prime_density_stats(box_of(job["box"]))
        out["census"] = common.census_dict(stats)
    else:
        raise ValueError(f"unknown job kind {kind!r}")


def main() -> None:
    job = json.loads(sys.stdin.readline())
    caches = program_caches()
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    if warm:
        sys.exit(f"qirank caches are warm before timing: {warm}")
    out = {}
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(job["spool_dir"], caches)
        tracer.install(qirank)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        run_phase(job, out, probe)
        wall_s = time.perf_counter() - start
    out["wall_s"] = wall_s - probe.spent_s
    out["wall_ref_s"] = probe.at_reference_speed(out["wall_s"])
    out["probe_s"] = statistics.median(probe.samples) if probe.samples else None
    # the parent times set-up up to "ready"; this converts it the same way
    out["import_probe"] = {"spent_s": IMPORT_PROBE.spent_s,
                           "speed": IMPORT_PROBE.at_reference_speed(1.0)}
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss_kb / 1024
    out["cache_info"] = {
        name: obj.cache_info()._asdict() for name, obj in caches.items()
    }
    if tracer is not None:
        tracer.merge_spool()
        for name, (hits, misses) in tracer.worker_cache_use.items():
            out["cache_info"][name]["hits"] += hits
            out["cache_info"][name]["misses"] += misses
        out["spans"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
