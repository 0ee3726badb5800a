"""Spans around qirank's public functions, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules, plus a few named methods, with a wrapper that records one
span per call.  Each name is replaced wherever a caller looks it up: in the
defining module, in every other qirank module that imported it, and in the
package namespace.  Spans are aggregated in memory per name as
``[calls, inclusive seconds, self seconds]``; a span's self time is its
duration minus the time its child spans cover.  Inclusive time counts only
the outermost call of a recursive function.

Sharded searches run ``qirank.search._scan_shard`` in forked pool workers.
The wrapper around it resets the inherited aggregate in the worker, runs
the shard and writes the worker's aggregate and its use of the program's
caches to a file in ``spool_dir``; ``merge_spool`` folds those files into
the measuring process.  Time the measuring process spends blocked on the
pool is its own span, ``pool.wait``, so it is not counted as search self
time.

``GaussInt`` operators are not wrapped: they run about 10^6 times per run,
so their time shows up in the self time of whichever span called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("gaussian", "primes", "residues", "selmer", "curves", "search",
           "certify", "cli")

# (module, class, attribute, span name) for methods that get spans
METHODS = (
    ("gaussian", "GaussRat", "of", "gaussian.GaussRat.of"),
    ("certify", "Certificate", "to_json_bytes", "certify.to_json_bytes"),
)

SHARD_FUNCTION = ("search", "_scan_shard")


class Tracer:
    def __init__(self, spool_dir: str, caches: dict):
        self.stats: dict[str, list] = {}
        self.stack: list[list[float]] = []
        self.spool_dir = spool_dir
        self.caches = caches  # qualified name -> lru_cache-wrapped function
        self.worker_cache_use = {name: [0, 0] for name in caches}
        self.pid = os.getpid()

    def _span(self, name: str, fn):
        # [calls, inclusive s, self s, active depth]
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            entry[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry[3] -= 1
                entry[0] += 1
                entry[2] += elapsed - frame[0]
                if entry[3] == 0:
                    entry[1] += elapsed

        return wrapper

    def _shard_span(self, fn):
        inner = self._span("search._scan_shard", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return inner(*args, **kwargs)
            # forked worker: drop what was inherited from the parent
            for entry in self.stats.values():
                entry[:] = [0, 0.0, 0.0, 0]
            self.stack.clear()
            before = self._cache_use()
            result = inner(*args, **kwargs)
            after = self._cache_use()
            path = os.path.join(
                self.spool_dir, f"{os.getpid()}-{time.perf_counter_ns()}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump({
                    "spans": self.summary(),
                    "caches": {n: [a - b for a, b in zip(after[n], before[n])]
                               for n in after},
                }, fh)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced names of an imported qirank package.

        A name that does not exist gets no span, so every metric built on it
        is reported as missing.
        """
        modules = [package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".")
        ]
        replacements = []  # (original, wrapper)
        for short in MODULES:
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replacements.append((obj, self._span(f"{short}.{name}", obj)))
        for short, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules.get(f"{package.__name__}.{short}"), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._span(span_name, raw.__func__)))
            else:
                setattr(cls, attr, self._span(span_name, raw))
        search = sys.modules.get(f"{package.__name__}.{SHARD_FUNCTION[0]}")
        shard_fn = getattr(search, SHARD_FUNCTION[1], None)
        if shard_fn is not None:
            replacements.append((shard_fn, self._shard_span(shard_fn)))
        pool_cls = getattr(search, "ProcessPoolExecutor", None)
        if pool_cls is not None:
            search.ProcessPoolExecutor = self._timed_pool(pool_cls)
        for original, wrapper in replacements:
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, name, wrapper)

    def _timed_pool(self, pool_cls):
        wait = self._span("pool.wait", list)

        class TimedPool(pool_cls):
            def map(self, fn, *iterables, **kwargs):
                return wait(super().map(fn, *iterables, **kwargs))

        return TimedPool

    def _cache_use(self) -> dict[str, list[int]]:
        return {n: [fn.cache_info().hits, fn.cache_info().misses]
                for n, fn in self.caches.items()}

    def merge_spool(self) -> None:
        """Fold pool workers' spans and cache use into this process."""
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="ascii") as fh:
                worker = json.load(fh)
            os.remove(path)
            for key, (calls, incl, self_s) in worker["spans"].items():
                entry = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
            for key, (hits, misses) in worker["caches"].items():
                self.worker_cache_use[key][0] += hits
                self.worker_cache_use[key][1] += misses

    def summary(self) -> dict[str, list]:
        return {k: v[:3] for k, v in self.stats.items()}
