"""The benchmark's traced per-layer names still exist and are still called.

``perfbench/run.py`` reports a predicted ``<module>.<function>.calls`` or
``<module>.<function>.s`` metric from the span around that function, and
lists the metric as missing when the function is gone or saw no calls on
the workload.  This test reads ``perfbench/predictions.json`` (it never
writes it) and runs a small single-shard stand-in for each workload under
``cProfile``, so a rename or a call path that no longer reaches a traced
function fails here first.
"""

import cProfile
import functools
import importlib
import inspect
import json
import pstats
import sys
from pathlib import Path

import pytest

from qirank.certify import certify, verify_certificate
from qirank.search import Box, prime_density_stats, search_region

PREDICTIONS = Path(__file__).resolve().parent.parent / "perfbench" / "predictions.json"
ROWS = json.loads(PREDICTIONS.read_text(encoding="utf-8"))["rows"]
WORKLOADS = sorted({w for row in ROWS for w in row["on"]})

# spans name this method after its module, not its class
METHOD_SPANS = {"certify.to_json_bytes": "certify.Certificate.to_json_bytes"}


def traced_functions(workload):
    """Functions behind the workload's span metrics, by run.py's layer_metrics rule."""
    return sorted({
        name.rsplit(".", 1)[0]
        for row in ROWS if workload in row["on"]
        for name in row["metrics"]
        if name.endswith(".calls") or (name.endswith(".s") and name.count(".") >= 2)
    })


def resolve(name):
    """The cProfile key of a traced name such as ``gaussian.GaussRat.of``."""
    module, *path = METHOD_SPANS.get(name, name).split(".")
    obj = functools.reduce(getattr, path, importlib.import_module(f"qirank.{module}"))
    obj = inspect.unwrap(obj)
    code = getattr(obj, "__func__", obj).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profiled(job):
    """Call counts of every Python function the job ran, by code location.

    The package's caches start cold, as in the benchmark's fresh
    interpreters: a cache hit never reaches the function cProfile sees.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("qirank."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    profile = cProfile.Profile()
    profile.runcall(job)
    stats = pstats.Stats(profile).stats
    return {key: value[1] for key, value in stats.items()}


def search_job():
    return search_region(Box.centered(32), (-32, 32))


@pytest.fixture(scope="module")
def calls_by_workload():
    hits = search_job()
    assert hits

    def certify_job():
        for hit in hits:
            cert = certify(hit.beta, hit.k)
            assert verify_certificate(cert.to_json_bytes())

    search = profiled(search_job)
    cert = profiled(certify_job)
    census = profiled(lambda: prime_density_stats(Box.centered(16)))
    both = {key: search.get(key, 0) + cert.get(key, 0) for key in search.keys() | cert.keys()}
    return {"search-origin": search, "certify-origin": cert, "far": both,
            "census": census}


def test_every_workload_has_a_stand_in(calls_by_workload):
    assert WORKLOADS == sorted(calls_by_workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_names_exist(workload):
    names = traced_functions(workload)
    assert names
    for name in names:
        resolve(name)  # raises AttributeError when the function is gone


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_names_are_called(workload, calls_by_workload):
    calls = calls_by_workload[workload]
    uncalled = [name for name in traced_functions(workload)
                if calls.get(resolve(name), 0) < 1]
    assert uncalled == []
