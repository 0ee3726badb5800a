"""The stand-alone verifier against certify, the F2 engine and euler_symbol."""

import ast
import collections
import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qirank import __version__, verifier
from qirank.certify import (
    Certificate,
    FailureReport,
    certify,
    verify_certificate,
)
from qirank.gaussian import GaussInt
from qirank.residues import euler_symbol, mn_invariants
from qirank.search import Box, search_region
from qirank.selmer import F2Matrix, candidate_classes, rank_upper_bound

from oracles import verify_by_recertify

# perfbench's `far` window: beta within 96 of 2^20(1+i), k in [2^18, 2^18 + 8192]
FAR_WINDOW_CENTRE, FAR_WINDOW_HALF_WIDTH = 1 << 20, 96
FAR_WINDOW_K = (1 << 18, (1 << 18) + 8192)

# beta = -1-6i mod 16 near 10^13 with k = 16: every norm is about 2e26
FAR_BETA = GaussInt(10 ** 13 + (15 - 10 ** 13) % 16, 10 ** 13 + (10 - 10 ** 13) % 16)


@pytest.fixture(scope="module")
def hits():
    found = search_region(Box.centered(48), (-48, 48))
    assert found
    return found


@pytest.fixture(scope="module")
def certificates(hits):
    certs = [certify(h.beta, h.k) for h in hits]
    assert all(isinstance(c, Certificate) for c in certs)
    return [json.loads(c.to_json_bytes()) for c in certs]


def outcome(check, obj):
    try:
        return check(obj)
    except ValueError:
        return "ValueError"


def flipped(leaf):
    if isinstance(leaf, bool):
        return not leaf
    if leaf.lstrip("-").isdigit():
        return str(int(leaf) + 1)
    return leaf + "x"


def containers(node, path=()):
    """(path, dict or list) for every container in the JSON tree."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from containers(child, path + (key,))


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def tampers(cert):
    """Every single-leaf change: each leaf flipped, each pair of list entries
    swapped, an extra key in each object, each key dropped."""
    for path, node in list(containers(cert)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            if not isinstance(node[key], (dict, list)):
                changed = copy.deepcopy(cert)
                at(changed, path)[key] = flipped(node[key])
                yield f"flip {path + (key,)}", changed
        if isinstance(node, list):
            for i in range(len(node)):
                for j in range(i + 1, len(node)):
                    changed = copy.deepcopy(cert)
                    target = at(changed, path)
                    target[i], target[j] = target[j], target[i]
                    yield f"swap {path} {i} {j}", changed
        else:
            changed = copy.deepcopy(cert)
            at(changed, path)["extra"] = "1"
            yield f"extra key in {path}", changed
            for key in keys:
                changed = copy.deepcopy(cert)
                del at(changed, path)[key]
                yield f"drop {path + (key,)}", changed


class TestDifferential:
    def test_every_hit_verifies_both_ways(self, certificates):
        for cert in certificates:
            text = json.dumps(cert)
            assert verify_certificate(text) is True
            assert verify_by_recertify(text) is True

    def test_single_leaf_tampers_agree_with_recertify(self, certificates):
        count = 0
        for cert in certificates:
            for label, changed in tampers(cert):
                text = json.dumps(changed)
                fast = outcome(verify_certificate, text)
                slow = outcome(verify_by_recertify, text)
                assert fast == slow, (cert["beta"], cert["k"], label)
                count += 1
                if not label.startswith(("flip ('toolchain',)", "drop ('toolchain',)")):
                    assert fast is not True, (cert["beta"], cert["k"], label)
        assert count > 100 * len(certificates)

    def test_residue_symbol_matches_euler_symbol(self, hits):
        for hit in hits:
            for p in hit.primes:
                for q in hit.primes:
                    if p != q:
                        fast = verifier.residue_symbol((p.re, p.im), (q.re, q.im))
                        assert fast == euler_symbol(p, q), (p, q)

    def test_target_class_fixes_nbar(self, hits):
        # the i-branch right-hand side the candidate constant assumes
        for hit in hits:
            assert [mn_invariants(p).n_bar for p in hit.primes] == [1, 1, 1, 1]


def far_window(seed):
    """The far window (seed 0) or a seeded translation of it.

    A translation by multiples of 16 keeps every residue class mod 16.
    """
    rng = random.Random(f"far window {seed}")
    d_re, d_im = (0, 0) if seed == 0 else (
        16 * rng.randint(-4096, 4096), 16 * rng.randint(-4096, 4096))
    lo = FAR_WINDOW_CENTRE - FAR_WINDOW_HALF_WIDTH
    hi = FAR_WINDOW_CENTRE + FAR_WINDOW_HALF_WIDTH
    return Box(lo + d_re, hi + d_re, lo + d_im, hi + d_im), FAR_WINDOW_K


DIFFERENTIAL_REGIONS = {
    "box256": (Box.centered(256), (-256, 256)),
    **{f"far{seed}": far_window(seed) for seed in range(3)},
}


def canonical(obj) -> bytes:
    return json.dumps(
        obj, sort_keys=True, ensure_ascii=True, separators=(",", ":")).encode("ascii")


def failure_kind(result):
    if not isinstance(result, FailureReport):
        return "certified"
    return result.reason.rsplit(" is ", 1)[-1]


class TestTwoDerivations:
    """certify's descent chain against the verifier's own derivation."""

    @pytest.mark.parametrize("region", sorted(DIFFERENTIAL_REGIONS))
    def test_every_hit_gives_the_expected_bytes(self, region):
        hits = search_region(*DIFFERENTIAL_REGIONS[region])
        assert hits
        for hit in hits:
            a, b, k = hit.beta.re, hit.beta.im, hit.k
            cert = certify(hit.beta, k)
            assert isinstance(cert, Certificate), (a, b, k)
            expected = verifier.expected_certificate(a, b, k)
            assert expected is not None, (a, b, k)
            expected["toolchain"] = f"qirank {__version__}"
            assert cert.to_json_bytes() == canonical(expected), (a, b, k)

    def test_refusals_agree_on_random_pairs(self):
        rng = random.Random(16)
        kinds = collections.Counter()
        for _ in range(3000):
            k = rng.choice((0, 8, -8, 16, -16, rng.randint(-300, 300)))
            if rng.random() < 0.5:
                # beta in the class the residue pre-filter wants for k = 0 or 8 mod 16
                cre, cim = (15, 10) if k % 16 == 0 else (7, 2)
                a, b = 16 * rng.randint(-19, 17) + cre, 16 * rng.randint(-19, 17) + cim
            else:
                a, b = rng.randint(-300, 300), rng.randint(-300, 300)
            result = certify(GaussInt(a, b), k)
            expected = verifier.expected_certificate(a, b, k)
            assert isinstance(result, FailureReport) == (expected is None), (a, b, k)
            kinds[failure_kind(result)] += 1
        assert set(kinds) == {"certified", "primes not distinct",
                              "not congruent to -1-6i mod 16", "not a Gaussian prime"}


class TestConstants:
    @pytest.mark.parametrize(
        "matrix", [F2Matrix.from_rows(rows) for rows in verifier.CONSTELLATION_ROWS])
    def test_f2_engine_gives_the_candidate_constant(self, matrix):
        # every n_bar is 1 in the target class
        candidates, dim = candidate_classes(matrix, 0b1111)
        assert candidates == verifier.SELMER_CANDIDATES
        assert dim == 2
        assert rank_upper_bound(dim) == 2


class TestBoundsAndInputs:
    def test_certify_refuses_above_bound_before_primality(self, monkeypatch):
        def no_primality(*args, **kwargs):
            raise AssertionError("no primality test may run above the bound")

        monkeypatch.setattr("qirank.search.is_gaussian_prime", no_primality)
        failure = certify(FAR_BETA, 16)
        assert isinstance(failure, FailureReport)
        assert str(verifier.MR_DETERMINISTIC_BOUND) in failure.condition

    def test_verifier_refuses_above_bound_before_primality(self, monkeypatch):
        def no_primality(n):
            raise AssertionError("no primality test may run above the bound")

        monkeypatch.setattr(verifier, "_is_prime", no_primality)
        obj = {"beta": FAR_BETA.to_json(), "k": "16", "version": "1"}
        assert verify_certificate(json.dumps(obj)) is False

    def test_composite_norm_refused(self, monkeypatch):
        # at (31-6i, 16) every claim but primality holds
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_is_prime", lambda n: True)
            forged = verifier.expected_certificate(31, -6, 16)
        assert forged is not None
        assert verify_certificate(json.dumps(forged)) is False
        assert verify_by_recertify(json.dumps(forged)) is False

    def test_value_outside_target_class_refused(self, monkeypatch):
        # at (5+30i, 1) the four norms are prime and L is a constellation
        # matrix, but the values are not -1-6i mod 16
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_in_target_class", lambda z: True)
            forged = verifier.expected_certificate(5, 30, 1)
        assert forged is not None
        assert verify_certificate(json.dumps(forged)) is False
        assert verify_by_recertify(json.dumps(forged)) is False

    def test_digit_cap(self):
        obj = {"beta": {"re": "1" * 40, "im": "0"}, "k": "16", "version": "1"}
        assert verify_certificate(json.dumps(obj)) is False
        obj["beta"]["re"] = "1" * 41
        with pytest.raises(ValueError, match="at most 40"):
            verify_certificate(json.dumps(obj))

    def test_json_types_are_compared(self, certificates):
        cert = copy.deepcopy(certificates[0])
        cert["genuine"]["value"] = 1
        assert verify_certificate(json.dumps(cert)) is False
        cert = copy.deepcopy(certificates[0])
        cert["k"] = int(cert["k"])
        with pytest.raises(ValueError):
            verify_certificate(json.dumps(cert))

    @pytest.mark.parametrize("value", [1, 1.0, "true"])
    def test_genuine_value_must_be_a_bool(self, certificates, value):
        # 1 == True and 1.0 == True in Python, so == alone would pass them
        cert = copy.deepcopy(certificates[0])
        cert["genuine"]["value"] = value
        assert verifier.verify(json.dumps(cert)) is False

    def test_dict_is_refused(self, certificates):
        # only certificate text is read: a parsed object fails in json.loads
        cert = copy.deepcopy(certificates[0])
        assert verify_certificate(json.dumps(cert)) is True
        for check in (verifier.verify, verify_certificate):
            with pytest.raises(TypeError):
                check(cert)

    def test_deep_nesting_is_malformed(self):
        # json.loads raises RecursionError at this depth
        depth = 100_000
        with pytest.raises(ValueError, match="^malformed certificate"):
            verify_certificate("[" * depth + "]" * depth)

    def test_size_cap(self, certificates):
        data = json.dumps(certificates[0]).encode("ascii")
        padded = data + b" " * (verifier.MAX_CERT_BYTES - len(data))
        assert verify_certificate(padded) is True
        assert verify_certificate(padded.decode("ascii")) is True
        for over in (padded + b" ", padded.decode("ascii") + " "):
            with pytest.raises(ValueError, match="^malformed certificate: longer than"):
                verify_certificate(over)


class TestStandAlone:
    SOURCE = Path(verifier.__file__)

    def test_imports_only_the_standard_library(self):
        tree = ast.parse(self.SOURCE.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                imported.append(node.module)
        assert imported
        for name in imported:
            assert name.split(".")[0] in sys.stdlib_module_names, name

    def test_runs_without_the_package(self, certificates):
        script = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('v', {str(self.SOURCE)!r})\n"
            "v = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(v)\n"
            "assert not any(m.startswith('qirank') for m in sys.modules)\n"
            "print(v.verify(sys.stdin.read()))\n"
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script], input=json.dumps(certificates[0]),
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "True"
