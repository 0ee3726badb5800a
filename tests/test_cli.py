import argparse
import json
import os
import re
import shlex
import time
from pathlib import Path

import pytest
from sympy import nextprime

from qirank.cli import _build_parser, run
from qirank.verifier import MAX_CERT_BYTES, MR_DETERMINISTIC_BOUND

from oracles import primary_primes_up_to_norm

README = Path(__file__).resolve().parent.parent / "README.md"


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines()] if out else []
    return code, lines


class TestSymbol:
    def test_symbol_value(self, capsys):
        code, lines = run_json(capsys, "symbol", "i", "-1-6i")
        assert code == 0
        assert lines == [{"value": -1}]

    def test_rejection_exit_code(self, capsys):
        code, lines = run_json(capsys, "symbol", "3", "5")
        assert code == 1
        assert "error" in lines[0]

    # euler_symbol takes an odd prime as given; the command checks it
    @pytest.mark.parametrize("numerator, prime, message", [
        ("3", "5", "5 is not a Gaussian prime"),
        ("3", "1+i", "1+i is even (the symbol needs an odd prime)"),
        ("-2-12i", "-1-6i", "-1-6i divides -2-12i"),
    ], ids=["composite", "even", "divides"])
    def test_rejects_bad_prime(self, capsys, numerator, prime, message):
        code, lines = run_json(capsys, "symbol", numerator, prime)
        assert code == 1
        assert lines == [{"error": message}]


class TestTorsion:
    def test_gamma_i(self, capsys):
        code, lines = run_json(capsys, "torsion", "i")
        assert code == 0
        assert lines[0]["group"] == "Z2xZ4"
        assert len(lines[0]["points"]) == 8

    def test_generic(self, capsys):
        code, lines = run_json(capsys, "torsion", "-1+2i")
        assert code == 0
        assert lines[0]["group"] == "Z2xZ2"

    @pytest.mark.parametrize("gamma, message", [
        ("0", "gamma must be nonzero"),
        ("4+2i", "4+2i is not square-free"),  # divisible by (1+i)^2
        ("9", "9 is not square-free"),
    ], ids=["0", "4+2i", "9"])
    def test_rejects_bad_gamma(self, capsys, gamma, message):
        code, lines = run_json(capsys, "torsion", gamma)
        assert code == 1
        assert lines == [{"error": message}]


class TestInvariantsAndFactor:
    def test_invariants(self, capsys):
        code, lines = run_json(capsys, "invariants", "-1-6i")
        assert code == 0
        assert lines[0] == {"m": 0, "n": 1, "n_bar": 1}

    def test_factor(self, capsys):
        code, lines = run_json(capsys, "factor", "-4")
        assert code == 0
        assert lines[0] == {"s": 0, "t": 4, "factors": []}

    @pytest.mark.parametrize("command", ["factor", "torsion"])
    def test_norm_above_bound_refused(self, capsys, command):
        n = str(nextprime(10**30) * nextprime(7 * 10**30))  # 61 digits
        start = time.monotonic()
        code, lines = run_json(capsys, command, n)
        assert time.monotonic() - start < 1
        assert code == 1
        assert lines == [{"error": f"the norm of {n} must be below "
                                   f"{MR_DETERMINISTIC_BOUND} to be factored"}]


class TestSelmer:
    # selmer_candidate_set takes distinct primary primes as given; the
    # command checks them
    @pytest.mark.parametrize("primes, message", [
        (["-1-6i", "-1-6i"], "primes must be pairwise distinct"),
        (["2+i"], "2+i is not a primary Gaussian prime"),  # prime, not primary
        (["9"], "9 is not a primary Gaussian prime"),  # primary, not prime
        # 1+i is prime but not primary: no element divisible by 1+i is
        (["1+i"], "1+i is not a primary Gaussian prime"),
        ([str(p) for p in primary_primes_up_to_norm(1000)[:65]],
         "at most 64 primes supported"),
    ], ids=["repeated", "not-primary", "not-prime", "even", "65-primes"])
    def test_rejects_bad_input(self, capsys, primes, message):
        code, lines = run_json(capsys, "selmer", *primes)
        assert code == 1
        assert lines == [{"error": message}]

    def test_single_prime(self, capsys):
        code, lines = run_json(capsys, "selmer", "-1-6i")
        assert code == 0
        assert lines[0]["dim"] == 1
        assert lines[0]["rank_upper"] == 0

    def test_constellation(self, capsys):
        code, lines = run_json(
            capsys, "selmer", "-1+26i", "-1-6i", "31-6i", "31+26i"
        )
        assert code == 0
        assert lines[0]["dim"] == 2
        assert lines[0]["L"] in (
            ["1001", "0011", "0110", "1100"],
            ["0110", "1100", "1001", "0011"],
        )
        assert lines[0]["candidates"] == [
            {"unit": "1", "primes": []},
            {"unit": "1", "primes": [1, 2, 3, 4]},
            {"unit": "i", "primes": [1, 3]},
            {"unit": "i", "primes": [2, 4]},
        ]


class TestSearch:
    def test_fixed_region(self, capsys):
        code, lines = run_json(capsys, "search", "--box", "32", "--kmax", "32")
        assert code == 0
        assert lines[0]["beta"] == {"re": "15", "im": "10"}
        assert lines[0]["k"] == "16"

    def test_shard_independence(self, capsys):
        _, one = run_json(capsys, "search", "--box", "40", "--shards", "1")
        _, four = run_json(capsys, "search", "--box", "40", "--shards", "4")
        assert one == four

    def test_expand(self, capsys):
        code, lines = run_json(capsys, "search", "--box", "8", "--expand")
        assert code == 0
        assert lines[0]["k"] == "16"

    def test_explicit_bounds_resume(self, capsys):
        _, full = run_json(capsys, "search", "--box", "32")
        _, left = run_json(
            capsys, "search", "--re-min", "-32", "--re-max", "0",
            "--im-min", "-32", "--im-max", "32", "--kmax", "32",
        )
        _, right = run_json(
            capsys, "search", "--re-min", "1", "--re-max", "32",
            "--im-min", "-32", "--im-max", "32", "--kmax", "32",
        )
        merged = left + right
        assert sorted(json.dumps(h, sort_keys=True) for h in merged) == sorted(
            json.dumps(h, sort_keys=True) for h in full
        )

    def test_expand_rejects_explicit_bounds(self, capsys):
        code, lines = run_json(
            capsys, "search", "--box", "8", "--expand", "--re-min", "100",
            "--kmax", "3",
        )
        assert code == 2
        assert len(lines) == 1 and "error" in lines[0]

    @pytest.mark.parametrize("argv", [
        ("--box", "-5"),
        ("--box", "16", "--kmax", "-8"),
        ("--re-min", "5", "--re-max", "-5", "--im-min", "0", "--im-max", "10",
         "--kmax", "16"),
        ("--re-min", "-5", "--re-max", "5", "--im-min", "10", "--im-max", "0",
         "--kmax", "16"),
        ("--box", "8", "--re-min", "9"),
        ("--box", "-5", "--expand"),
    ], ids=["negative-box", "negative-kmax", "re-min-above-re-max",
            "im-min-above-im-max", "override-empties-box", "negative-box-expand"])
    def test_empty_region_is_usage_error(self, capsys, monkeypatch, argv):
        def no_search(*args, **kwargs):
            raise AssertionError("no search may run")

        monkeypatch.setattr("qirank.cli.search_region", no_search)
        monkeypatch.setattr("qirank.cli.find_first_hit", no_search)
        code, lines = run_json(capsys, "search", *argv)
        assert code == 2
        assert len(lines) == 1 and "error" in lines[0]

    def test_box_zero_is_a_region(self, capsys):
        code = run(["search", "--box", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "event": "search_done", "hits": 0}

    def test_bounds_required(self, capsys):
        code, lines = run_json(capsys, "search", "--re-min", "0", "--re-max", "5")
        assert code == 2
        assert "error" in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (("--expand",), "--expand needs --box as the initial radius"),
        (("--re-min", "-5", "--re-max", "5", "--im-min", "-5", "--im-max", "5"),
         "search needs --kmax when --box is not given"),
    ], ids=["expand-without-box", "four-bounds-without-kmax"])
    def test_missing_radius_is_usage_error(self, capsys, monkeypatch, argv, message):
        def no_search(*args, **kwargs):
            raise AssertionError("no search may run")

        monkeypatch.setattr("qirank.cli.search_region", no_search)
        monkeypatch.setattr("qirank.cli.find_first_hit", no_search)
        code, lines = run_json(capsys, "search", *argv)
        assert (code, lines) == (2, [{"error": message}])


class TestShards:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_is_usage_error(self, capsys, monkeypatch, value):
        def no_search(*args, **kwargs):
            raise AssertionError("search_region must not run")

        monkeypatch.setattr("qirank.cli.search_region", no_search)
        code, lines = run_json(capsys, "search", "--box", "16", "--shards", value)
        assert code == 2
        assert lines == [{"error": "shard count must be >= 1"}]

    def test_environment_variable_is_ignored(self, capsys, monkeypatch):
        _, expected = run_json(capsys, "search", "--box", "32")
        monkeypatch.setenv("QIRANK_SHARDS", "bad")
        code, lines = run_json(capsys, "search", "--box", "32")
        assert (code, lines) == (0, expected)


class TestCertifyVerify:
    def test_certify_rejection(self, capsys):
        code, lines = run_json(capsys, "certify", "7+2i", "0")
        assert code == 1
        assert lines[0]["error"] == "primes not distinct"

    def test_round_trip_via_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, lines = run_json(
            capsys, "certify", "15+10i", "16", "--output", str(path)
        )
        assert code == 0
        assert lines[0]["rank_upper"] == "2"
        code, lines = run_json(capsys, "verify", str(path))
        assert code == 0
        assert lines == [{"valid": True}]

    def test_verify_detects_tampering(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_json(capsys, "certify", "15+10i", "16", "--output", str(path))
        obj = json.loads(path.read_text())
        obj["selmer_dim"] = "3"
        path.write_text(json.dumps(obj))
        code, lines = run_json(capsys, "verify", str(path))
        assert code == 1
        assert lines == [{"valid": False}]

    def test_certify_unwritable_output(self, capsys, tmp_path):
        path = tmp_path / "missing" / "c.json"
        code, lines = run_json(
            capsys, "certify", "15+10i", "16", "--output", str(path)
        )
        assert code == 2
        assert len(lines) == 1 and "error" in lines[0]
        assert not path.exists()

    def test_negative_looking_output_name_kept_as_typed(self, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_json(capsys, "certify", "15+10i", "16", "--output", "-5")
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["-5"]

    def test_verify_missing_file(self, capsys):
        code, lines = run_json(capsys, "verify", "/nonexistent/cert.json")
        assert code == 2

    def test_verify_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text("[" * depth + "]" * depth)
        code, lines = run_json(capsys, "verify", str(path))
        assert code == 1
        assert lines == [{"error": "malformed certificate: JSON nested too deeply"}]

    def test_verify_file_one_byte_over_the_cap(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_bytes(b" " * (MAX_CERT_BYTES + 1))
        code, lines = run_json(capsys, "verify", str(path))
        assert code == 1
        assert lines == [
            {"error": f"malformed certificate: longer than {MAX_CERT_BYTES} bytes"}]

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_verify_endless_file(self, capsys):
        # only MAX_CERT_BYTES + 1 bytes are read, so this ends at once
        code, lines = run_json(capsys, "verify", "/dev/zero")
        assert code == 1
        assert lines == [
            {"error": f"malformed certificate: longer than {MAX_CERT_BYTES} bytes"}]


class TestStats:
    def test_small_box(self, capsys):
        code, lines = run_json(capsys, "stats", "--box", "50")
        assert code == 0
        obj = lines[0]
        assert obj["total_primes"] > 0
        assert obj["target_class"] == {"re": 15, "im": 10}
        num, den = obj["target_ratio"].split("/")
        assert int(den) == obj["total_primes"]

    @pytest.mark.parametrize("box", ["4097", "100000", "-100000"])
    def test_box_out_of_range_refused_before_allocation(self, capsys, monkeypatch, box):
        def no_census(*args, **kwargs):
            raise AssertionError("the census sieve must not be allocated")

        monkeypatch.setattr("qirank.cli.prime_density_stats", no_census)
        code, lines = run_json(capsys, "stats", "--box", box)
        assert code == 2
        assert len(lines) == 1 and "4096" in lines[0]["error"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_gaussian_literal(self, capsys):
        assert run(["symbol", "wibble", "-1-6i"]) == 2

    def test_search_with_no_bounds(self, capsys):
        assert run(["search"]) == 2

    def test_missing_positional(self, capsys):
        assert run(["symbol", "i"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["search", "--box", "8", "--shards", "two"],
         "argument --shards: invalid int value: 'two'"),
        (["search", "--box", "8", "--frobnicate"],
         "unrecognized arguments: --frobnicate"),
        (["symbol", "wibble", "-1-6i"],
         "argument numerator: cannot parse Gaussian integer from 'wibble'"),
        (["symbol", "i"], "the following arguments are required: prime"),
        (["selmer"], "the following arguments are required: primes"),
        # negative-looking tokens are reported as typed, with no padding
        (["search", "--box", "-5i"], "argument --box: invalid int value: '-5i'"),
        (["certify", "15+10i", "-2i"], "argument k: invalid int value: '-2i'"),
        # a malformed token after a dash is a bad value, not a missing argument
        (["factor", "-5x"],
         "argument value: cannot parse Gaussian integer from '-5x'"),
        (["symbol", "-1x", "-1-6i"],
         "argument numerator: cannot parse Gaussian integer from '-1x'"),
        (["certify", "15+10i", "-2x"], "argument k: invalid int value: '-2x'"),
        (["search", "--box", "4", "--kmax", "-1x"],
         "argument --kmax: invalid int value: '-1x'"),
    ], ids=["bad-int", "unknown-option", "bad-gaussian", "missing-positional",
            "no-selmer-prime", "negative-option-value", "negative-positional",
            "malformed-negative-value", "malformed-negative-numerator",
            "malformed-negative-int", "malformed-negative-option-value"])
    def test_parser_errors_are_json(self, capsys, argv, message):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert [json.loads(line) for line in captured.out.splitlines()] == [
            {"error": message}]

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "usage: qirank" in capsys.readouterr().out


def _readme_cli_section():
    return README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split(
        "\n## ", 1)[0]


def _readme_library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _readme_cli_examples():
    section = _readme_cli_section()
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


class TestReadme:
    def test_cli_examples_run(self, capsys, monkeypatch, tmp_path):
        # in order, from one directory: certify --output feeds verify
        monkeypatch.chdir(tmp_path)
        examples = _readme_cli_examples()
        assert examples
        for line in examples:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "qirank", line
            code = run(argv[1:])
            out = capsys.readouterr().out
            assert code == 0, line
            assert out, line
            for out_line in out.splitlines():
                json.loads(out_line)

    def test_library_example_runs(self, capsys):
        exec(_readme_library_example(), {})
        cert = json.loads(capsys.readouterr().out)
        assert cert["rank_upper"] == "2"

    def test_names_the_parser_options(self):
        (commands,) = [action for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        parsed = {
            option
            for sub in commands.choices.values()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert set(re.findall(r"--[a-z][a-z-]*", _readme_cli_section())) == parsed
