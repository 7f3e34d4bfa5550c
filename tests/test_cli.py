"""Command-line behaviour: reports, JSON stability, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsbmaps
import gsbmaps.cli as cli_mod
from gsbmaps.cli import build_parser, main

BIQUATERNION_DOC = {
    "prime": 2,
    "generators": [
        {"name": "q1", "order": 2},
        {"name": "q2", "order": 2},
        {"name": "q3", "order": 2},
    ],
    "algebras": {
        "Δ1": {"class": {"q1": 1, "q2": 1}, "degree": 4},
        "Δ2": {"class": {"q1": 1, "q3": 1}, "degree": 4},
        "Δ3": {"class": {"q2": 1, "q3": 1}, "degree": 4},
    },
    "aliases": {"Delta1": "Δ1", "Delta2": "Δ2", "Delta3": "Δ3"},
}

MIXED_DOC = {
    "prime": 2,
    "generators": [
        {"name": "g1", "order": 4},
        {"name": "g2", "order": 2},
        {"name": "g3", "order": 2},
    ],
    "algebras": {
        "D1": {"class": {"g1": 1}, "degree": 4},
        "D2": {"class": {"g1": 2, "g2": 1}, "degree": 4},
        "D3": {"class": {"g1": 2, "g3": 1}, "degree": 4},
    },
    "varieties": {"left": "X(2;D1) x X(2;D2)", "right": "X(2;D1) x X(2;D3)"},
}


@pytest.fixture()
def biq_path(tmp_path):
    path = tmp_path / "biquaternion.json"
    path.write_text(json.dumps(BIQUATERNION_DOC, ensure_ascii=False), encoding="utf-8")
    return str(path)


@pytest.fixture()
def mixed_path(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_DOC, ensure_ascii=False), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReports:
    def test_reduced_index_report(self, capsys, mixed_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            mixed_path,
            "reduced-index",
            "--target",
            "D3",
            "--base",
            "X(2;D1) x X(2;D2)",
        )
        assert code == 0
        assert "reduced index of D3" in out and ": 2" in out
        assert "(2, 2)" in out

    def test_reduced_index_json(self, capsys, mixed_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            mixed_path,
            "--json",
            "reduced-index",
            "--target",
            "D3",
            "--base",
            "left",  # named variety
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == 2
        assert payload["witness"] == [2, 2]

    def test_equivalent_false_names_refuting_factor(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "equivalent",
            "--left",
            "X(2;Δ1) x X(2;Δ2)",
            "--right",
            "X(2;Δ1) x X(2;Δ3)",
        )
        assert code == 0
        assert "equivalent: false" in out
        assert "refuting factor: X(2;Δ3)" in out

    def test_equivalent_true(self, capsys, mixed_path):
        code, out, _ = run_cli(
            capsys, "-i", mixed_path, "equivalent", "--left", "left", "--right", "right"
        )
        assert code == 0
        assert "equivalent: true" in out
        # the relation criterion does not apply here (unequal exponents)
        assert "balanced relations" not in out

    def test_equivalent_attaches_relations_when_applicable(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "--json",
            "equivalent",
            "--left",
            "X(1;Δ1) x X(1;Δ2)",
            "--right",
            "X(1;Δ1) x X(1;Δ3)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["relations"] == {
            "left_over_right": [[1, 2], [1, 1]],
            "right_over_left": [[1, 2], [1, 1]],
        }

    def test_equivalent_relations_absent_when_no_witness(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "--json",
            "equivalent",
            "--left",
            "X(2;Δ1) x X(2;Δ2)",
            "--right",
            "X(2;Δ1) x X(2;Δ3)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert payload["relations"] is None

    def test_equivalent_relations_omitted_for_mixed_k(self, capsys, biq_path):
        # the relation criterion needs one k across all factors
        argv = ["equivalent", "--left", "X(1;Δ1) x X(2;Δ2)", "--right", "X(1;Δ1) x X(2;Δ3)"]
        code, out, _ = run_cli(capsys, "-i", biq_path, "--json", *argv)
        assert code == 0
        assert "relations" not in json.loads(out)
        code, out, _ = run_cli(capsys, "-i", biq_path, *argv)
        assert code == 0
        assert "balanced relations" not in out

    def test_index_and_exponent(self, capsys, mixed_path):
        code, out, _ = run_cli(capsys, "-i", mixed_path, "index", "--algebra", "D1")
        assert code == 0 and "index of D1: 4" in out
        code, out, _ = run_cli(capsys, "-i", mixed_path, "exponent", "--algebra", "D2")
        assert code == 0 and "exponent of D2: 2" in out

    def test_subgroup_comparison(self, capsys, mixed_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            mixed_path,
            "subgroup",
            "--generators",
            "D1,D2",
            "--equals",
            "D1,D3",
        )
        assert code == 0
        assert "order 8" in out
        assert "no" in out

    def test_rational_map_forward_only(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "rational-map",
            "--source",
            "X(2;Δ1) x X(2;Δ2)",
            "--target",
            "X(2;Δ3)",
        )
        assert code == 0
        assert "rational map exists: no" in out

    def test_motive_iso(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "motive-iso",
            "--left",
            "X(1;Δ1) x X(1;Δ2)",
            "--right",
            "X(1;Δ1) x X(1;Δ3)",
        )
        assert code == 0
        assert "isomorphic: true" in out

    def test_compare_families(self, capsys, biq_path):
        code, out, _ = run_cli(
            capsys,
            "-i",
            biq_path,
            "compare-families",
            "--left",
            "Delta1,Delta2",
            "--right",
            "Delta1,Delta3",
        )
        assert code == 0
        assert "verdict: PARTIAL" in out
        assert "M^{1,1}" in out

    def test_unicode_and_ascii_aliases_agree(self, capsys, biq_path):
        _, out_unicode, _ = run_cli(
            capsys, "-i", biq_path, "index", "--algebra", "Δ1"
        )
        _, out_ascii, _ = run_cli(
            capsys, "-i", biq_path, "index", "--algebra", "Delta1"
        )
        assert "4" in out_unicode and "4" in out_ascii


class TestJsonStability:
    def test_byte_stable_across_runs(self, capsys, biq_path):
        argv = [
            "-i",
            biq_path,
            "--json",
            "equivalent",
            "--left",
            "X(2;Δ1) x X(2;Δ2)",
            "--right",
            "X(2;Δ1) x X(2;Δ3)",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_verify_examples_json_stable(self, capsys):
        _, first, _ = run_cli(capsys, "--json", "verify-examples")
        _, second, _ = run_cli(capsys, "--json", "verify-examples")
        assert first == second
        payload = json.loads(first)
        assert payload["pass"] is True


class TestExitCodes:
    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(capsys, "-i", "/nonexistent.json", "index", "--algebra", "D1")
        assert code == 2
        assert "cannot read" in err

    def test_instance_required(self, capsys):
        code, _, err = run_cli(capsys, "index", "--algebra", "D1")
        assert code == 2

    def test_bad_expression(self, capsys, biq_path):
        code, _, err = run_cli(
            capsys, "-i", biq_path, "reduced-index", "--target", "Δ1", "--base", "X(2;"
        )
        assert code == 2

    def test_invariant_violation_in_instance(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BIQUATERNION_DOC))
        doc["algebras"]["bad"] = {"class": {"q1": 1, "q2": 1}, "degree": 8}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, _, err = run_cli(capsys, "-i", str(path), "index", "--algebra", "Δ1")
        assert code == 2
        assert "not a division algebra" in err

    def test_precondition_violation(self, capsys, tmp_path):
        # mixing degrees trips the common-degree hypothesis: exit 3
        doc = json.loads(json.dumps(BIQUATERNION_DOC))
        doc["algebras"]["Q"] = {"class": {"q1": 1}, "degree": 2}
        path = tmp_path / "mixed_degrees.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "-i",
            str(path),
            "reduced-index",
            "--target",
            "Δ1",
            "--base",
            "X(1;Q)",
        )
        assert code == 3
        assert "common degree" in err

    def test_mixed_degree_families(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BIQUATERNION_DOC))
        doc["algebras"]["Q"] = {"class": {"q1": 1}, "degree": 2}
        path = tmp_path / "mixed_degrees.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "-i",
            str(path),
            "compare-families",
            "--left",
            "Δ1,Q",
            "--right",
            "Δ1",
        )
        assert code == 3
        assert out == ""
        assert "Δ1 has degree 4, Q has degree 2" in err

    def test_degree_one_family(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BIQUATERNION_DOC))
        doc["algebras"]["Z"] = {"class": {}, "degree": 1}
        doc["algebras"]["Q"] = {"class": {"q1": 1}, "degree": 2}
        path = tmp_path / "degree_one.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "-i", str(path), "--json", "compare-families", "--left", "Z", "--right", "Q"
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "TATE_ONLY"
        assert report["unmatched_left"] == [] and report["unmatched_right"] == ["M^{0}_{Q}"]

    def test_out_of_range_reduced_dimension(self, capsys, biq_path):
        code, _, err = run_cli(
            capsys, "-i", biq_path, "reduced-index", "--target", "Δ1", "--base", "X(4;Δ2)"
        )
        assert code == 3

    def test_verify_examples_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify-examples")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 9

    @staticmethod
    def _verify_one_claim(capsys, monkeypatch, run):
        """verify-examples over a single fixture whose one claim has one run."""
        doc = dict(MIXED_DOC, claims=[{"claim": "one claim", "runs": [run]}])
        monkeypatch.setattr(cli_mod, "_bundled_docs", lambda: {"one.json": doc})
        return run_cli(capsys, "verify-examples")

    def test_verify_examples_mismatch_exits_4(self, capsys, monkeypatch):
        run = {"argv": ["index", "--algebra", "D1"], "shows": {"index": 2}}
        code, out, _ = self._verify_one_claim(capsys, monkeypatch, run)
        assert code == 4
        assert "FAIL  [one.json] one claim\n" in out

    def test_verify_examples_failing_run_names_its_error(self, capsys, monkeypatch):
        run = {"argv": ["index", "--algebra", "D9"], "shows": {"index": 4}}
        code, out, _ = self._verify_one_claim(capsys, monkeypatch, run)
        assert code == 4
        assert "FAIL  [one.json] one claim (error: unknown algebra 'D9')\n" in out

    def test_verify_examples_missing_field_fails(self, capsys, monkeypatch):
        run = {"argv": ["subgroup", "--generators", "D1"], "shows": {"equals.equal": True}}
        code, out, _ = self._verify_one_claim(capsys, monkeypatch, run)
        assert code == 4
        assert "FAIL  [one.json] one claim\n" in out

    def test_invariant_violation_in_a_command(self, capsys, monkeypatch, biq_path):
        import gsbmaps.cli as cli_mod
        from gsbmaps.errors import InvariantViolation

        def broken(target, base):
            raise InvariantViolation("boom")

        monkeypatch.setattr(cli_mod, "reduced_index", broken)
        code, out, err = run_cli(
            capsys, "-i", biq_path, "reduced-index", "--target", "Δ1", "--base", "X(1;Δ2)"
        )
        assert code == 4
        assert out == ""
        assert err == "internal invariant failure: boom\n"

    def test_text_of_an_unknown_command_is_an_invariant_violation(self):
        from gsbmaps.errors import InvariantViolation

        with pytest.raises(InvariantViolation, match="no text rendering for command 'nope'"):
            cli_mod._text({"command": "nope"})

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["subgroup", "--generators", "Δ1,,Δ2"], "Δ1,,Δ2"),
            (["compare-families", "--left", "Δ1,", "--right", ",Δ2"], "Δ1,"),
        ],
        ids=["subgroup", "compare-families"],
    )
    def test_empty_entry_in_algebra_list(self, capsys, biq_path, argv, names):
        code, out, err = run_cli(capsys, "-i", biq_path, *argv)
        assert code == 2 and out == ""
        assert err == f"error: empty entry in algebra list {names!r}\n"

    def test_unknown_algebra_name(self, capsys, biq_path):
        code, _, err = run_cli(capsys, "-i", biq_path, "index", "--algebra", "Δ9")
        assert code == 2
        assert "unknown algebra" in err


LONG_INTEGER = "1" + "0" * 5000  # past the default int digit limit of 4300
BIQ_TEXT = json.dumps(BIQUATERNION_DOC, ensure_ascii=False)
REDUCE = ["reduced-index", "--target", "Δ1", "--base"]

# id -> (instance file contents, command argv); each input once crashed the
# CLI with a traceback instead of a parse error
CRASH_INPUTS = {
    "non-utf8-file": (b'{"prime": 2, "generators": "\xff"}', ["index", "--algebra", "Δ1"]),
    "long-json-integer": (
        BIQ_TEXT.replace('"degree": 4', f'"degree": {LONG_INTEGER}', 1).encode("utf-8"),
        ["index", "--algebra", "Δ1"],
    ),
    "deep-json": (b"[" * 100_000 + b"]" * 100_000, ["index", "--algebra", "Δ1"]),
    "long-dimension": (BIQ_TEXT.encode("utf-8"), [*REDUCE, f"X({LONG_INTEGER};Δ2)"]),
    "non-ascii-digit": (BIQ_TEXT.encode("utf-8"), [*REDUCE, "X(²;Δ2)"]),
}


@pytest.mark.parametrize("contents, argv", CRASH_INPUTS.values(), ids=CRASH_INPUTS)
def test_bad_input_is_parse_error_not_traceback(tmp_path, contents, argv):
    path = tmp_path / "instance.json"
    path.write_bytes(contents)
    proc = subprocess.run(
        [sys.executable, "-m", "gsbmaps", "-i", str(path), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# Runs a list of argv lists through main() in one fresh interpreter, first in
# the given order and then reversed, and prints (code, stdout, stderr) per call.
SESSION_SCRIPT = """
import contextlib, io, json, sys
from gsbmaps.cli import main

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]

calls = json.loads(sys.argv[1])
forward = [call(argv) for argv in calls]
backward = [call(argv) for argv in reversed(calls)][::-1]
print(json.dumps([forward, backward]))
"""


FIXTURE_PATHS = sorted((Path(gsbmaps.__file__).parent / "fixtures").glob("*.json"))


def _bundled_claims():
    """(fixture file name, claim) for every claim of every bundled fixture."""
    for path in FIXTURE_PATHS:
        claims = json.loads(path.read_text(encoding="utf-8"))["claims"]
        assert claims, path.name
        for claim in claims:
            yield path.name, claim


def _check_claim_text(name, claim):
    assert isinstance(claim["claim"], str) and claim["claim"], name
    assert claim["runs"], (name, claim["claim"])


def _check_claim_runs(name, claim):
    commands = {row[0] for row in cli_mod._COMMANDS} - {"verify-examples"}
    for run in claim["runs"]:
        # a misspelt key would check nothing and pass
        assert {"argv"} < set(run) <= {"argv", "shows", "lacks"}, (name, run)
        assert run.get("shows") or run.get("lacks"), (name, run)
        try:
            args = build_parser().parse_args(run["argv"])
        except SystemExit:
            # verify-examples would end in argparse's usage text, no report
            raise AssertionError(f"{name}: argv {run['argv']} does not parse") from None
        assert args.command in commands, (name, claim["claim"])
        assert args.instance is None and not args.json, (name, run)


# A well-formed run, and claims that each break it in one way.
INDEX_RUN = {"argv": ["index", "--algebra", "Δ1"], "shows": {"index": 4}}


def _probe(**changes):
    """A one-run claim whose run is INDEX_RUN with the given keys replaced."""
    return {"claim": "c", "runs": [{**INDEX_RUN, **changes}]}


MALFORMED_CLAIMS = {
    "empty-text": {**_probe(), "claim": ""},
    "no-runs": {"claim": "c", "runs": []},
    "unknown-option": _probe(argv=["index", "--nope", "Δ1"]),
    "shows-nothing": _probe(shows={}),
    "misspelt-key": {"claim": "c", "runs": [{"argv": INDEX_RUN["argv"], "show": {"index": 4}}]},
    "own-instance": _probe(argv=["-i", "x.json", *INDEX_RUN["argv"]]),
    "verify-examples": _probe(argv=["verify-examples"]),
}


class TestClaimsAsData:
    """The claims verify-examples checks live in the bundled fixtures."""

    def test_every_claim_has_text_and_runs(self):
        for name, claim in _bundled_claims():
            _check_claim_text(name, claim)

    def test_every_run_is_a_command_that_checks_something(self):
        for name, claim in _bundled_claims():
            _check_claim_runs(name, claim)

    def test_well_formed_claim_is_accepted(self):
        _check_claim_text("probe", _probe())
        _check_claim_runs("probe", _probe())

    @pytest.mark.parametrize("claim", MALFORMED_CLAIMS.values(), ids=MALFORMED_CLAIMS)
    def test_malformed_claim_is_refused(self, claim):
        with pytest.raises(AssertionError):
            _check_claim_text("probe", claim)
            _check_claim_runs("probe", claim)

    def test_walks_exactly_the_json_fixtures(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify-examples")
        assert code == 0
        walked = [f["fixture"] for f in json.loads(out)["fixtures"]]
        assert walked == [path.name for path in FIXTURE_PATHS]


class TestSharedParser:
    def test_no_state_carried_between_calls(self, biq_path):
        command = [
            "equivalent",
            "--left",
            "X(1;Δ1) x X(1;Δ2)",
            "--right",
            "X(1;Δ1) x X(1;Δ3)",
        ]
        calls = [
            ["-i", biq_path, "reduced-index", "--target", "Δ1"],  # usage error
            ["-i", biq_path, "--json", *command],
            ["-i", biq_path, *command],
            command,  # no instance given
            ["verify-examples"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", SESSION_SCRIPT, json.dumps(calls)],
            capture_output=True,
            text=True,
            check=True,
        )
        forward, backward = json.loads(proc.stdout)
        assert [code for code, _, _ in forward] == [2, 0, 0, 2, 0]
        assert "the following arguments are required: --base" in forward[0][2]
        assert json.loads(forward[1][1])["equivalent"] is True
        assert "equivalent: true" in forward[2][1]
        assert "needs an instance file" in forward[3][2]
        assert "all claims hold" in forward[4][1]
        assert forward == backward

    def test_no_state_carried_between_plain_and_fallback_calls(self, biq_path):
        # plain argvs are parsed from the command table; the abbreviation,
        # the --flag=value spelling and --help go to argparse
        index = ["-i", biq_path, "--json", "index"]
        calls = [
            [*index, "--algebra", "Δ1"],
            [*index, "--alg", "Δ1"],
            ["-i", biq_path, "reduced-index", "--target", "Δ1"],  # usage error
            [*index, "--algebra=Δ2"],
            ["--help"],
            ["-i", biq_path, "exponent", "--algebra", "Δ3"],
            [*index, "--algebra", "Δ2"],
            ["verify-examples"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", SESSION_SCRIPT, json.dumps(calls)],
            capture_output=True,
            text=True,
            check=True,
        )
        forward, backward = json.loads(proc.stdout)
        assert [code for code, _, _ in forward] == [0, 0, 2, 0, 0, 0, 0, 0]
        assert forward[0] == forward[1]
        assert "the following arguments are required: --base" in forward[2][2]
        assert forward[3] == forward[6]
        assert json.loads(forward[3][1])["algebra"] == "Δ2"
        assert forward[4][1].startswith("usage: ") and forward[4][2] == ""
        assert forward[5][1] == "exponent of Δ3: 2\n"
        assert "all claims hold" in forward[7][1]
        assert forward == backward


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gsbmaps", "verify-examples"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "all claims hold" in proc.stdout

    def test_cli_module_runs_as_script(self):
        # python -m gsbmaps.cli runs main only through cli.py's __main__ guard
        path = FIXTURE_PATHS[0].parent / "biquaternion.json"
        argv = ["--json", "-i", str(path), "index", "--algebra", "Δ1"]
        procs = [
            subprocess.run([sys.executable, "-m", module, *argv], capture_output=True)
            for module in ("gsbmaps.cli", "gsbmaps")
        ]
        assert procs[0].returncode == procs[1].returncode == 0
        assert procs[0].stdout == procs[1].stdout
        assert json.loads(procs[0].stdout)["index"] == 4


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [["--json", "verify-examples"], ["subgroup", "--generators", "Δ1,Δ2"]],
        ids=["verify-examples", "subgroup"],
    )
    def test_reader_gone_ends_quietly(self, biq_path, argv):
        # the read end is closed before the process starts, so every write
        # to stdout meets a broken pipe
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gsbmaps", "-i", biq_path, *argv],
                stdout=write_fd,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_reader_gone_in_process_leaks_no_descriptor(self):
        before = len(os.listdir("/proc/self/fd"))
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w", encoding="utf-8") as stdout:
            with contextlib.redirect_stdout(stdout):
                code = main(["verify-examples"])
        assert code == 0
        assert len(os.listdir("/proc/self/fd")) == before


class TestClosedStderr:
    @pytest.mark.parametrize(
        "with_instance, argv, code",
        [
            (False, ["index", "--algebra", "D1"], 2),
            (True, ["reduced-index", "--target", "Δ1", "--base", "X(4;Δ2)"], 3),
        ],
        ids=["no-instance", "out-of-range"],
    )
    def test_reader_gone_keeps_exit_code(self, biq_path, with_instance, argv, code):
        if with_instance:
            argv = ["-i", biq_path, *argv]
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gsbmaps", *argv],
                stdout=subprocess.PIPE,
                stderr=write_fd,
                text=True,
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == code
        assert proc.stdout == ""


def run_with_encoding(encoding, *argv):
    """python -m gsbmaps with stdout and stderr in the given encoding."""
    return subprocess.run(
        [sys.executable, "-m", "gsbmaps", *argv],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONIOENCODING=encoding),
    )


class TestUnencodableOutput:
    def test_ascii_text_report_is_escaped(self, biq_path):
        proc = run_with_encoding("ascii", "-i", biq_path, "index", "--algebra", "Δ1")
        assert proc.returncode == 0
        assert proc.stdout == "index of \\u03941: 4 (degree 4)\n"
        assert proc.stderr == ""

    def test_ascii_json_report_is_the_same_json(self):
        ascii_run = run_with_encoding("ascii", "--json", "verify-examples")
        utf8_run = run_with_encoding("utf-8", "--json", "verify-examples")
        assert ascii_run.returncode == utf8_run.returncode == 0
        assert ascii_run.stderr == ""
        assert json.loads(ascii_run.stdout) == json.loads(utf8_run.stdout)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_surrogate_algebra_name(self, tmp_path, json_flag):
        # "\ud800" is valid JSON but cannot be encoded in UTF-8
        path = tmp_path / "surrogate.json"
        algebras = {"\ud800": {"class": {"g1": 1}, "degree": 4}, **MIXED_DOC["algebras"]}
        doc = dict(MIXED_DOC, algebras=algebras, varieties={"left": "X(1;\ud800)"})
        path.write_text(json.dumps(doc), encoding="ascii")
        argv = [*json_flag, "equivalent", "--left", "left", "--right", "X(1;D1)"]
        proc = run_with_encoding("utf-8", "-i", str(path), *argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        if json_flag:
            assert json.loads(proc.stdout)["left"] == "X(1;\ud800)"
        else:
            assert "X(1;\\ud800)" in proc.stdout


def _vocabulary():
    """Every option string of the parser and of its commands, and the command
    names, read from the argparse parser itself."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = parser._actions + [a for p in sub.choices.values() for a in p._actions]
    return sorted({o for a in actions for o in a.option_strings}), list(sub.choices)


OPTIONS, COMMANDS = _vocabulary()
VALUES = ["Δ1", "left", "X(2;Δ1) x X(2;Δ2)", "x.json"]
# spellings argparse reads and the plain parse must leave to it, and values
# that look like options, are empty, hold spaces or name a command
TRAPS = ["--alg", "--inst", "--algebra=A", "-iPATH", "--", "-", "-1", "-x", "-h",
         "--help", "", "a b", "-a b", "index"]
TOKENS = OPTIONS + COMMANDS + VALUES + TRAPS


@st.composite
def near_plain_argvs(draw):
    """A well-formed argv of a drawn command, then up to two tokens inserted
    or removed."""
    argv = []
    for options, metavar, _ in draw(st.permutations(cli_mod._GLOBALS)):
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(options)))
            if metavar:
                argv.append(draw(st.sampled_from(VALUES + COMMANDS)))
    name, _, _, flags = draw(st.sampled_from(cli_mod._COMMANDS))
    argv.append(name)
    for option, _, flag_help in draw(st.permutations(flags)):
        if flag_help is None or draw(st.booleans()):
            argv += [option, draw(st.sampled_from(VALUES + COMMANDS + ["", "a b"]))]
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(pos, draw(st.sampled_from(TOKENS)))
        elif pos < len(argv):
            del argv[pos]
    return argv


ARGVS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8),
    near_plain_argvs(),
    near_plain_argvs().map(tuple),
)


def _outcome(parse, argv):
    """(vars(parse(argv)), or ("exit", code) if it raised SystemExit; stdout;
    stderr).  The attributes are compared, not the namespace types: argparse
    gives an argparse.Namespace, cli.parse_args a types.SimpleNamespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestPlainParse:
    """parse_args reads a plain argv from the command table and hands every
    other argv to argparse, with the same result either way."""

    @settings(max_examples=400, deadline=None)
    @given(ARGVS)
    def test_agrees_with_argparse(self, argv):
        expected = _outcome(build_parser().parse_args, argv)
        assert _outcome(cli_mod.parse_args, argv) == expected
        if isinstance(expected[0], tuple):
            # argparse refused the argv: main ends with its code and text
            assert _outcome(main, argv) == expected

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        for argv in (["-i", "x.json", "--json", "index", "--algebra", "Δ1"],
                     ["index", "--alg", "Δ1"]):
            expected = vars(build_parser().parse_args(argv))
            monkeypatch.setattr(sys, "argv", ["gsbmaps", *argv])
            assert vars(cli_mod.parse_args()) == expected
            assert vars(cli_mod.parse_args(tuple(argv))) == expected

    def test_common_argvs_never_reach_argparse(self, monkeypatch, capsys):
        from test_golden import CASES

        claims = [run["argv"] for _, claim in _bundled_claims() for run in claim["runs"]]
        argvs = [["-i", "x.json", *argv] for _, _, argv in CASES] + claims
        expected = [vars(build_parser().parse_args(argv)) for argv in argvs]

        def refuse():
            raise AssertionError("a plain argv reached argparse")

        monkeypatch.setattr(cli_mod, "build_parser", refuse)
        assert [vars(cli_mod.parse_args(argv)) for argv in argvs] == expected
        assert main(["verify-examples"]) == 0
        assert "all claims hold" in capsys.readouterr().out
        monkeypatch.undo()
        for argv, code in ((["index"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code


class TestPaddedNames:
    """A single name on the command line may carry surrounding whitespace, as
    an entry of a comma list or a name in an expression already may."""

    def test_padded_algebra_name(self, capsys, biq_path):
        for command in ("index", "exponent"):
            bare = run_cli(capsys, "-i", biq_path, "--json", command, "--algebra", "Δ1")
            padded = run_cli(capsys, "-i", biq_path, "--json", command, "--algebra", " Δ1\t")
            assert padded[0] == 0 and padded[2] == ""
            assert {**json.loads(padded[1]), "algebra": "Δ1"} == json.loads(bare[1])

    def test_padded_target_and_base(self, capsys, mixed_path):
        argv = ["-i", mixed_path, "--json", "reduced-index", "--target"]
        bare = run_cli(capsys, *argv, "D3", "--base", "left")
        padded = run_cli(capsys, *argv, " D3 ", "--base", " left ")
        assert padded[0] == 0 and padded[2] == ""
        assert {**json.loads(padded[1]), "target": "D3"} == json.loads(bare[1])

    def test_padded_unknown_name_is_named_bare(self, capsys, biq_path):
        code, out, err = run_cli(capsys, "-i", biq_path, "index", "--algebra", " Δ9 ")
        assert (code, out, err) == (2, "", "error: unknown algebra 'Δ9'\n")
