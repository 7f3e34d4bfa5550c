"""Golden CLI outputs: every command on both bundled fixtures, text and --json.

Each case's stdout is stored byte for byte in tests/golden/<fixture>/<case>.txt
(text mode) or .json (--json mode); tests/golden/exit_codes.json holds the
exit code of every case.  The goldens were recorded once and are never
rewritten by the suite, so any change to a report's bytes fails here.
tests/golden/cli_parser.json holds the shape of the argument parser: its
global options, then each command with its help and options.
"""

from __future__ import annotations

import argparse
import json
from importlib import resources
from pathlib import Path

import pytest

import gsbmaps.reduction
from gsbmaps.cli import _text, build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture stem -> names of its three algebras
FIXTURE_ALGEBRAS = {
    "biquaternion": ("Δ1", "Δ2", "Δ3"),
    "mixed_exponent": ("D1", "D2", "D3"),
}


def _commands(a1: str, a2: str, a3: str) -> dict[str, list[str]]:
    """Case name -> command argv, over a fixture's algebras and named varieties."""
    return {
        "index": ["index", "--algebra", a1],
        "exponent": ["exponent", "--algebra", a2],
        "subgroup": ["subgroup", "--generators", f"{a1},{a2}", "--equals", f"{a1},{a3}"],
        "reduced-index": ["reduced-index", "--target", a3, "--base", "left"],
        "rational-map": ["rational-map", "--source", "left", "--target", "right"],
        "equivalent": ["equivalent", "--left", "left", "--right", "right"],
        # one k = 0 throughout, so the balanced relation matrices are attached
        "equivalent-classical": [
            "equivalent",
            "--left",
            f"X(1;{a1}) x X(1;{a2})",
            "--right",
            f"X(1;{a1}) x X(1;{a3})",
        ],
        "motive-iso": ["motive-iso", "--left", "left", "--right", "right"],
        "compare-families": [
            "compare-families",
            "--left",
            f"{a1},{a2}",
            "--right",
            f"{a1},{a3}",
        ],
        "verify-examples": ["verify-examples"],
    }


CASES = [
    (f"{fixture}/{name}{suffix}", fixture, flags + argv)
    for fixture, algebras in FIXTURE_ALGEBRAS.items()
    for name, argv in _commands(*algebras).items()
    for suffix, flags in ((".txt", []), (".json", ["--json"]))
]


EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    ("case", "fixture", "argv"), CASES, ids=[case for case, _, _ in CASES]
)
def test_matches_golden(case, fixture, argv, capsys):
    path = resources.files("gsbmaps") / "fixtures" / f"{fixture}.json"
    code = main(["-i", str(path), *argv])
    assert code == EXIT_CODES[case]
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / case).read_bytes()


def test_goldens_never_reach_the_suffix_tables(monkeypatch, capsys):
    # every golden question has one or two base factors, so its walk of at
    # most (p^s)^2 tuples ends within the budget n * p^s * |G|: with the
    # suffix tables made to raise, every case, verify-examples included,
    # still prints its golden bytes and exits with its golden code
    def refuse(*args):
        raise AssertionError("a golden question reached the suffix tables")

    monkeypatch.setattr(gsbmaps.reduction, "_suffix_minimum", refuse)
    for case, fixture, argv in CASES:
        path = resources.files("gsbmaps") / "fixtures" / f"{fixture}.json"
        assert main(["-i", str(path), *argv]) == EXIT_CODES[case], case
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN_DIR / case).read_bytes(), case
    assert any("verify-examples" in argv for _, _, argv in CASES)


PAIRS = sorted({case.rsplit(".", 1)[0] for case, _, _ in CASES})


@pytest.mark.parametrize("pair", PAIRS)
def test_text_renders_json(pair):
    # every fact of a text report is in its JSON: the text golden is the
    # rendering of the JSON golden, plus the newline print ends it with
    payload = json.loads((GOLDEN_DIR / f"{pair}.json").read_text(encoding="utf-8"))
    text = (GOLDEN_DIR / f"{pair}.txt").read_text(encoding="utf-8")
    assert "\n".join(_text(payload)) + "\n" == text


def _options(parser: argparse.ArgumentParser) -> list[dict]:
    return [
        {
            "option_strings": action.option_strings,
            "required": action.required,
            "metavar": action.metavar,
            "help": action.help,
        }
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


def parser_shape(parser: argparse.ArgumentParser) -> dict:
    """Global options and each command's help and options, in order.

    Unlike the --help screens, this does not change across Python versions.
    """
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        "options": _options(parser),
        "commands": [
            {
                "command": choice.dest,
                "help": choice.help,
                "options": _options(sub.choices[choice.dest]),
            }
            for choice in sub._choices_actions
        ],
    }


def test_parser_matches_golden():
    golden = json.loads((GOLDEN_DIR / "cli_parser.json").read_text(encoding="utf-8"))
    assert parser_shape(build_parser()) == golden
