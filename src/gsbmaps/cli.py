"""Command-line front end.

main loads the instance once; each command returns its report as the payload
that --json prints, _run adds the command's name to it, and main writes that
payload or the text that _text renders from it alone, so every fact in a text
report is also in its JSON.
verify-examples holds no claims of its own: it runs the "claims" of each
bundled fixture through these same commands, and _run serves both it and main.
Both read an argv with parse_args from _GLOBALS and _COMMANDS, the only
tables of options and commands: a plain argv (global options, the command
name, then its flags; each option spelt in full and given once, each value
not starting with "-") is read from them without importing argparse.  Help,
abbreviations, --flag=value and every usage error go to the argparse parser
built from the same tables, so their text and exit codes are its own.

Exit codes: 0 on a successful computation (the boolean answer lives in the
report, not the exit code), 2 on parse errors, 3 on precondition or
hypothesis violations, 4 on internal invariant failures, which includes any
mismatch found by verify-examples.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .brauer import Subgroup, subgroup_generated, subgroups_equal
from .errors import (
    GsbError,
    InstanceFormatError,
    InvariantViolation,
    PreconditionError,
)
from .instance import Instance, load_instance, parse_instance
from .maps import (
    DirectionReport,
    equivalent,
    exists_rational_map,
    mutual_relation_witness,
)
from .motives import compare_families, motives_isomorphic, upper_motive
from .reduction import reduced_index

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


def _bundled_docs() -> dict[str, dict]:
    """The decoded *.json fixtures in the folder next to this module, by name."""
    folder, docs = os.path.join(os.path.dirname(__file__), "fixtures"), {}
    for name in os.listdir(folder):
        if name.endswith(".json"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
    return docs


def _direction_payload(rep: DirectionReport, source: str, target: str) -> dict:
    return {
        "source": source,
        "target": target,
        "exists": rep.exists,
        "factors": [
            {
                "factor": str(w.factor),
                "has_point": w.has_point,
                "index": w.index,
                "witness": list(w.witness),
            }
            for w in rep.factors
        ],
    }


def _cmd_index(args: SimpleNamespace, inst: Instance) -> dict:
    alg = inst.algebra(args.algebra)
    return {
        "algebra": args.algebra,
        "class": list(alg.brauer_class.exponents),
        "degree": alg.degree,
        "index": alg.index,
    }


def _cmd_exponent(args: SimpleNamespace, inst: Instance) -> dict:
    alg = inst.algebra(args.algebra)
    return {
        "algebra": args.algebra,
        "class": list(alg.brauer_class.exponents),
        "exponent": alg.exponent,
    }


def _subgroup(inst: Instance, names: str) -> tuple[Subgroup, dict[str, object]]:
    gens = [a.brauer_class for a in inst.algebra_list(names)]
    sub = subgroup_generated(gens, inst.model)
    elements = [list(c.exponents) for c in sub]
    return sub, {"generators": names, "order": len(sub), "elements": elements}


def _cmd_subgroup(args: SimpleNamespace, inst: Instance) -> dict:
    sub, payload = _subgroup(inst, args.generators)
    if args.equals is not None:
        other, payload["equals"] = _subgroup(inst, args.equals)
        payload["equals"]["equal"] = subgroups_equal(sub, other)
    return payload


def _cmd_reduced_index(args: SimpleNamespace, inst: Instance) -> dict:
    target = inst.algebra(args.target)
    base = inst.product(args.base)
    result = reduced_index(target, base)
    return {
        "target": args.target,
        "base": str(base),
        "index": result.value,
        "witness": list(result.witness),
    }


def _cmd_rational_map(args: SimpleNamespace, inst: Instance) -> dict:
    source = inst.product(args.source)
    target = inst.product(args.target)
    rep = exists_rational_map(source, target)
    return {
        "source": str(source),
        "target": str(target),
        "exists": rep.forward.exists,
        "forward": _direction_payload(rep.forward, str(source), str(target)),
    }


def _cmd_equivalent(args: SimpleNamespace, inst: Instance) -> dict:
    left = inst.product(args.left)
    right = inst.product(args.right)
    rep = equivalent(left, right)
    payload: dict[str, object] = {
        "left": str(left),
        "right": str(right),
        "equivalent": rep.holds,
        "forward": _direction_payload(rep.forward, str(left), str(right)),
        "backward": _direction_payload(rep.backward, str(right), str(left)),
    }
    refuting = [w for w in rep.forward.factors + rep.backward.factors if not w.has_point]
    if refuting:
        payload["refuting_factor"] = str(refuting[0].factor)
    # balanced relations apply only with one k across both products and the
    # criterion's own hypotheses; otherwise the report has no "relations"
    ks = {f.k for f in left.factors} | {f.k for f in right.factors}
    if len(ks) == 1:
        try:
            relation = mutual_relation_witness(
                list(left.algebras()), list(right.algebras()), ks.pop()
            )
        except PreconditionError:
            pass
        else:
            payload["relations"] = None if relation is None else {
                "left_over_right": [list(r) for r in relation.left_over_right],
                "right_over_left": [list(r) for r in relation.right_over_left],
            }
    return payload


def _cmd_motive_iso(args: SimpleNamespace, inst: Instance) -> dict:
    left = upper_motive(inst.product(args.left))
    right = upper_motive(inst.product(args.right))
    return {
        "left": str(left),
        "right": str(right),
        "isomorphic": motives_isomorphic(left, right),
    }


def _cmd_compare_families(args: SimpleNamespace, inst: Instance) -> dict:
    comp = compare_families(inst.algebra_list(args.left), inst.algebra_list(args.right))
    return {
        "left": args.left,
        "right": args.right,
        "verdict": comp.verdict.value,
        "shared": [[str(a), str(b)] for a, b in comp.shared],
        "unmatched_left": [str(d) for d in comp.unmatched_left],
        "unmatched_right": [str(d) for d in comp.unmatched_right],
        "separating": str(comp.separating) if comp.separating else None,
    }


_ABSENT = object()


def _field(payload: dict, path: str) -> object:
    """The payload value at a dotted path such as "equals.equal", or _ABSENT."""
    try:
        return functools.reduce(dict.__getitem__, path.split("."), payload)
    except (KeyError, TypeError):
        return _ABSENT


def _cmd_verify_examples(args: SimpleNamespace, inst: None) -> dict:
    """Run each bundled fixture's claims through the commands on that fixture.

    A claim holds when each of its runs, a command's argv run once per
    fixture, exits 0 with the payload fields it "shows" and none it "lacks".
    """
    report = []
    for name, doc in sorted(_bundled_docs().items()):
        fixture = load_instance(doc, source=f"bundled:{name}")
        outcomes: dict[tuple[str, ...], tuple[int, object]] = {}
        claims = []
        for claim in doc["claims"]:
            text, ok = claim["claim"], True
            for run in claim["runs"]:
                argv = tuple(run["argv"])
                if argv not in outcomes:
                    outcomes[argv] = _run(parse_args(argv), fixture)
                code, result = outcomes[argv]
                if code != EXIT_OK:
                    ok, text = False, f"{text} (error: {result})"
                    break
                shows, lacks = run.get("shows", {}), run.get("lacks", [])
                ok = ok and all(_field(result, k) == v for k, v in shows.items())
                ok = ok and all(_field(result, k) is _ABSENT for k in lacks)
            claims.append({"claim": text, "pass": ok})
        report.append({"fixture": name, "claims": claims})
    all_ok = all(c["pass"] for f in report for c in f["claims"])
    return {"fixtures": report, "pass": all_ok}


def _tuple_str(tup: Sequence[int]) -> str:
    return "(" + ", ".join(map(str, tup)) + ")"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _direction_text(d: dict) -> list[str]:
    lines = [f"{d['source']} --> {d['target']}: {_yes(d['exists'])}"]
    for w in d["factors"]:
        status = "rational point" if w["has_point"] else "NO rational point"
        lines.append(
            f"  {w['factor']}: {status} "
            f"(reduced index {w['index']}, tuple {_tuple_str(w['witness'])})"
        )
    return lines


def _text(payload: dict) -> list[str]:
    """The text report of a command, rendered from its --json payload alone."""
    p = payload
    match p["command"]:
        case "index":
            return [f"index of {p['algebra']}: {p['index']} (degree {p['degree']})"]
        case "exponent":
            return [f"exponent of {p['algebra']}: {p['exponent']}"]
        case "subgroup":
            lines = [
                f"subgroup generated by {p['generators']}: order {p['order']}",
                "elements: "
                + ", ".join("(" + ",".join(map(str, e)) + ")" for e in p["elements"]),
            ]
            if "equals" in p:
                lines.append(
                    f"equal to subgroup generated by {p['equals']['generators']}: "
                    f"{_yes(p['equals']['equal'])}"
                )
            return lines
        case "reduced-index":
            return [
                f"reduced index of {p['target']} over F({p['base']}): {p['index']}",
                f"minimizing tuple: {_tuple_str(p['witness'])}",
            ]
        case "rational-map":
            lines = [f"rational map exists: {_yes(p['exists'])}"]
            return lines + _direction_text(p["forward"])
        case "equivalent":
            lines = [f"equivalent: {'true' if p['equivalent'] else 'false'}"]
            lines += ["forward  " + line for line in _direction_text(p["forward"])]
            lines += ["backward " + line for line in _direction_text(p["backward"])]
            if "refuting_factor" in p:
                lines.append(f"refuting factor: {p['refuting_factor']}")
            if "relations" in p and p["relations"] is None:
                lines.append("balanced relations: none exist")
            elif "relations" in p:
                lines.append("balanced relations:")
                for key in ("left_over_right", "right_over_left"):
                    label = key.replace("_", " ")
                    lines += [f"  {label}: {_tuple_str(r)}" for r in p["relations"][key]]
            return lines
        case "motive-iso":
            return [
                f"left motive:  {p['left']}",
                f"right motive: {p['right']}",
                f"isomorphic: {'true' if p['isomorphic'] else 'false'}",
            ]
        case "compare-families":
            lines = [f"verdict: {p['verdict']}"]
            if p["shared"]:
                lines.append("shared motives:")
                lines += [f"  {a}  ~  {b}" for a, b in p["shared"]]
            for side in ("left", "right"):
                if p[f"unmatched_{side}"]:
                    lines.append(f"{side} motives with no partner:")
                    lines += [f"  {d}" for d in p[f"unmatched_{side}"]]
            if p["separating"] is not None:
                lines.append(f"separating witness: {p['separating']}")
            return lines
        case "verify-examples":
            verdict = "all claims hold" if p["pass"] else "MISMATCH"
            return [
                f"{'PASS' if c['pass'] else 'FAIL'}  [{f['fixture']}] {c['claim']}"
                for f in p["fixtures"]
                for c in f["claims"]
            ] + [f"verify-examples: {verdict}"]
    raise InvariantViolation(f"no text rendering for command {p['command']!r}")


# One row per command: name, help, handler, and its flags as (option,
# metavar, help); a flag is required unless it has help text.
_COMMANDS = (
    ("index", "model index of a named algebra", _cmd_index,
     [("--algebra", None, None)]),
    ("exponent", "exponent (class order) of a named algebra", _cmd_exponent,
     [("--algebra", None, None)]),
    ("subgroup", "subgroup generated by a list of algebras", _cmd_subgroup,
     [("--generators", "NAMES", None),
      ("--equals", "NAMES", "compare with a second subgroup")]),
    ("reduced-index", "index over a product's function field", _cmd_reduced_index,
     [("--target", "NAME", None), ("--base", "EXPR", None)]),
    ("rational-map", "one-way rational map between products", _cmd_rational_map,
     [("--source", "EXPR", None), ("--target", "EXPR", None)]),
    ("equivalent", "rational maps in both directions", _cmd_equivalent,
     [("--left", "EXPR", None), ("--right", "EXPR", None)]),
    ("motive-iso", "isomorphism of the two upper motives", _cmd_motive_iso,
     [("--left", "EXPR", None), ("--right", "EXPR", None)]),
    ("compare-families", "match the upper-motive sets of two families",
     _cmd_compare_families, [("--left", "NAMES", None), ("--right", "NAMES", None)]),
    ("verify-examples", "check every claim of the bundled fixtures",
     _cmd_verify_examples, []),
)


# The global options, which go before the command name: option strings,
# metavar and help; an option with no metavar is a switch that takes no value.
_GLOBALS = (
    (("--instance", "-i"), "PATH",
     "instance file (JSON); required by every command except verify-examples"),
    (("--json",), None, "emit a stable machine-readable report"),
)


# The commands by name, for the plain parse and for _run.
_BY_NAME = {row[0]: row for row in _COMMANDS}


@functools.cache
def build_parser():
    """The argparse parser, built on first use and shared by every call.

    parse_args leaves the parser unchanged, so one instance serves repeated
    main() calls in a process; callers must not modify it.
    """
    import argparse  # only help, unusual spellings and usage errors need it
    parser = argparse.ArgumentParser(
        prog="gsbmaps",
        description=(
            "Decide rational maps between products of generalized Severi-Brauer "
            "varieties and isomorphism of their upper motives, over a JSON "
            "instance describing a finite abelian p-group of Brauer classes."
        ),
    )
    for options, metavar, option_help in _GLOBALS:
        if metavar:
            parser.add_argument(*options, metavar=metavar, help=option_help)
        else:
            parser.add_argument(*options, action="store_true", help=option_help)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, summary, _, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for option, metavar, flag_help in flags:
            p.add_argument(
                option, required=flag_help is None, metavar=metavar, help=flag_help
            )
    return parser


def _dest(option: str) -> str:
    """The attribute argparse stores an option under: "--foo-bar" -> "foo_bar"."""
    return option.lstrip("-").replace("-", "_")


def _parse_plain(tokens: list[str]) -> SimpleNamespace | None:
    """The parsed argv if it is plain, or None when argparse must read it.

    Plain means: global options, the command name, then the command's flags,
    each option spelt in full and given once, each value not starting with
    "-", and every required flag present.  argparse reads such an argv the
    same way; anything else (help, abbreviations, --flag=value, usage
    errors) is left to it.
    """
    given: dict[str, object] = {}
    row, pos, end = None, 0, len(tokens)
    while pos < end:
        token = tokens[pos]
        if row is None and token in _BY_NAME:
            row, pos = _BY_NAME[token], pos + 1
            continue
        dest = takes_value = None
        if row is None:  # a global option; one with no metavar is a switch
            for names, metavar, _ in _GLOBALS:
                if token in names:
                    dest, takes_value = _dest(names[0]), metavar is not None
        else:  # one of the command's flags, each of which takes a value
            for option, _, _ in row[3]:
                if option == token:
                    dest, takes_value = _dest(option), True
        if dest is None or dest in given:
            return None
        if takes_value and (pos + 1 == end or tokens[pos + 1][:1] == "-"):
            return None
        given[dest] = tokens[pos + 1] if takes_value else True
        pos += 2 if takes_value else 1
    if row is None:
        return None
    args: dict[str, object] = {"command": row[0]}
    for names, metavar, _ in _GLOBALS:
        args[_dest(names[0])] = None if metavar else False
    for option, _, flag_help in row[3]:
        dest = _dest(option)
        if flag_help is None and dest not in given:
            return None
        args[dest] = None
    args.update(given)
    return SimpleNamespace(**args)


def parse_args(argv: Sequence[str] | None = None) -> SimpleNamespace:
    """The parsed argv (default sys.argv[1:]): read from the command table
    when it is plain (see _parse_plain), else by argparse, which prints help
    and usage errors and exits."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(tokens)
    return args or SimpleNamespace(**vars(build_parser().parse_args(tokens)))


def _run(args: SimpleNamespace, inst: Instance | None) -> tuple[int, object]:
    """Run a parsed command: (0, its payload), or (exit code, error message)."""
    try:
        if inst is None and args.command != "verify-examples":
            if not args.instance:
                raise InstanceFormatError(
                    "this command needs an instance file (pass --instance PATH)"
                )
            inst = parse_instance(args.instance)
        payload = _BY_NAME[args.command][2](args, inst)
        payload["command"] = args.command
        return EXIT_OK, payload
    except InstanceFormatError as exc:
        return EXIT_PARSE, str(exc)
    except InvariantViolation as exc:
        return EXIT_INVARIANT, str(exc)
    except GsbError as exc:
        # precondition, hypothesis, model-mismatch and unsupported-model errors
        return EXIT_PRECONDITION, str(exc)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    code, result = _run(args, None)
    if code != EXIT_OK:
        label = "internal invariant failure" if code == EXIT_INVARIANT else "error"
        stream, text = sys.stderr, f"{label}: {result}"
    else:
        stream = sys.stdout
        if args.json:
            text = json.dumps(result, indent=2, sort_keys=True, ensure_ascii=False)
        else:
            text = "\n".join(_text(result))
        # verify-examples reports a mismatch as "pass": false
        code = EXIT_INVARIANT if result.get("pass") is False else EXIT_OK
    try:
        try:
            print(text, file=stream)
        except UnicodeEncodeError:
            # the stream's encoding cannot hold the report: escape it, as
            # Python does on stderr; a --json report stays valid JSON
            if stream is sys.stdout and args.json:
                text = json.dumps(result, indent=2, sort_keys=True)
            else:
                escaped = text.encode(stream.encoding, "backslashreplace")
                text = escaped.decode(stream.encoding)
            print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so the flush
        # at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
