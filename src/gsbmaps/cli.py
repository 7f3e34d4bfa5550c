"""Command-line front end.

Exit codes: 0 on a successful computation (the boolean answer lives in the
report, not the exit code), 2 on parse errors, 3 on precondition or
hypothesis violations, 4 on internal invariant failures, which includes any
mismatch found by verify-examples.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from typing import Any, Callable, Sequence

from .brauer import subgroup_generated, subgroups_equal
from .errors import (
    GsbError,
    InstanceFormatError,
    InvariantViolation,
    PreconditionError,
)
from .instance import Instance, load_instance, parse_instance
from .maps import (
    DirectionReport,
    classical_criterion,
    equivalent,
    exists_rational_map,
    mutual_relation_witness,
)
from .motives import compare_families, motives_isomorphic, upper_motive
from .reduction import GSBFactor, GSBProduct, reduced_index

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4

BUNDLED_FIXTURES = ("biquaternion.json", "mixed_exponent.json")


def load_bundled_instance(name: str) -> Instance:
    """Load one of the fixtures shipped inside the package."""
    path = resources.files("gsbmaps").joinpath("fixtures").joinpath(name)
    doc = json.loads(path.read_text(encoding="utf-8"))
    return load_instance(doc, source=f"bundled:{name}")


def _emit(args: argparse.Namespace, payload: dict, text: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in text:
            print(line)


def _require_instance(args: argparse.Namespace) -> Instance:
    if not args.instance:
        raise InstanceFormatError(
            "this command needs an instance file (pass --instance PATH)"
        )
    return parse_instance(args.instance)


def _tuple_str(tup: Sequence[int]) -> str:
    return "(" + ", ".join(map(str, tup)) + ")"


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


def _direction_text(rep: DirectionReport, source: str, target: str) -> list[str]:
    lines = [f"{source} --> {target}: {'yes' if rep.exists else 'no'}"]
    for w in rep.factors:
        status = "rational point" if w.has_point else "NO rational point"
        lines.append(
            f"  {w.factor}: {status} "
            f"(reduced index {w.index}, tuple {_tuple_str(w.witness)})"
        )
    return lines


def _cmd_index(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    alg = inst.algebra(args.algebra)
    payload = {
        "command": "index",
        "algebra": args.algebra,
        "class": list(alg.brauer_class.exponents),
        "degree": alg.degree,
        "index": alg.index,
    }
    _emit(args, payload, [f"index of {args.algebra}: {alg.index} (degree {alg.degree})"])
    return EXIT_OK


def _cmd_exponent(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    alg = inst.algebra(args.algebra)
    payload = {
        "command": "exponent",
        "algebra": args.algebra,
        "class": list(alg.brauer_class.exponents),
        "exponent": alg.exponent,
    }
    _emit(args, payload, [f"exponent of {args.algebra}: {alg.exponent}"])
    return EXIT_OK


def _cmd_subgroup(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    gens = inst.algebra_list(args.generators)
    sub = subgroup_generated([a.brauer_class for a in gens], inst.model)
    payload: dict[str, Any] = {
        "command": "subgroup",
        "generators": args.generators,
        "order": len(sub),
        "elements": [list(c.exponents) for c in sub],
    }
    text = [
        f"subgroup generated by {args.generators}: order {len(sub)}",
        "elements: " + ", ".join(str(c) for c in sub),
    ]
    if args.equals is not None:
        other_gens = inst.algebra_list(args.equals)
        other = subgroup_generated([a.brauer_class for a in other_gens], inst.model)
        equal = subgroups_equal(sub, other)
        payload["equals"] = {
            "generators": args.equals,
            "order": len(other),
            "elements": [list(c.exponents) for c in other],
            "equal": equal,
        }
        text.append(
            f"equal to subgroup generated by {args.equals}: "
            f"{'yes' if equal else 'no'}"
        )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_reduced_index(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    target = inst.algebra(args.target)
    base = inst.product(args.base)
    result = reduced_index(target, base)
    payload = {
        "command": "reduced-index",
        "target": args.target,
        "base": str(base),
        "index": result.value,
        "witness": list(result.witness),
    }
    _emit(
        args,
        payload,
        [
            f"reduced index of {args.target} over F({base}): {result.value}",
            f"minimizing tuple: {_tuple_str(result.witness)}",
        ],
    )
    return EXIT_OK


def _cmd_rational_map(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    source = inst.product(args.source)
    target = inst.product(args.target)
    rep = exists_rational_map(source, target)
    payload = {
        "command": "rational-map",
        "source": str(source),
        "target": str(target),
        "exists": rep.forward.exists,
        "forward": _direction_payload(rep.forward, str(source), str(target)),
    }
    text = [f"rational map exists: {'yes' if rep.forward.exists else 'no'}"]
    text += _direction_text(rep.forward, str(source), str(target))
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_equivalent(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    left = inst.product(args.left)
    right = inst.product(args.right)
    rep = equivalent(left, right)
    if rep.backward is None:
        raise InvariantViolation("equivalent returned no backward direction")
    payload = {
        "command": "equivalent",
        "left": str(left),
        "right": str(right),
        "equivalent": rep.holds,
        "forward": _direction_payload(rep.forward, str(left), str(right)),
        "backward": _direction_payload(rep.backward, str(right), str(left)),
    }
    text = [f"equivalent: {'true' if rep.holds else 'false'}"]
    text += ["forward  " + line for line in _direction_text(rep.forward, str(left), str(right))]
    text += ["backward " + line for line in _direction_text(rep.backward, str(right), str(left))]
    refuting = [w for w in rep.forward.factors + rep.backward.factors if not w.has_point]
    if refuting:
        text.append(f"refuting factor: {refuting[0].factor}")
        payload["refuting_factor"] = str(refuting[0].factor)
    applicable, relation = _relations_if_applicable(left, right)
    if applicable:
        if relation is None:
            payload["relations"] = None
            text.append("balanced relations: none exist")
        else:
            payload["relations"] = {
                "left_over_right": [list(r) for r in relation.left_over_right],
                "right_over_left": [list(r) for r in relation.right_over_left],
            }
            text.append("balanced relations:")
            for label, rows in (
                ("left over right", relation.left_over_right),
                ("right over left", relation.right_over_left),
            ):
                text += [f"  {label}: {_tuple_str(r)}" for r in rows]
    _emit(args, payload, text)
    return EXIT_OK


def _relations_if_applicable(left: GSBProduct, right: GSBProduct):
    """Mutual balanced relation matrices, when that criterion applies.

    Applicable means one k across all factors of both products and the
    criterion's own hypotheses hold; anything else reports inapplicable
    rather than failing the command.
    """
    ks = {f.k for f in left.factors} | {f.k for f in right.factors}
    if len(ks) != 1:
        return False, None
    try:
        relation = mutual_relation_witness(
            list(left.algebras()), list(right.algebras()), ks.pop()
        )
    except PreconditionError:
        return False, None
    return True, relation


def _cmd_motive_iso(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    left = upper_motive(inst.product(args.left))
    right = upper_motive(inst.product(args.right))
    iso = motives_isomorphic(left, right)
    payload = {
        "command": "motive-iso",
        "left": str(left),
        "right": str(right),
        "isomorphic": iso,
    }
    _emit(
        args,
        payload,
        [
            f"left motive:  {left}",
            f"right motive: {right}",
            f"isomorphic: {'true' if iso else 'false'}",
        ],
    )
    return EXIT_OK


def _cmd_compare_families(args: argparse.Namespace) -> int:
    inst = _require_instance(args)
    left = inst.algebra_list(args.left)
    right = inst.algebra_list(args.right)
    comp = compare_families(left, right)
    payload = {
        "command": "compare-families",
        "left": args.left,
        "right": args.right,
        "verdict": comp.verdict.value,
        "shared": [[str(a), str(b)] for a, b in comp.shared],
        "unmatched_left": [str(d) for d in comp.unmatched_left],
        "unmatched_right": [str(d) for d in comp.unmatched_right],
        "separating": str(comp.separating) if comp.separating else None,
    }
    text = [f"verdict: {comp.verdict.value}"]
    if comp.shared:
        text.append("shared motives:")
        text += [f"  {a}  ~  {b}" for a, b in comp.shared]
    if comp.unmatched_left:
        text.append("left motives with no partner:")
        text += [f"  {d}" for d in comp.unmatched_left]
    if comp.unmatched_right:
        text.append("right motives with no partner:")
        text += [f"  {d}" for d in comp.unmatched_right]
    if comp.separating is not None:
        text.append(f"separating witness: {comp.separating}")
    _emit(args, payload, text)
    return EXIT_OK


def _expects_precondition(thunk: Callable[[], Any]) -> bool:
    try:
        thunk()
    except PreconditionError:
        return True
    except GsbError:
        return False
    return False


def _biquaternion_claims(inst: Instance) -> list[tuple[str, Callable[[], bool]]]:
    d1, d2, d3 = (inst.algebra(n) for n in ("Δ1", "Δ2", "Δ3"))
    k0_left = inst.product("X(1;Δ1) x X(1;Δ2)")
    k0_right = inst.product("X(1;Δ1) x X(1;Δ3)")
    left = inst.product("X(2;Δ1) x X(2;Δ2)")
    target = GSBProduct((GSBFactor(d3, 1),))
    return [
        (
            "classes of {Δ1,Δ2} and {Δ1,Δ3} generate the same subgroup",
            lambda: classical_criterion([d1, d2], [d1, d3]) is True,
        ),
        (
            "mutual rational maps between the classical (k=0) products",
            lambda: equivalent(k0_left, k0_right).holds,
        ),
        (
            "no rational map X(2;Δ1) x X(2;Δ2) --> X(2;Δ3)",
            lambda: not exists_rational_map(left, target).holds,
        ),
        (
            "reduced index of Δ3 over F(X(2;Δ1) x X(2;Δ2)) is exactly 4",
            lambda: reduced_index(d3, left).value == 4,
        ),
    ]


def _mixed_exponent_claims(inst: Instance) -> list[tuple[str, Callable[[], bool]]]:
    d1, d2, d3 = (inst.algebra(n) for n in ("D1", "D2", "D3"))
    left = inst.product("X(2;D1) x X(2;D2)")
    right = inst.product("X(2;D1) x X(2;D3)")
    return [
        (
            "indices of (D1, D2, D3) are exactly (4, 4, 4)",
            lambda: (d1.index, d2.index, d3.index) == (4, 4, 4),
        ),
        (
            "exponents of (D1, D2, D3) are exactly (4, 2, 2)",
            lambda: (d1.exponent, d2.exponent, d3.exponent) == (4, 2, 2),
        ),
        (
            "subgroups generated by {D1,D2} and {D1,D3} do not coincide",
            lambda: not subgroups_equal(
                subgroup_generated([d1.brauer_class, d2.brauer_class]),
                subgroup_generated([d1.brauer_class, d3.brauer_class]),
            ),
        ),
        (
            "mutual rational maps between X(2;D1) x X(2;D2) and X(2;D1) x X(2;D3)",
            lambda: equivalent(left, right).holds,
        ),
        (
            "mutual relation criterion rejects the unequal exponents",
            lambda: _expects_precondition(
                lambda: mutual_relation_witness([d1, d2], [d1, d3], 1)
            ),
        ),
    ]


def _cmd_verify_examples(args: argparse.Namespace) -> int:
    fixtures = [
        ("biquaternion.json", _biquaternion_claims),
        ("mixed_exponent.json", _mixed_exponent_claims),
    ]
    all_ok = True
    report = []
    text = []
    for name, claim_builder in fixtures:
        inst = load_bundled_instance(name)
        claims = []
        for description, thunk in claim_builder(inst):
            try:
                ok = bool(thunk())
            except GsbError as exc:
                ok = False
                description = f"{description} (error: {exc})"
            claims.append({"claim": description, "pass": ok})
            all_ok = all_ok and ok
            text.append(f"{'PASS' if ok else 'FAIL'}  [{name}] {description}")
        report.append({"fixture": name, "claims": claims})
    payload = {"command": "verify-examples", "fixtures": report, "pass": all_ok}
    text.append(f"verify-examples: {'all claims hold' if all_ok else 'MISMATCH'}")
    _emit(args, payload, text)
    return EXIT_OK if all_ok else EXIT_INVARIANT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    parse_args leaves the parser unchanged, so one instance serves repeated
    main() calls in a process; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="gsbmaps",
        description=(
            "Decide rational maps between products of generalized Severi-Brauer "
            "varieties and isomorphism of their upper motives, over a JSON "
            "instance describing a finite abelian p-group of Brauer classes."
        ),
    )
    parser.add_argument(
        "--instance",
        "-i",
        metavar="PATH",
        help="instance file (JSON); required by every command except verify-examples",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a stable machine-readable report"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("index", help="model index of a named algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("exponent", help="exponent (class order) of a named algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("subgroup", help="subgroup generated by a list of algebras")
    p.add_argument("--generators", required=True, metavar="NAMES")
    p.add_argument("--equals", metavar="NAMES", help="compare with a second subgroup")
    p.set_defaults(func=_cmd_subgroup)

    p = sub.add_parser("reduced-index", help="index over a product's function field")
    p.add_argument("--target", required=True, metavar="NAME")
    p.add_argument("--base", required=True, metavar="EXPR")
    p.set_defaults(func=_cmd_reduced_index)

    p = sub.add_parser("rational-map", help="one-way rational map between products")
    p.add_argument("--source", required=True, metavar="EXPR")
    p.add_argument("--target", required=True, metavar="EXPR")
    p.set_defaults(func=_cmd_rational_map)

    p = sub.add_parser("equivalent", help="rational maps in both directions")
    p.add_argument("--left", required=True, metavar="EXPR")
    p.add_argument("--right", required=True, metavar="EXPR")
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("motive-iso", help="isomorphism of the two upper motives")
    p.add_argument("--left", required=True, metavar="EXPR")
    p.add_argument("--right", required=True, metavar="EXPR")
    p.set_defaults(func=_cmd_motive_iso)

    p = sub.add_parser(
        "compare-families", help="match the upper-motive sets of two families"
    )
    p.add_argument("--left", required=True, metavar="NAMES")
    p.add_argument("--right", required=True, metavar="NAMES")
    p.set_defaults(func=_cmd_compare_families)

    p = sub.add_parser(
        "verify-examples", help="check every claim of the bundled fixtures"
    )
    p.set_defaults(func=_cmd_verify_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantViolation as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except GsbError as exc:
        # precondition, hypothesis, model-mismatch and unsupported-model errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
