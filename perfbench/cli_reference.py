"""Expected stdout and exit code of each scripted CLI call.

Every answer comes from the brute-force oracle; this module only renders it
in the CLI's documented text and ``--json`` formats (JSON is
``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``).
Error-path calls are checked on their exit code alone, so their messages
may change freely.
"""

from __future__ import annotations

import json

from gen import CLI_ERROR_EXIT
from oracle import Oracle, vp

VERIFY_CLAIMS = (
    (
        "biquaternion.json",
        (
            "classes of {Δ1,Δ2} and {Δ1,Δ3} generate the same subgroup",
            "mutual rational maps between the classical (k=0) products",
            "no rational map X(2;Δ1) x X(2;Δ2) --> X(2;Δ3)",
            "reduced index of Δ3 over F(X(2;Δ1) x X(2;Δ2)) is exactly 4",
        ),
    ),
    (
        "mixed_exponent.json",
        (
            "indices of (D1, D2, D3) are exactly (4, 4, 4)",
            "exponents of (D1, D2, D3) are exactly (4, 2, 2)",
            "subgroups generated by {D1,D2} and {D1,D3} do not coincide",
            "mutual rational maps between X(2;D1) x X(2;D2) and X(2;D1) x X(2;D3)",
            "mutual relation criterion rejects the unequal exponents",
        ),
    ),
)


class InstanceView:
    """The oracle's reading of a decoded instance document."""

    def __init__(self, doc):
        self.p = doc["prime"]
        self.orders = tuple(g["order"] for g in doc["generators"])
        gens = [g["name"] for g in doc["generators"]]
        self.algebras = {}
        for name, spec in doc["algebras"].items():
            vec = tuple(
                spec["class"].get(g, 0) % o for g, o in zip(gens, self.orders)
            )
            self.algebras[name] = vec
        self.aliases = dict(doc.get("aliases", {}))
        self.varieties = dict(doc.get("varieties", {}))

    def algebra(self, name):
        """(canonical name, class vector)."""
        name = self.aliases.get(name, name)
        return name, self.algebras[name]

    def s(self, vec, oracle: Oracle) -> int:
        return oracle.degree_exponent(self.p, self.orders, vec)

    def product(self, text):
        """Factors (label, vector, k) of a named variety or an expression."""
        text = self.varieties.get(text, text)
        out = []
        for part in text.split(" x "):
            m, name = part.strip()[2:-1].split(";")
            label, vec = self.algebra(name.strip())
            out.append((label, vec, vp(int(m), self.p)))
        return out

    def factor_str(self, f):
        return f"X({self.p ** f[2]};{f[0]})"

    def product_str(self, fs):
        return " x ".join(self.factor_str(f) for f in fs)


def _flags(argv):
    out = {}
    for i in range(1, len(argv) - 1, 2):
        out[argv[i].lstrip("-")] = argv[i + 1]
    return out


def _tuple_str(tup):
    return "(" + ", ".join(map(str, tup)) + ")"


def _class_str(vec):
    return "(" + ",".join(map(str, vec)) + ")"


def _names(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def expected(call, view: InstanceView | None, oracle: Oracle):
    """(exit code, expected stdout or None when only the code is checked)."""
    cell = call["cell"]
    if cell in CLI_ERROR_EXIT:
        return CLI_ERROR_EXIT[cell], None
    argv = list(call["argv"])
    as_json = argv[0] == "--json"
    if as_json:
        argv = argv[1:]
    payload, text = _RENDER[argv[0]](argv, _flags(argv), view, oracle)
    if as_json:
        return 0, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return 0, "".join(line + "\n" for line in text)


def _index(argv, fl, view, oracle):
    name = fl["algebra"]
    _, vec = view.algebra(name)
    index = oracle.index(view.orders, vec)
    payload = {"command": "index", "algebra": name, "class": list(vec),
               "degree": index, "index": index}
    return payload, [f"index of {name}: {index} (degree {index})"]


def _exponent(argv, fl, view, oracle):
    name = fl["algebra"]
    _, vec = view.algebra(name)
    exp = oracle.exponent(view.orders, vec)
    payload = {"command": "exponent", "algebra": name, "class": list(vec), "exponent": exp}
    return payload, [f"exponent of {name}: {exp}"]


def _subgroup_elements(view, oracle, names):
    gens = tuple(view.algebra(n)[1] for n in _names(names))
    return sorted(oracle.closure(view.orders, gens))


def _subgroup(argv, fl, view, oracle):
    elems = _subgroup_elements(view, oracle, fl["generators"])
    payload = {"command": "subgroup", "generators": fl["generators"],
               "order": len(elems), "elements": [list(e) for e in elems]}
    text = [
        f"subgroup generated by {fl['generators']}: order {len(elems)}",
        "elements: " + ", ".join(_class_str(e) for e in elems),
    ]
    if "equals" in fl:
        other = _subgroup_elements(view, oracle, fl["equals"])
        equal = other == elems
        payload["equals"] = {"generators": fl["equals"], "order": len(other),
                             "elements": [list(e) for e in other], "equal": equal}
        text.append(f"equal to subgroup generated by {fl['equals']}: {'yes' if equal else 'no'}")
    return payload, text


def _raw(fs):
    return [(f[1], f[2]) for f in fs]


def _reduced_index(argv, fl, view, oracle):
    _, vec = view.algebra(fl["target"])
    base = view.product(fl["base"])
    value, witness = oracle.reduced_index(view.p, view.orders, vec, _raw(base))
    base_str = view.product_str(base)
    payload = {"command": "reduced-index", "target": fl["target"], "base": base_str,
               "index": value, "witness": list(witness)}
    return payload, [
        f"reduced index of {fl['target']} over F({base_str}): {value}",
        f"minimizing tuple: {_tuple_str(witness)}",
    ]


def _direction(view, oracle, source, target):
    rows = oracle.direction(view.p, view.orders, _raw(source), _raw(target))
    exists = all(r[0] for r in rows)
    src, tgt = view.product_str(source), view.product_str(target)
    payload = {
        "source": src,
        "target": tgt,
        "exists": exists,
        "factors": [
            {"factor": view.factor_str(f), "has_point": ok, "index": value,
             "witness": list(witness)}
            for f, (ok, value, witness) in zip(target, rows)
        ],
    }
    text = [f"{src} --> {tgt}: {'yes' if exists else 'no'}"]
    for f, (ok, value, witness) in zip(target, rows):
        status = "rational point" if ok else "NO rational point"
        text.append(
            f"  {view.factor_str(f)}: {status} "
            f"(reduced index {value}, tuple {_tuple_str(witness)})"
        )
    refuting = [f for f, r in zip(target, rows) if not r[0]]
    return exists, payload, text, refuting


def _rational_map(argv, fl, view, oracle):
    source, target = view.product(fl["source"]), view.product(fl["target"])
    exists, fwd, lines, _ = _direction(view, oracle, source, target)
    payload = {"command": "rational-map", "source": fwd["source"], "target": fwd["target"],
               "exists": exists, "forward": fwd}
    return payload, [f"rational map exists: {'yes' if exists else 'no'}", *lines]


def _equivalent(argv, fl, view, oracle):
    left, right = view.product(fl["left"]), view.product(fl["right"])
    f_ok, fwd, f_lines, f_ref = _direction(view, oracle, left, right)
    b_ok, bwd, b_lines, b_ref = _direction(view, oracle, right, left)
    holds = f_ok and b_ok
    payload = {"command": "equivalent", "left": fwd["source"], "right": fwd["target"],
               "equivalent": holds, "forward": fwd, "backward": bwd}
    text = [f"equivalent: {'true' if holds else 'false'}"]
    text += ["forward  " + line for line in f_lines]
    text += ["backward " + line for line in b_lines]
    refuting = f_ref + b_ref
    if refuting:
        text.append(f"refuting factor: {view.factor_str(refuting[0])}")
        payload["refuting_factor"] = view.factor_str(refuting[0])
    ks = {f[2] for f in left + right}
    lvecs, rvecs = [f[1] for f in left], [f[1] for f in right]
    if len(ks) == 1 and oracle.relation_applicable(view.p, view.orders, lvecs, rvecs):
        rel = oracle.mutual_relation(view.p, view.orders, lvecs, rvecs, ks.pop())
        if rel is None:
            payload["relations"] = None
            text.append("balanced relations: none exist")
        else:
            payload["relations"] = {"left_over_right": [list(r) for r in rel[0]],
                                    "right_over_left": [list(r) for r in rel[1]]}
            text.append("balanced relations:")
            for label, rows in (("left over right", rel[0]), ("right over left", rel[1])):
                text += [f"  {label}: {_tuple_str(r)}" for r in rows]
    return payload, text


def _descriptor(view, oracle, fs):
    """Factors sorted the package's way: by (k, degree exponent, class)."""
    return sorted(fs, key=lambda f: (f[2], view.s(f[1], oracle), f[1]))


def _descriptor_str(view, fs):
    return "M^{%s}_{%s}" % (",".join(str(f[2]) for f in fs), ",".join(f[0] for f in fs))


def _motive_iso(argv, fl, view, oracle):
    left = _descriptor(view, oracle, view.product(fl["left"]))
    right = _descriptor(view, oracle, view.product(fl["right"]))
    iso = oracle.equivalent(view.p, view.orders, _raw(left), _raw(right))
    ls, rs = _descriptor_str(view, left), _descriptor_str(view, right)
    payload = {"command": "motive-iso", "left": ls, "right": rs, "isomorphic": iso}
    return payload, [
        f"left motive:  {ls}",
        f"right motive: {rs}",
        f"isomorphic: {'true' if iso else 'false'}",
    ]


def _compare_families(argv, fl, view, oracle):
    sides = []
    for key in ("left", "right"):
        names = [view.algebra(n) for n in _names(fl[key])]
        sides.append(names)
    verdict, shared, un_l, un_r = oracle.compare_families(
        view.p, view.orders, [v for _, v in sides[0]], [v for _, v in sides[1]]
    )

    def show(desc, names):
        return "M^{%s}_{%s}" % (
            ",".join(str(f[0]) for f in desc),
            ",".join(names[f[3]][0] for f in desc),
        )

    sh = [(show(a, sides[0]), show(b, sides[1])) for a, b in shared]
    ul = [show(d, sides[0]) for d in un_l]
    ur = [show(d, sides[1]) for d in un_r]
    separating = (ul or ur or [None])[0]
    payload = {"command": "compare-families", "left": fl["left"], "right": fl["right"],
               "verdict": verdict, "shared": [list(x) for x in sh],
               "unmatched_left": ul, "unmatched_right": ur, "separating": separating}
    text = [f"verdict: {verdict}"]
    if sh:
        text.append("shared motives:")
        text += [f"  {a}  ~  {b}" for a, b in sh]
    if ul:
        text.append("left motives with no partner:")
        text += [f"  {d}" for d in ul]
    if ur:
        text.append("right motives with no partner:")
        text += [f"  {d}" for d in ur]
    if separating is not None:
        text.append(f"separating witness: {separating}")
    return payload, text


def _verify_examples(argv, fl, view, oracle):
    report, text = [], []
    for fixture, claims in VERIFY_CLAIMS:
        report.append({"fixture": fixture,
                       "claims": [{"claim": c, "pass": True} for c in claims]})
        text += [f"PASS  [{fixture}] {c}" for c in claims]
    text.append("verify-examples: all claims hold")
    return {"command": "verify-examples", "fixtures": report, "pass": True}, text


_RENDER = {
    "index": _index,
    "exponent": _exponent,
    "subgroup": _subgroup,
    "reduced-index": _reduced_index,
    "rational-map": _rational_map,
    "equivalent": _equivalent,
    "motive-iso": _motive_iso,
    "compare-families": _compare_families,
    "verify-examples": _verify_examples,
}
