"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps each layer's public functions (plus the two private
loops the counters need, ``maps._balanced_row`` and
``motives._pair_isomorphic``) and patches every name that is bound to one of
them in any loaded ``gsbmaps`` module, because modules bind imported names
at import time.  Each call becomes a span ``[function, start, end, parent
span, query id, attribute]`` kept in memory; ``write`` saves them at the end
of a run and ``derive`` computes every per-layer metric from them alone.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# layer -> functions traced in that layer (looked up in gsbmaps.<layer>)
LAYERS = {
    "instance": ("parse_instance", "load_instance", "parse_variety_expression"),
    "brauer": ("combine", "subgroup_generated", "subgroups_equal"),
    "reduction": ("reduced_index",),
    "maps": (
        "exists_rational_map",
        "equivalent",
        "has_rational_point_over",
        "relation_witness",
        "mutual_relation_witness",
        "classical_criterion",
        "_balanced_row",
    ),
    "motives": (
        "compare_families",
        "family_motives",
        "motives_isomorphic",
        "classify_single",
        "upper_motive",
        "_pair_isomorphic",
    ),
    "cli": ("main", "build_parser"),
}

MAPS_DECISIONS = frozenset(LAYERS["maps"]) - {"_balanced_row"}


def _lex_rank(row, bound: int) -> int:
    """1-based position of row in itertools.product(range(1, bound + 1), ...)."""
    rank = 0
    for entry in row:
        rank = rank * bound + (entry - 1)
    return rank + 1


# Passed to an attribute function in place of the result when the call raised.
RAISED = object()


def _reduced_index_attr(args, result):
    """(tuples enumerated, computed as (p^s)^n, or 0 if it raised; call key)."""
    target, base = args[0], args[1]
    model = target.brauer_class.group
    key = (
        model.prime,
        model.generator_orders,
        target.brauer_class.exponents,
        tuple((f.algebra.brauer_class.exponents, f.k) for f in base.factors),
    )
    if result is RAISED:
        return (0, key)
    return ((model.prime**target.degree_exponent) ** len(base.factors), key)


def _balanced_row_attr(args, result):
    d, family, _k, s = args
    bound = d.prime**s
    if result is RAISED:
        return 0
    if result is None:
        return bound ** len(family)
    return _lex_rank(result, bound)


def _relation_witness_attr(args, result):
    # None means no rational point: the seed returns before scanning.
    if result is None or result is RAISED:
        return 0
    target = args[0]
    return _lex_rank(result, target.prime**target.degree_exponent)


def _pair_attr(args, result):
    a, b = args
    return int(len(a.factors) == 1 and len(b.factors) == 1)


def _main_attr(args, result):
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue().encode("utf-8")) if getvalue else 0


ATTRS = {
    "reduced_index": _reduced_index_attr,
    "subgroup_generated": lambda args, result: 0 if result is RAISED else len(result),
    "_balanced_row": _balanced_row_attr,
    "relation_witness": _relation_witness_attr,
    "family_motives": lambda args, result: 0 if result is RAISED else len(result),
    "_pair_isomorphic": _pair_attr,
    "main": _main_attr,
}


class Tracer:
    def __init__(self):
        self.names = []  # function id -> (layer, function)
        self.spans = []
        self.qid = -1
        self._stack = []
        self._patches = []

    def _wrap(self, fn, fid, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                if attr is not None:
                    rec[5] = attr(args, RAISED)
                raise
            rec[2] = clock()
            stack.pop()
            if attr is not None:
                rec[5] = attr(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gsbmaps" or name.startswith("gsbmaps."))
        ]
        wrappers = {}
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"gsbmaps.{layer}")
            for fn_name in functions:
                fn = getattr(home, fn_name, None)
                if fn is None:
                    continue
                self.names.append((layer, fn_name))
                wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1, ATTRS.get(fn_name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tlayer\tfunction\tstart\tend\tparent\tquery\tattribute\n")
            for sid, (fid, start, end, parent, qid, attr) in enumerate(self.spans):
                layer, fn_name = self.names[fid]
                fh.write(
                    f"{sid}\t{layer}\t{fn_name}\t{start!r}\t{end!r}\t{parent}\t{qid}\t{attr!r}\n"
                )

    def derive(self) -> dict:
        """Every per-layer metric, from the spans alone."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {}
        sums = {}
        distinct = set()
        for sid, (fid, start, end, _, _, attr) in enumerate(spans):
            layer, fn_name = names[fid]
            self_s[layer] += (end - start) - child[sid]
            calls[fn_name] = calls.get(fn_name, 0) + 1
            if fn_name == "reduced_index":
                sums["tuples"] = sums.get("tuples", 0) + attr[0]
                distinct.add(attr[1])
            elif fn_name in ATTRS and attr is not None:
                sums[fn_name] = sums.get(fn_name, 0) + attr
            if fn_name in ("subgroup_generated", "subgroups_equal"):
                sums["subgroup_s"] = sums.get("subgroup_s", 0.0) + (end - start) - child[sid]
            elif fn_name == "combine":
                sums["combine_s"] = sums.get("combine_s", 0.0) + (end - start) - child[sid]
        ri_calls = calls.get("reduced_index", 0)
        return {
            "instance.load_calls": calls.get("load_instance", 0),
            "instance.load_s": self_s["instance"],
            "brauer.combine_calls": calls.get("combine", 0),
            "brauer.combine_s": sums.get("combine_s", 0.0),
            "brauer.subgroup_calls": calls.get("subgroup_generated", 0),
            "brauer.subgroup_elements": sums.get("subgroup_generated", 0),
            "brauer.subgroup_s": sums.get("subgroup_s", 0.0),
            "reduction.reduced_index_calls": ri_calls,
            "reduction.reduced_index_distinct": len(distinct),
            "reduction.distinct_ratio": len(distinct) / ri_calls if ri_calls else 0.0,
            "reduction.tuples": sums.get("tuples", 0),
            "reduction.self_s": self_s["reduction"],
            "maps.decision_calls": sum(calls.get(n, 0) for n in MAPS_DECISIONS),
            "maps.relation_tuples_scanned": sums.get("_balanced_row", 0)
            + sums.get("relation_witness", 0),
            "maps.self_s": self_s["maps"],
            "motives.descriptors": sums.get("family_motives", 0),
            "motives.pair_checks": calls.get("_pair_isomorphic", 0),
            "motives.fast_path_pairs": sums.get("_pair_isomorphic", 0),
            "motives.self_s": self_s["motives"],
            "cli.calls": calls.get("main", 0),
            "cli.output_bytes": sums.get("main", 0),
            "cli.self_s": self_s["cli"],
        }
