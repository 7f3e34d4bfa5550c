"""Build the generated inputs against the package, run them, check them.

A workload turns one cycle of generated specs (gen.py) into queries.  Each
query is a ``(run, check)`` pair: ``run()`` calls the package's public API
and returns its raw result, looking every function up on the module at call
time so a tracer's patches take effect; ``check(result)`` compares that
result with the brute-force oracle and runs outside the timed region.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
from cli_reference import InstanceView, expected


def _raw(factors):
    return [(tuple(v), k) for v, k in factors]


class _ModelObjects:
    """Library objects of one model, each class built once."""

    def __init__(self, gs, prime, orders):
        self.gs = gs
        self.model = gs.BrauerGroupModel(prime, tuple(orders))
        self._algebras = {}

    def algebra(self, vec):
        key = tuple(vec)
        got = self._algebras.get(key)
        if got is None:
            got = self._algebras[key] = self.gs.division_algebra(self.model.element(key))
        return got

    def product(self, factors):
        gs = self.gs
        return gs.GSBProduct(tuple(gs.GSBFactor(self.algebra(v), k) for v, k in factors))


def _direction_rows(report):
    return [(w.has_point, w.index, tuple(w.witness)) for w in report.factors]


def _descriptor_key(desc):
    return tuple((f.k, f.algebra.brauer_class.exponents) for f in desc.factors)


def _oracle_key(desc):
    return tuple((f[0], f[2]) for f in desc)


def _rows(matrix):
    return tuple(tuple(r) for r in matrix)


class Workload:
    """One workload: ``cycle(c)`` gives the specs of cycle c, ``build``
    turns a spec into a query, ``setup`` does any extra set-up work."""

    name = ""
    trace_cycles = 1

    def __init__(self, gs, seed, oracle, root):
        self.gs, self.seed, self.oracle, self.root = gs, seed, oracle, Path(root)

    def setup(self):
        pass


class Reduce(Workload):
    name = "reduce"
    trace_cycles = 6

    def cycle(self, c):
        return gen.reduce_cycle(self.seed, c)

    def build(self, q):
        gs, oracle = self.gs, self.oracle
        p, orders = q["prime"], tuple(q["orders"])
        b = _ModelObjects(gs, p, orders)
        kind = q["kind"]
        if kind == "ri":
            target, base = b.algebra(q["target"]), b.product(q["base"])

            def check(r):
                want = oracle.reduced_index(p, orders, tuple(q["target"]), tuple(_raw(q["base"])))
                return (r.value, tuple(r.witness)) == want

            return lambda: gs.reduced_index(target, base), check
        if kind == "map":
            source, target = b.product(q["source"]), b.product(q["target"])

            def check(r):
                rows = oracle.direction(p, orders, _raw(q["source"]), _raw(q["target"]))
                return (
                    r.backward is None
                    and _direction_rows(r.forward) == rows
                    and r.forward.exists == all(x[0] for x in rows)
                )

            return lambda: gs.exists_rational_map(source, target), check
        if kind == "eqv":
            a, bb = b.product(q["a"]), b.product(q["b"])

            def check(r):
                fwd = oracle.direction(p, orders, _raw(q["a"]), _raw(q["b"]))
                bwd = oracle.direction(p, orders, _raw(q["b"]), _raw(q["a"]))
                return (
                    _direction_rows(r.forward) == fwd
                    and _direction_rows(r.backward) == bwd
                    and r.holds == all(x[0] for x in fwd + bwd)
                )

            return lambda: gs.equivalent(a, bb), check
        left = [b.algebra(v) for v in q["left"]]
        right = [b.algebra(v) for v in q["right"]]
        k = q["k"]

        def check(r):
            want = oracle.mutual_relation(
                p, orders, [tuple(v) for v in q["left"]], [tuple(v) for v in q["right"]], k
            )
            if r is None or want is None:
                return r is None and want is None
            return (_rows(r.left_over_right), _rows(r.right_over_left)) == want

        return lambda: gs.mutual_relation_witness(left, right, k), check


class Families(Workload):
    name = "families"
    trace_cycles = 3

    def cycle(self, c):
        return gen.families_cycle(self.seed, c)

    def build(self, q):
        gs, oracle = self.gs, self.oracle
        p, orders = q["prime"], tuple(q["orders"])
        b = _ModelObjects(gs, p, orders)
        left = [b.algebra(v) for v in q["left"]]
        right = [b.algebra(v) for v in q["right"]]

        def check(r):
            verdict, shared, un_l, un_r = oracle.compare_families(
                p, orders, [tuple(v) for v in q["left"]], [tuple(v) for v in q["right"]]
            )
            sep = (un_l or un_r or [None])[0]
            return (
                r.verdict.value == verdict
                and [(_descriptor_key(a), _descriptor_key(c)) for a, c in r.shared]
                == [(_oracle_key(a), _oracle_key(c)) for a, c in shared]
                and [_descriptor_key(d) for d in r.unmatched_left] == [_oracle_key(d) for d in un_l]
                and [_descriptor_key(d) for d in r.unmatched_right] == [_oracle_key(d) for d in un_r]
                and (r.separating is None) == (sep is None)
                and (sep is None or _descriptor_key(r.separating) == _oracle_key(sep))
            )

        return lambda: gs.compare_families(left, right), check


class Subgroups(Workload):
    name = "subgroups"
    trace_cycles = 5

    def cycle(self, c):
        return gen.subgroups_cycle(self.seed, c)

    def build(self, q):
        gs, oracle = self.gs, self.oracle
        orders = tuple(q["orders"])
        b = _ModelObjects(gs, q["prime"], orders)
        kind = q["kind"]
        if kind == "single":
            a, c = b.algebra(q["a"]), b.algebra(q["b"])
            k, k2 = q["k"], q["k2"]

            def check(r):
                return r == (
                    k == k2
                    and oracle.closure(orders, (tuple(q["a"]),))
                    == oracle.closure(orders, (tuple(q["b"]),))
                )

            return lambda: gs.classify_single(a, k, c, k2), check
        left_gens = [tuple(v) for v in q["left"]]
        right_gens = [tuple(v) for v in q["right"]]
        if kind == "classical":
            left = [b.algebra(v) for v in left_gens]
            right = [b.algebra(v) for v in right_gens]

            def check(r):
                return r == (
                    oracle.closure(orders, tuple(left_gens))
                    == oracle.closure(orders, tuple(right_gens))
                )

            return lambda: gs.classical_criterion(left, right), check
        left = [b.model.element(v) for v in left_gens]
        right = [b.model.element(v) for v in right_gens]

        def run():
            h1 = gs.subgroup_generated(left)
            h2 = gs.subgroup_generated(right)
            return h1, h2, gs.subgroups_equal(h1, h2)

        def check(r):
            h1, h2, equal = r
            want_l = oracle.closure(orders, tuple(left_gens))
            want_r = oracle.closure(orders, tuple(right_gens))
            return (
                [c.exponents for c in h1] == sorted(want_l)
                and [c.exponents for c in h2] == sorted(want_r)
                and equal == (want_l == want_r)
            )

        return run, check


class Cli(Workload):
    name = "cli"
    trace_cycles = 25

    def __init__(self, gs, seed, oracle, root):
        super().__init__(gs, seed, oracle, root)
        self.dir = self.root / "perfbench" / "out" / f"cli-seed{seed}"
        fixtures = self.root / "src" / "gsbmaps" / "fixtures"
        self.paths = {name: fixtures / name for name in gen.BUNDLED}
        self.docs = {
            name: json.loads(path.read_text(encoding="utf-8"))
            for name, path in self.paths.items()
        }
        self.generated = gen.cli_instance_docs(seed)
        self.docs.update(self.generated)
        self.views = {name: InstanceView(doc) for name, doc in self.docs.items()}

    def setup(self):
        """Write the session's instance files."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.generated.items():
            path = self.dir / name
            path.write_text(json.dumps(doc, ensure_ascii=False, indent=1), encoding="utf-8")
            self.paths[name] = path

    def cycle(self, c):
        return gen.cli_cycle(self.seed, c, self.docs)

    def build(self, call):
        inst = call["instance"]
        argv = list(call["argv"])
        if inst is not None:
            argv = ["-i", str(self.paths.get(inst, self.dir / inst)), *argv]
        cli = sys.modules["gsbmaps.cli"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue()

        def check(r):
            code, text = expected(call, self.views.get(inst), self.oracle)
            return r[0] == code and (text is None or r[1] == text)

        return run, check


WORKLOADS = {w.name: w for w in (Reduce, Families, Subgroups, Cli)}

