"""Instance file loading and the variety-expression grammar."""

from __future__ import annotations

import copy
import json
import pickle
import random
import re
import time
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsbmaps
from gsbmaps import (
    AlgebraSpec,
    BrauerGroupModel,
    GSBFactor,
    GSBProduct,
    InstanceFormatError,
    PreconditionError,
    load_instance,
    parse_instance,
    parse_variety_expression,
)
from gsbmaps import brauer
from helpers import oracle_index, oracle_valuation

FIXTURES = Path(gsbmaps.__file__).parent / "fixtures"


def _biquaternion_doc():
    return {
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
        "aliases": {"Delta1": "Δ1"},
    }


class TestLoadInstance:
    def test_biquaternion_document(self):
        inst = load_instance(_biquaternion_doc())
        assert inst.model.generator_orders == (2, 2, 2)
        assert inst.algebra("Δ1").brauer_class.exponents == (1, 1, 0)
        assert inst.algebra("Δ1").degree == 4

    def test_alias_resolution(self):
        inst = load_instance(_biquaternion_doc())
        assert inst.algebra("Delta1") == inst.algebra("Δ1")

    def test_unknown_algebra(self):
        inst = load_instance(_biquaternion_doc())
        with pytest.raises(InstanceFormatError, match="unknown algebra"):
            inst.algebra("Δ9")

    def test_omitted_generators_default_to_zero(self):
        doc = _biquaternion_doc()
        doc["algebras"]["Q"] = {"class": {"q1": 1}, "degree": 2}
        inst = load_instance(doc)
        assert inst.algebra("Q").brauer_class.exponents == (1, 0, 0)

    def test_non_division_degree_rejected(self):
        doc = _biquaternion_doc()
        doc["algebras"]["bad"] = {"class": {"q1": 1, "q2": 1}, "degree": 8}
        with pytest.raises(InstanceFormatError, match="not a division algebra"):
            load_instance(doc)

    @pytest.mark.parametrize(
        "degree, message",
        [
            (8, "f.json: algebra bad: not a division algebra of the declared "
                "degree (model index 4, declared degree 8)"),
            (6, "f.json: algebra 'bad': degree 6 is not a power of the prime 2"),
        ],
    )
    def test_degree_message_exact(self, degree, message):
        doc = _biquaternion_doc()
        doc["algebras"]["bad"] = {"class": {"q1": 1, "q2": 1}, "degree": degree}
        with pytest.raises(InstanceFormatError) as info:
            load_instance(doc, source="f.json")
        assert str(info.value) == message

    def test_degree_must_be_prime_power(self):
        # 0 and -4 stay format errors although vp refuses n < 1 outright
        for degree in (6, 0, -4):
            doc = _biquaternion_doc()
            doc["algebras"]["bad"] = {"class": {"q1": 1}, "degree": degree}
            with pytest.raises(InstanceFormatError, match="power of the prime"):
                load_instance(doc)

    def test_unknown_generator_named(self):
        doc = _biquaternion_doc()
        doc["algebras"]["bad"] = {"class": {"zz": 1}, "degree": 2}
        with pytest.raises(InstanceFormatError, match="'zz'"):
            load_instance(doc)

    def test_bad_prime(self):
        doc = _biquaternion_doc()
        doc["prime"] = 6
        with pytest.raises(InstanceFormatError, match="prime"):
            load_instance(doc)

    def test_large_prime_loads_quickly(self):
        p = 2**61 - 1
        doc = {
            "prime": p,
            "generators": [{"name": "g", "order": p}],
            "algebras": {"D": {"class": {"g": 1}, "degree": p}},
        }
        start = time.perf_counter()
        inst = load_instance(doc)
        assert time.perf_counter() - start < 0.5
        assert inst.algebra("D").index == p

    def test_duplicate_generator_names(self):
        doc = _biquaternion_doc()
        doc["generators"].append({"name": "q1", "order": 2})
        with pytest.raises(InstanceFormatError, match="duplicate"):
            load_instance(doc)

    def test_missing_keys_named(self):
        with pytest.raises(InstanceFormatError, match="'prime'"):
            load_instance({"generators": [], "algebras": {}})

    def test_alias_collision(self):
        doc = _biquaternion_doc()
        doc["aliases"]["Δ2"] = "Δ1"
        with pytest.raises(InstanceFormatError, match="collides"):
            load_instance(doc)

    def test_alias_unknown_target(self):
        doc = _biquaternion_doc()
        doc["aliases"]["D9"] = "Δ9"
        with pytest.raises(InstanceFormatError, match="unknown target"):
            load_instance(doc)

    def test_alias_target_must_be_a_name(self):
        doc = _biquaternion_doc()
        doc["aliases"]["D9"] = ["Δ1"]
        with pytest.raises(InstanceFormatError, match="unknown target"):
            load_instance(doc)

    def test_forbidden_name_characters(self):
        doc = _biquaternion_doc()
        doc["algebras"]["a;b"] = {"class": {"q1": 1}, "degree": 2}
        with pytest.raises(InstanceFormatError, match="forbidden"):
            load_instance(doc)

    @pytest.mark.parametrize("name", ["D_1", "a b", "x-1", "Δ.2", "q'", "1", "²"])
    def test_names_beyond_letters_and_digits_load(self, name):
        doc = _biquaternion_doc()
        doc["algebras"][name] = {"class": {"q1": 1}, "degree": 2}
        doc["varieties"] = {"v": f"X(1;{name})"}
        inst = load_instance(doc)
        assert inst.algebra(name).label == name
        assert str(inst.varieties["v"]) == f"X(1;{name})"

    def test_named_varieties_parsed(self):
        doc = _biquaternion_doc()
        doc["varieties"] = {"left": "X(2;Δ1) x X(2;Δ2)"}
        inst = load_instance(doc)
        assert isinstance(inst.varieties["left"], GSBProduct)
        assert str(inst.varieties["left"]) == "X(2;Δ1) x X(2;Δ2)"


def _edit(path, change):
    """Load the biquaternion document after change(entry, key) at path."""

    def load():
        doc = _biquaternion_doc()
        *parents, key = path
        entry = doc
        for part in parents:
            entry = entry[part]
        change(entry, key)
        load_instance(doc)

    return load


def _set(path, value):
    """Load the biquaternion document with the entry at path set to value."""
    return _edit(path, lambda entry, key: entry.__setitem__(key, value))


def _drop(path):
    """Load the biquaternion document with the entry at path removed."""
    return _edit(path, lambda entry, key: entry.__delitem__(key))


def _list_error(names):
    return lambda: load_instance(_biquaternion_doc()).algebra_list(names)


_Q1 = {"class": {"q1": 1}, "degree": 2}

# id -> (a call that must fail, its whole message, which names the field)
LOAD_ERRORS = {
    "empty-name": (
        _set(("generators", 0, "name"), ""),
        "<instance>: generator #1: name must be a nonempty string",
    ),
    "non-string-name": (
        _set(("generators", 0, "name"), 7),
        "<instance>: generator #1: name must be a nonempty string",
    ),
    "padded-name": (
        _set(("generators", 0, "name"), " q1"),
        "<instance>: generator #1: name ' q1' has leading or trailing whitespace",
    ),
    "string-prime": (
        _set(("prime",), "2"),
        "<instance>: 'prime' must be an integer, got a string",
    ),
    "top-level-list": (
        lambda: load_instance([]),
        "<instance>: top level must be a JSON object",
    ),
    "no-generators": (
        _set(("generators",), []),
        "<instance>: 'generators' must be nonempty",
    ),
    "object-generators": (
        _set(("generators",), {}),
        "<instance>: 'generators' must be a list, got an object",
    ),
    "generator-not-object": (
        _set(("generators", 0), "q1"),
        "<instance>: generator #1: must be an object",
    ),
    "algebra-not-object": (
        _set(("algebras", "Δ1"), 4),
        "<instance>: algebra 'Δ1': must be an object",
    ),
    "float-order": (
        _set(("generators", 0, "order"), 2.0),
        "<instance>: generator #1 ('q1'): 'order' must be an integer",
    ),
    "bool-order": (
        _set(("generators", 0, "order"), True),
        "<instance>: generator #1 ('q1'): 'order' must be an integer",
    ),
    "float-exponent": (
        _set(("algebras", "Δ1", "class", "q1"), 2.0),
        "<instance>: algebra 'Δ1': exponent of 'q1' must be an integer",
    ),
    "bool-exponent": (
        _set(("algebras", "Δ1", "class", "q1"), True),
        "<instance>: algebra 'Δ1': exponent of 'q1' must be an integer",
    ),
    "null-exponent": (
        _set(("algebras", "Δ1", "class", "q1"), None),
        "<instance>: algebra 'Δ1': exponent of 'q1' must be an integer",
    ),
    "algebras-not-object": (
        _set(("algebras",), []),
        "<instance>: 'algebras' must be an object, got a list",
    ),
    "missing-algebras": (
        _drop(("algebras",)),
        "<instance>: missing required key 'algebras'",
    ),
    "algebra-empty-name": (
        _set(("algebras", ""), _Q1),
        "<instance>: algebra '': name must be a nonempty string",
    ),
    "algebra-non-string-name": (
        _set(("algebras", 7), _Q1),
        "<instance>: algebra 7: name must be a nonempty string",
    ),
    "algebra-padded-name": (
        _set(("algebras", "Δ4 "), _Q1),
        "<instance>: algebra 'Δ4 ': name 'Δ4 ' has leading or trailing whitespace",
    ),
    "algebra-forbidden-name": (
        _set(("algebras", "a;b"), _Q1),
        "<instance>: algebra 'a;b': name 'a;b' contains forbidden characters [';']",
    ),
    "missing-class": (
        _drop(("algebras", "Δ1", "class")),
        "<instance>: algebra 'Δ1': missing required key 'class'",
    ),
    "list-class": (
        _set(("algebras", "Δ1", "class"), [["q1", 1]]),
        "<instance>: algebra 'Δ1': 'class' must be an object, got a list",
    ),
    "null-class": (
        _set(("algebras", "Δ1", "class"), None),
        "<instance>: algebra 'Δ1': 'class' must be an object, got null",
    ),
    "unknown-generator": (
        _set(("algebras", "Δ1", "class", "zz"), 1),
        "<instance>: algebra 'Δ1': unknown generator 'zz'",
    ),
    "missing-degree": (
        _drop(("algebras", "Δ1", "degree")),
        "<instance>: algebra 'Δ1': missing required key 'degree'",
    ),
    "string-degree": (
        _set(("algebras", "Δ1", "degree"), "4"),
        "<instance>: algebra 'Δ1': 'degree' must be an integer, got a string",
    ),
    "bool-degree": (
        _set(("algebras", "Δ1", "degree"), True),
        "<instance>: algebra 'Δ1': 'degree' must be an integer, got a boolean",
    ),
    "float-degree": (
        _set(("algebras", "Δ1", "degree"), 4.0),
        "<instance>: algebra 'Δ1': 'degree' must be an integer, got a number",
    ),
    "tuple-degree": (
        _set(("algebras", "Δ1", "degree"), (4,)),
        "<instance>: algebra 'Δ1': 'degree' must be an integer, got tuple",
    ),
    "non-division-degree": (
        _set(("algebras", "Δ1", "degree"), 8),
        "<instance>: algebra Δ1: not a division algebra of the declared degree "
        "(model index 4, declared degree 8)",
    ),
    "zero-degree": (
        _set(("algebras", "Δ1", "degree"), 0),
        "<instance>: algebra 'Δ1': degree 0 is not a power of the prime 2",
    ),
    "aliases-not-object": (
        _set(("aliases",), ["Delta1"]),
        "<instance>: 'aliases' must be an object, got a list",
    ),
    "alias-padded-name": (
        _set(("aliases", " D"), "Δ1"),
        "<instance>: alias ' D': name ' D' has leading or trailing whitespace",
    ),
    "alias-collision": (
        _set(("aliases", "Δ2"), "Δ1"),
        "<instance>: alias 'Δ2': collides with an algebra name",
    ),
    "alias-unknown-target": (
        _set(("aliases", "D9"), "Δ9"),
        "<instance>: alias 'D9': unknown target algebra 'Δ9'",
    ),
    "alias-list-target": (
        _set(("aliases", "D9"), ["Δ1"]),
        "<instance>: alias 'D9': unknown target algebra ['Δ1']",
    ),
    "alias-of-alias": (
        _set(("aliases", "D9"), "Delta1"),
        "<instance>: alias 'D9': unknown target algebra 'Delta1'",
    ),
    "variety-not-string": (
        _set(("varieties",), {"v": 5}),
        "<instance>: variety 'v': expression must be a string",
    ),
    "malformed-variety": (
        _set(("varieties",), {"v": "X(2;Δ1"}),
        "<instance>: variety 'v': expected a factor X(m;NAME) at position 0 in "
        "'X(2;Δ1'",
    ),
    "out-of-range-variety": (
        _set(("varieties",), {"v": "X(4;Δ1)"}),
        "<instance>: variety 'v': k=2 out of range for an algebra of degree 4 "
        "(need 0 <= k < 2)",
    ),
    "empty-algebra-list": (_list_error(" , "), "empty algebra list"),
    "empty-entry-inside-list": (
        _list_error("Δ1,,Δ2"),
        "empty entry in algebra list 'Δ1,,Δ2'",
    ),
    "empty-entry-at-end": (_list_error("Δ1, "), "empty entry in algebra list 'Δ1, '"),
}


@pytest.mark.parametrize("call, message", LOAD_ERRORS.values(), ids=LOAD_ERRORS)
def test_load_error_names_the_field(call, message):
    with pytest.raises(InstanceFormatError) as info:
        call()
    assert str(info.value) == message


def _two_algebras(first, second):
    """The biquaternion document whose algebras are first, then second."""
    doc = _biquaternion_doc()
    doc["algebras"] = dict([first, second])
    del doc["aliases"]
    return doc


_UNKNOWN_GENERATOR = ("A", {"class": {"zz": 1}, "degree": 2})
_BAD_NAME = ("a;b", _Q1)


def _algebra_fault(rng, name, spec, degree, prime):
    """One algebra entry with a random fault, and the message it must raise."""
    what = f"<instance>: algebra {name!r}"
    kind = rng.randrange(8)
    if kind == 0:
        bad = rng.choice((f"{name};", f"({name}", f" {name}"))
        if bad.startswith(" "):
            problem = "has leading or trailing whitespace"
        else:
            problem = f"contains forbidden characters {sorted(set(bad) & set('();'))}"
        return (bad, spec), f"<instance>: algebra {bad!r}: name {bad!r} {problem}"
    if kind == 1:
        return (name, rng.choice((4, [], "x", None))), f"{what}: must be an object"
    if kind == 2:
        items = list(spec["class"].items())
        items.insert(rng.randint(0, len(items)), ("zz", 1))
        spec["class"] = dict(items)
        return (name, spec), f"{what}: unknown generator 'zz'"
    if kind == 3:
        gen = rng.choice(("g0", *spec["class"]))
        spec["class"] = {**spec["class"], gen: rng.choice((1.5, "1", None, True))}
        return (name, spec), f"{what}: exponent of {gen!r} must be an integer"
    if kind == 4:
        spec["degree"] = rng.choice((True, False))
        return (name, spec), f"{what}: 'degree' must be an integer, got a boolean"
    if kind == 5:
        del spec["degree"]
        return (name, spec), f"{what}: missing required key 'degree'"
    if kind == 6:
        spec["degree"] = degree * prime + 1
        return (name, spec), (
            f"{what}: degree {degree * prime + 1} is not a power of the prime {prime}"
        )
    spec["degree"] = degree * prime
    return (name, spec), (
        f"<instance>: algebra {name}: not a division algebra of the declared "
        f"degree (model index {degree}, declared degree {degree * prime})"
    )


class TestFaultPrecedence:
    """With two faults in a document, the first in document order wins."""

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (
                _UNKNOWN_GENERATOR,
                _BAD_NAME,
                "<instance>: algebra 'A': unknown generator 'zz'",
            ),
            (
                _BAD_NAME,
                _UNKNOWN_GENERATOR,
                "<instance>: algebra 'a;b': name 'a;b' contains forbidden "
                "characters [';']",
            ),
            (
                ("A", {"class": {"q1": 1}}),
                ("B", {"class": {"q1": 1}, "degree": 4}),
                "<instance>: algebra 'A': missing required key 'degree'",
            ),
            (
                ("A", {"class": {"q1": 1}, "degree": 4}),
                ("B", {"class": {"q1": 1}}),
                "<instance>: algebra A: not a division algebra of the declared "
                "degree (model index 2, declared degree 4)",
            ),
        ],
    )
    def test_across_algebras(self, first, second, message):
        with pytest.raises(InstanceFormatError) as info:
            load_instance(_two_algebras(first, second))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, spec, message",
        [
            (
                "A",
                {"class": {"q1": 1.5}},
                "<instance>: algebra 'A': exponent of 'q1' must be an integer",
            ),
            (
                "A",
                {"class": {"zz": 1, "q1": "1"}, "degree": 8},
                "<instance>: algebra 'A': unknown generator 'zz'",
            ),
            (
                "a;b",
                4,
                "<instance>: algebra 'a;b': name 'a;b' contains forbidden "
                "characters [';']",
            ),
            ("", [], "<instance>: algebra '': name must be a nonempty string"),
            (
                "A",
                {"class": [], "degree": "2"},
                "<instance>: algebra 'A': 'class' must be an object, got a list",
            ),
        ],
    )
    def test_within_one_algebra(self, name, spec, message):
        doc = _biquaternion_doc()
        doc["algebras"] = {name: spec, **doc["algebras"]}
        with pytest.raises(InstanceFormatError) as info:
            load_instance(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", range(40))
    def test_earliest_of_random_faults_wins(self, seed):
        rng = random.Random(f"faults:{seed}")
        doc, expected = _random_document(rng)
        entries = list(doc["algebras"].items())
        aliases = list(doc["aliases"].items())
        # document order: every algebra entry, then every alias
        slots = len(entries) + len(aliases) + 1
        faults = {}
        for pos in rng.sample(range(slots), min(slots, rng.randint(1, 2))):
            if pos < len(entries):
                name, spec = entries[pos]
                entries[pos], faults[pos] = _algebra_fault(
                    rng, name, dict(spec), expected[name].degree, doc["prime"]
                )
            else:
                # an alias that collides with an algebra name, replacing or
                # following the aliases
                taken = rng.choice(sorted(doc["algebras"]))
                alias = (taken, rng.choice(sorted(doc["algebras"])))
                faults[pos] = f"<instance>: alias {taken!r}: collides with an algebra name"
                if pos - len(entries) < len(aliases):
                    aliases[pos - len(entries)] = alias
                else:
                    aliases.append(alias)
        doc["algebras"] = dict(entries)
        doc["aliases"] = dict(aliases)
        with pytest.raises(InstanceFormatError) as info:
            load_instance(doc)
        assert str(info.value) == faults[min(faults)]

    def test_subclassed_values_load_as_json_values(self):
        # the loader's type checks use isinstance: subclasses of str, dict
        # and int load, but a bool never counts as an int
        class Name(str):
            pass

        class Count(int):
            pass

        doc = _biquaternion_doc()
        doc["algebras"][Name("N")] = OrderedDict(
            [("class", OrderedDict([("q1", Count(3))])), ("degree", Count(2))]
        )
        inst = load_instance(doc)
        assert inst.algebra("N").brauer_class.exponents == (1, 0, 0)
        assert inst.algebra("N").label == "N"


class TestLoadCost:
    def _count_index_calls(self, monkeypatch):
        calls = []
        real = brauer._index

        def counting(exponents, orders):
            calls.append(tuple(exponents))
            return real(exponents, orders)

        monkeypatch.setattr(brauer, "_index", counting)
        return calls

    def test_index_worked_out_once_per_distinct_class(self, monkeypatch):
        # 9 names over 4 classes of Z/4 x Z/2, spelled in and out of range
        spellings = {
            "A": {"g1": 1},
            "B": {"g1": 5, "g2": 0},
            "C": {"g1": -3},
            "D": {"g2": 1},
            "E": {"g2": 3, "g1": 4},
            "F": {"g1": 2, "g2": 1},
            "G": {"g1": -2, "g2": -1},
            "H": {},
            "I": {"g1": 0},
        }
        degrees = {"A": 4, "B": 4, "C": 4, "D": 2, "E": 2, "F": 4, "G": 4}
        doc = {
            "prime": 2,
            "generators": [{"name": "g1", "order": 4}, {"name": "g2", "order": 2}],
            "algebras": {
                name: {"class": cls, "degree": degrees.get(name, 1)}
                for name, cls in spellings.items()
            },
            "aliases": {"Alias": "C"},
        }
        calls = self._count_index_calls(monkeypatch)
        inst = load_instance(doc)
        assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (2, 1)]
        same_class = [("A", "B", "C"), ("D", "E"), ("F", "G"), ("H", "I")]
        for names in same_class:
            specs = [inst.algebra(name) for name in names]
            assert all(s.brauer_class is specs[0].brauer_class for s in specs)
            assert [s.label for s in specs] == list(names)
        assert inst.algebra("Alias") is inst.algebra("C")

    @pytest.mark.parametrize("seed", range(10))
    def test_random_documents_index_each_class_once(self, monkeypatch, seed):
        doc, expected = _random_document(random.Random(seed))
        calls = self._count_index_calls(monkeypatch)
        load_instance(doc)
        assert len(calls) == len({spec.brauer_class for spec in expected.values()})

    def _count_spec_builds(self, monkeypatch):
        built = []
        real_init = AlgebraSpec.__init__
        real_trusted = AlgebraSpec._trusted.__func__

        def init(self, brauer_class, label=None):
            built.append(label)
            real_init(self, brauer_class, label)

        def trusted(cls, brauer_class, label, degree_exponent):
            built.append(label)
            return real_trusted(cls, brauer_class, label, degree_exponent)

        monkeypatch.setattr(AlgebraSpec, "__init__", init)
        monkeypatch.setattr(AlgebraSpec, "_trusted", classmethod(trusted))
        return built

    @pytest.mark.parametrize("seed", range(10))
    def test_specs_are_built_on_lookup(self, monkeypatch, seed):
        rng = random.Random(seed)
        doc, expected = _random_document(rng)
        built = self._count_spec_builds(monkeypatch)
        calls = self._count_index_calls(monkeypatch)
        inst = load_instance(doc)
        assert built == []
        names = rng.sample(sorted(doc["algebras"]), rng.randint(1, len(doc["algebras"])))
        specs = [inst.algebra(name) for name in names]
        assert built == names
        assert all(inst.algebra(n) is s for n, s in zip(names, specs))
        assert built == names
        for alias, target in doc["aliases"].items():
            assert inst.algebra(alias) is inst.algebra(target)
        assert len(built) == len({*names, *doc["aliases"].values()})
        for name in doc["algebras"]:
            inst.algebra(name)
        assert len(built) == len(doc["algebras"])
        assert len(calls) == len({spec.brauer_class for spec in expected.values()})
        by_class = {}
        for name in doc["algebras"]:
            spec = inst.algebra(name)
            first = by_class.setdefault(spec.brauer_class, spec.brauer_class)
            assert spec.brauer_class is first

    def test_alias_looked_up_first_builds_its_target_once(self, monkeypatch):
        built = self._count_spec_builds(monkeypatch)
        inst = load_instance(_biquaternion_doc())
        alias = inst.algebra("Delta1")
        assert built == ["Δ1"]
        assert inst.algebra("Δ1") is alias
        assert alias.label == "Δ1"
        assert built == ["Δ1"]

    def _count_product_builds(self, monkeypatch):
        """Names of the GSBFactor and GSBProduct classes, once per build."""
        built = []
        for kind in (GSBFactor, GSBProduct):
            real_init = kind.__init__

            def init(self, *args, _real=real_init, **kwargs):
                built.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(kind, "__init__", init)
        return built

    def test_named_variety_builds_only_the_names_it_uses(self, monkeypatch):
        doc = _biquaternion_doc()
        doc["varieties"] = {"left": "X(2;Delta1) x X(1;Δ3)", "right": "X(1;Δ2)"}
        built = self._count_spec_builds(monkeypatch)
        products = self._count_product_builds(monkeypatch)
        inst = load_instance(doc)
        assert built == [] and products == []
        left = inst.varieties["left"]
        assert built == ["Δ1", "Δ3"]
        assert products == ["GSBFactor", "GSBFactor", "GSBProduct"]
        assert inst.varieties["left"] is left
        assert inst.product("left") is left
        assert left.factors[0].algebra is inst.algebra("Δ1")
        assert built == ["Δ1", "Δ3"]
        assert products == ["GSBFactor", "GSBFactor", "GSBProduct"]

    def test_membership_builds_nothing(self, monkeypatch):
        doc = _biquaternion_doc()
        doc["varieties"] = {"left": "X(2;Delta1) x X(1;Δ3)"}
        built = self._count_spec_builds(monkeypatch)
        products = self._count_product_builds(monkeypatch)
        inst = load_instance(doc)
        for name in [*doc["algebras"], *doc["aliases"]]:
            assert name in inst.algebras
        assert "left" in inst.varieties
        for unknown in ("Δ9", "q1", "left", "", 7):
            assert unknown not in inst.algebras
        assert "Δ1" not in inst.varieties
        assert built == [] and products == []

    @pytest.mark.parametrize("seed", range(20))
    def test_load_builds_no_algebra_factor_or_product(self, monkeypatch, seed):
        rng = random.Random(f"work:{seed}")
        doc, expected = _random_document(rng)
        usable = [n for n, spec in expected.items() if spec.degree_exponent > 0]
        if usable:
            doc["varieties"] = {
                f"v{i}": " x ".join(
                    _valid_factor(rng, name, expected[name], doc["prime"])
                    for name in rng.choices(usable, k=rng.randint(1, 4))
                )
                for i in range(rng.randint(1, 4))
            }
        built = self._count_spec_builds(monkeypatch)
        products = self._count_product_builds(monkeypatch)
        calls = self._count_index_calls(monkeypatch)
        inst = load_instance(doc)
        assert built == [] and products == []
        assert len(calls) == len({spec.brauer_class for spec in expected.values()})
        for vname, text in doc.get("varieties", {}).items():
            looked_up = inst.varieties[vname]
            assert looked_up == parse_variety_expression(text, inst)
            assert looked_up is inst.varieties[vname]


def _valid_factor(rng, name, spec, prime):
    """A factor X(p^k;name) with a random valid k, spaced at random."""
    m = prime ** rng.randrange(spec.degree_exponent)
    pad = [rng.choice(("", " ", "\t")) for _ in range(6)]
    return f"{pad[0]}X({pad[1]}{m}{pad[2]};{pad[3]}{name}{pad[4]}){pad[5]}"


def _random_document(rng):
    """A valid random document, and the spec each name must load as."""
    p = rng.choice((2, 3))
    orders = tuple(p ** rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    model = BrauerGroupModel(p, orders)
    gens = [f"g{i}" for i in range(len(orders))]
    pool = [
        tuple(rng.randrange(o) for o in orders) for _ in range(rng.randint(1, 4))
    ]
    algebras, expected = {}, {}
    for i in range(rng.randint(1, 12)):
        # any integer of the residue class spells an exponent; a zero may
        # be left out, and the generators come in any order
        spelled = [e + o * rng.randint(-3, 3) for e, o in zip(rng.choice(pool), orders)]
        class_map = {
            g: e for g, e in zip(gens, spelled) if e != 0 or rng.random() < 0.5
        }
        class_map = dict(rng.sample(sorted(class_map.items()), len(class_map)))
        name = f"A{i}"
        expected[name] = AlgebraSpec(model.element(spelled), name)
        algebras[name] = {"class": class_map, "degree": expected[name].degree}
    aliases = {}
    for j in range(rng.randint(0, 3)):
        target = rng.choice(sorted(algebras))
        aliases[f"B{j}"] = target
        expected[f"B{j}"] = expected[target]
    doc = {
        "prime": p,
        "generators": [{"name": g, "order": o} for g, o in zip(gens, orders)],
        "algebras": algebras,
        "aliases": aliases,
    }
    return doc, expected


@pytest.mark.parametrize("seed", range(60))
def test_loaded_specs_match_the_public_constructor(seed):
    doc, expected = _random_document(random.Random(seed))
    inst = load_instance(doc)
    assert inst.algebras.keys() == expected.keys()
    # every name, then every alias, in document order
    assert list(inst.algebras) == list(expected)
    orders = inst.model.generator_orders
    for name, want in expected.items():
        got = inst.algebra(name)
        assert got.brauer_class == want.brauer_class
        assert got.label == want.label
        assert got.degree_exponent == want.degree_exponent
        assert str(got) == str(want)
        assert repr(got) == repr(want)
        index = oracle_index(orders, got.brauer_class.exponents)
        assert got.degree_exponent == oracle_valuation(index, inst.model.prime)
        for twin in (
            pickle.loads(pickle.dumps(got)),
            copy.copy(got),
            copy.deepcopy(got),
        ):
            assert twin == got
            assert twin.label == got.label
            assert repr(twin) == repr(got)
    # whole instances, looked up wholly and not at all, keep their shared
    # objects through a round trip; aliases are looked up before targets
    fresh = load_instance(doc)
    for twin in (
        pickle.loads(pickle.dumps(inst)),
        copy.deepcopy(inst),
        pickle.loads(pickle.dumps(fresh)),
        copy.deepcopy(fresh),
    ):
        for alias, target in doc["aliases"].items():
            assert twin.algebra(alias) is twin.algebra(target)
        by_class = {}
        for name in doc["algebras"]:
            cls = twin.algebra(name).brauer_class
            assert by_class.setdefault(cls, cls) is cls
        assert twin == inst
        assert list(twin.algebras) == list(expected)


def _variety_fault(rng, names, expected, prime):
    """A variety expression whose one fault sits in a random factor, and the
    message fragment that names the fault's kind."""
    factors = [_valid_factor(rng, n, expected[n], prime) for n in names]
    at = rng.randrange(len(factors))
    name = names[at]
    kind = rng.randrange(6)
    if kind == 0:
        choices = ["X(;{n})", "X({m})", "Y({m};{n})", "X({m},{n})", "X({m};{n}"]
        bad = rng.choice(choices[:-1] if at < len(factors) - 1 else choices)
        factors[at] = bad.format(m=prime, n=name)
        if at and rng.random() < 0.5:  # junk between the separator and factor
            factors[at] = "y " + _valid_factor(rng, name, expected[name], prime)
        text = " x ".join(factors)
        if at == len(factors) - 1 and rng.random() < 0.3:
            text = " x ".join(factors[:-1] + [""])
        return text, "expected"
    if kind == 1:
        factors[at] = f"X({'1' * 5000};{name})"
        return " x ".join(factors), "bad integer|not a power"
    if kind == 2:
        factors[at] = rng.choice(("X(1;)", "X(1; \t)"))
        return " x ".join(factors), "empty algebra name"
    if kind == 3:
        m = rng.choice((0, prime + 1, prime * (prime + 1)))
        factors[at] = f"X({m};{name})"
        return " x ".join(factors), "not a power of the prime"
    if kind == 4:
        factors[at] = f"X(1;{rng.choice(('Z9', 'g0', 'B99', 'a b'))})"
        return " x ".join(factors), "unknown algebra"
    s = expected[name].degree_exponent
    factors[at] = f"X({prime ** (s + rng.randrange(2))};{name})"
    return " x ".join(factors), "out of range"


class TestVarietyFaults:
    """A named variety's fault is the fault parse_variety_expression finds
    in the same text, reported as a load error (exit 2)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_load_message_is_the_parse_message(self, tmp_path, capsys, seed):
        from gsbmaps.cli import main

        rng = random.Random(f"variety-faults:{seed}")
        doc, expected = _random_document(rng)
        while not any(spec.degree_exponent for spec in expected.values()):
            doc, expected = _random_document(rng)
        usable = sorted(n for n, spec in expected.items() if spec.degree_exponent)
        names = rng.choices(usable, k=rng.randint(1, 4))
        text, kind = _variety_fault(rng, names, expected, doc["prime"])
        inst = load_instance(doc)
        with pytest.raises((InstanceFormatError, PreconditionError)) as parsed:
            parse_variety_expression(text, inst)
        assert re.search(kind, str(parsed.value))

        doc["varieties"] = {"ok": f"X(1;{names[0]})", "v": text}
        with pytest.raises(InstanceFormatError) as loaded:
            load_instance(doc)
        assert str(loaded.value) == f"<instance>: variety 'v': {parsed.value}"

        # on the command line: exit 2 when the file loads, 2 or 3 by class
        # when the same text is an argument
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert main(["-i", str(path), "index", "--algebra", usable[0]]) == 2
        message = f"{path}: variety 'v': {parsed.value}"
        assert capsys.readouterr().err == f"error: {message}\n"
        del doc["varieties"]["v"]
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["-i", str(path), "rational-map", "--source", text, "--target", "ok"]
        code = main(argv)
        assert code == (2 if type(parsed.value) is InstanceFormatError else 3)
        assert capsys.readouterr().err == f"error: {parsed.value}\n"


class TestParseInstanceFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_biquaternion_doc()), encoding="utf-8")
        inst = parse_instance(path)
        assert inst.algebra("Δ3").brauer_class.exponents == (0, 1, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceFormatError, match="cannot read"):
            parse_instance(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="malformed JSON"):
            parse_instance(path)

    # past the default recursion limit and the default int digit limit of 4300;
    # neither limit is raised here
    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"prime": 1' + "0" * 4999 + "}"],
        ids=["200000-deep-array", "5000-digit-prime"],
    )
    def test_decoder_limits_are_format_errors(self, tmp_path, text):
        path = tmp_path / "limits.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(path)
        assert str(exc.value).startswith(f"{path}: cannot decode JSON")

    def test_bundled_fixtures_load(self):
        bi = parse_instance(FIXTURES / "biquaternion.json")
        assert bi.model.generator_orders == (2, 2, 2)
        mixed = parse_instance(FIXTURES / "mixed_exponent.json")
        assert mixed.model.generator_orders == (4, 2, 2)
        assert mixed.algebra("D1").exponent == 4


class TestPaddedNames:
    """A single name given with surrounding whitespace resolves as the bare
    name, as an entry of a comma list or a name in an expression already
    does; the loader refuses padded names, so stripping is unambiguous."""

    @pytest.fixture()
    def inst(self):
        doc = _biquaternion_doc()
        doc["varieties"] = {"left": "X(2;Δ1) x X(2;Δ2)", "two words": "X(1;Δ3)"}
        return load_instance(doc)

    @pytest.mark.parametrize("name", [" Δ1", "Δ1 ", "\tΔ1\n", "\u3000Δ1", " Delta1 "])
    def test_padded_algebra_name(self, inst, name):
        assert inst.algebra(name) is inst.algebra("Δ1")

    @pytest.mark.parametrize("name", [" left", "left ", "\tleft\n", " two words "])
    def test_padded_variety_name(self, inst, name):
        assert inst.product(name) is inst.product(name.strip())

    def test_unknown_padded_name_is_named_bare(self, inst):
        with pytest.raises(InstanceFormatError, match="^unknown algebra 'Δ9'$"):
            inst.algebra(" Δ9 ")


class TestVarietyGrammar:
    @pytest.fixture()
    def inst(self):
        return load_instance(_biquaternion_doc())

    def test_basic_parse(self, inst):
        prod = parse_variety_expression("X(2;Δ1) x X(2;Δ2)", inst)
        assert len(prod) == 2
        assert prod.factors[0].k == 1
        assert prod.factors[0].algebra == inst.algebra("Δ1")

    def test_whitespace_tolerant(self, inst):
        a = parse_variety_expression("X( 2 ; Δ1 )   x   X(2;Δ2)", inst)
        b = parse_variety_expression("X(2;Δ1) x X(2;Δ2)", inst)
        assert a == b

    def test_classical_dimension_one(self, inst):
        prod = parse_variety_expression("X(1;Δ1)", inst)
        assert prod.factors[0].k == 0

    def test_alias_in_expression(self, inst):
        a = parse_variety_expression("X(2;Delta1)", inst)
        b = parse_variety_expression("X(2;Δ1)", inst)
        assert a == b

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "X(2;Δ1",
            "X(;Δ1)",
            "X(2)",
            "X(2;Δ1) y X(2;Δ2)",
            "X(2;Δ1) x",
            "X(2;Δ1) trailing",
            "X(2; )",
        ],
    )
    def test_syntax_errors(self, inst, text):
        with pytest.raises(InstanceFormatError):
            parse_variety_expression(text, inst)

    def test_unknown_name(self, inst):
        with pytest.raises(InstanceFormatError, match="unknown algebra"):
            parse_variety_expression("X(2;Δ9)", inst)

    def test_non_prime_power_dimension(self, inst):
        for text in ("X(3;Δ1)", "X(0;Δ1)"):
            with pytest.raises(InstanceFormatError, match="power of the prime"):
                parse_variety_expression(text, inst)

    def test_out_of_range_dimension_is_precondition(self, inst):
        # X(4;D) with deg(D)=4 violates the factor range, not the grammar
        with pytest.raises(PreconditionError):
            parse_variety_expression("X(4;Δ1)", inst)

    @pytest.mark.parametrize(
        "text, error, match",
        [
            # a semantic error in a factor wins over a syntax error after it
            ("X(4;Δ1) y", PreconditionError, None),
            ("X(3;Δ1) y", InstanceFormatError, "power of the prime"),
            ("X(2;Δ9) x", InstanceFormatError, "unknown algebra"),
            # "²" is a digit to str.isdigit but not a decimal digit
            ("X(²;Δ1)", InstanceFormatError, None),
        ],
    )
    def test_error_order_and_type(self, inst, text, error, match):
        with pytest.raises(error, match=match):
            parse_variety_expression(text, inst)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\tX(2;Δ1)\nxX(2;Δ2) ", "X(2;Δ1) x X(2;Δ2)"),
            ("X(٢;Δ1)", "X(2;Δ1)"),  # an Arabic-Indic digit two
        ],
    )
    def test_unicode_whitespace_and_decimal_digits(self, inst, text, expected):
        assert str(parse_variety_expression(text, inst)) == expected

    def test_round_trip_fixture_expressions(self, inst):
        for text in ("X(2;Δ1) x X(2;Δ2)", "X(1;Δ3)", "X(2;Δ1) x X(1;Δ2) x X(2;Δ3)"):
            prod = parse_variety_expression(text, inst)
            assert parse_variety_expression(str(prod), inst) == prod

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["Δ1", "Δ2", "Δ3"]), st.sampled_from([1, 2])),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_generated(self, parts):
        inst = load_instance(_biquaternion_doc())
        text = " x ".join(f"X({m};{name})" for name, m in parts)
        prod = parse_variety_expression(text, inst)
        assert parse_variety_expression(str(prod), inst) == prod
