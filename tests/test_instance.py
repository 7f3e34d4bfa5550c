"""Instance file loading and the variety-expression grammar."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsbmaps
from gsbmaps import (
    GSBProduct,
    InstanceFormatError,
    PreconditionError,
    load_instance,
    parse_instance,
    parse_variety_expression,
)

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

    def test_named_varieties_parsed(self):
        doc = _biquaternion_doc()
        doc["varieties"] = {"left": "X(2;Δ1) x X(2;Δ2)"}
        inst = load_instance(doc)
        assert isinstance(inst.varieties["left"], GSBProduct)
        assert str(inst.varieties["left"]) == "X(2;Δ1) x X(2;Δ2)"


def _set(path, value):
    """Load the biquaternion document with the entry at path set to value."""

    def load():
        doc = _biquaternion_doc()
        *parents, key = path
        entry = doc
        for part in parents:
            entry = entry[part]
        entry[key] = value
        load_instance(doc)

    return load


# id -> (a call that must fail, the message naming the offending field)
LOAD_ERRORS = {
    "empty-name": (_set(("generators", 0, "name"), ""), "generator #1: name must"),
    "non-string-name": (_set(("generators", 0, "name"), 7), "generator #1: name must"),
    "padded-name": (_set(("generators", 0, "name"), " q1"), "name ' q1' has leading"),
    "string-prime": (_set(("prime",), "2"), "'prime' must be an integer, got a string"),
    "top-level-list": (lambda: load_instance([]), "top level must be a JSON object"),
    "no-generators": (_set(("generators",), []), "'generators' must be nonempty"),
    "object-generators": (
        _set(("generators",), {}),
        "'generators' must be a list, got an object",
    ),
    "generator-not-object": (_set(("generators", 0), "q1"), "generator #1: must be"),
    "algebra-not-object": (_set(("algebras", "Δ1"), 4), "algebra 'Δ1': must be"),
    "float-order": (_set(("generators", 0, "order"), 2.0), r"'q1'\): 'order' must"),
    "bool-order": (_set(("generators", 0, "order"), True), r"'q1'\): 'order' must"),
    "float-exponent": (
        _set(("algebras", "Δ1", "class", "q1"), 2.0),
        "algebra 'Δ1': exponent of 'q1' must be an integer",
    ),
    "bool-exponent": (
        _set(("algebras", "Δ1", "class", "q1"), True),
        "algebra 'Δ1': exponent of 'q1' must be an integer",
    ),
    "variety-not-string": (
        _set(("varieties",), {"v": 5}),
        "variety 'v': expression must be a string",
    ),
    "malformed-variety": (_set(("varieties",), {"v": "X(2;Δ1"}), "variety 'v': "),
    "out-of-range-variety": (
        _set(("varieties",), {"v": "X(4;Δ1)"}),
        "variety 'v': k=2 out of range",
    ),
    "empty-algebra-list": (
        lambda: load_instance(_biquaternion_doc()).algebra_list(" , "),
        "empty algebra list",
    ),
    "empty-entry-inside-list": (
        lambda: load_instance(_biquaternion_doc()).algebra_list("Δ1,,Δ2"),
        "empty entry in algebra list 'Δ1,,Δ2'",
    ),
    "empty-entry-at-end": (
        lambda: load_instance(_biquaternion_doc()).algebra_list("Δ1, "),
        "empty entry in algebra list 'Δ1, '",
    ),
}


@pytest.mark.parametrize("call, match", LOAD_ERRORS.values(), ids=LOAD_ERRORS)
def test_load_error_names_the_field(call, match):
    with pytest.raises(InstanceFormatError, match=match):
        call()


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

    def test_bundled_fixtures_load(self):
        bi = parse_instance(FIXTURES / "biquaternion.json")
        assert bi.model.generator_orders == (2, 2, 2)
        mixed = parse_instance(FIXTURES / "mixed_exponent.json")
        assert mixed.model.generator_orders == (4, 2, 2)
        assert mixed.algebra("D1").exponent == 4


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
