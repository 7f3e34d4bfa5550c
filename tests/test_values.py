"""Value semantics of the record classes, and what importing the CLI loads.

Every record is built twice from the same inputs, so the two copies are
equal but distinct objects.
"""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gsbmaps import (
    AlgebraSpec,
    BrauerClass,
    BrauerGroupModel,
    DirectionReport,
    FactorWitness,
    FamilyComparison,
    FamilyVerdict,
    GSBFactor,
    GSBProduct,
    Instance,
    MutualRelation,
    RationalMapReport,
    Subgroup,
    UpperMotiveDescriptor,
    compare_families,
    division_algebra,
    equivalent,
    load_instance,
    mutual_relation_witness,
    subgroup_generated,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _model():
    return BrauerGroupModel(2, (2, 2, 2))


def _algebra(label="Δ1"):
    return AlgebraSpec(_model().element((1, 1, 0)), label)


def _factor():
    return GSBFactor(_algebra(), 1)


def _witness():
    return FactorWitness(_factor(), 2, (1, 2))


def _direction():
    return DirectionReport((_witness(),))


def _instance():
    product = GSBProduct((_factor(),))
    return Instance(_model(), {"Δ1": _algebra()}, {"X": product})


BUILDERS = {
    "BrauerGroupModel": _model,
    "BrauerClass": lambda: _model().element((3, -1, 0)),
    "AlgebraSpec": _algebra,
    "Subgroup": lambda: subgroup_generated([_model().element((1, 1, 0))]),
    "GSBFactor": _factor,
    "GSBProduct": lambda: GSBProduct((_factor(), GSBFactor(_algebra("D"), 0))),
    "FactorWitness": _witness,
    "DirectionReport": _direction,
    "RationalMapReport": lambda: RationalMapReport(_direction(), _direction()),
    "MutualRelation": lambda: MutualRelation(((1, 2),), ((2, 1),)),
    "UpperMotiveDescriptor": lambda: UpperMotiveDescriptor((_factor(),)),
    "FamilyComparison": lambda: FamilyComparison(
        ((UpperMotiveDescriptor((_factor(),)),) * 2,),
        (),
        (UpperMotiveDescriptor((GSBFactor(_algebra(), 0),)),),
    ),
    "Instance": _instance,
}
FROZEN = [name for name in BUILDERS if name != "Instance"]


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_inputs_give_equal_objects(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b
    assert a == b
    assert not a != b
    assert type(a).__name__ == name


@pytest.mark.parametrize("name", FROZEN)
def test_equal_objects_hash_equal(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_and_deletion_refused(name):
    obj = BUILDERS[name]()
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", BUILDERS)
def test_pickle_and_copies_round_trip(name):
    obj = BUILDERS[name]()
    for twin in (
        pickle.loads(pickle.dumps(obj)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(twin) is type(obj)
        assert twin == obj
        assert repr(twin) == repr(obj)


@pytest.mark.parametrize("name", BUILDERS)
def test_repr_names_every_field(name):
    obj = BUILDERS[name]()
    fields = ", ".join(f"{n}={getattr(obj, n)!r}" for n in type(obj).__slots__)
    assert repr(obj) == f"{name}({fields})"


def test_repr_keeps_the_dataclass_form():
    assert repr(_model()) == "BrauerGroupModel(prime=2, generator_orders=(2, 2, 2))"
    assert repr(MutualRelation(((1,),), ((2,),))) == (
        "MutualRelation(left_over_right=((1,),), right_over_left=((2,),))"
    )


def test_other_types_never_equal():
    assert _model() != (2, (2, 2, 2))
    assert _model().zero() != (0, 0, 0)
    assert GSBProduct((_factor(),)) != UpperMotiveDescriptor((_factor(),))


def test_label_is_display_only():
    a, b = _algebra("Δ1"), _algebra("other name")
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) != str(b)
    assert repr(a) != repr(b)
    assert GSBFactor(a, 1) == GSBFactor(b, 1)


def test_keyword_construction():
    model = BrauerGroupModel(prime=2, generator_orders=(2, 2, 2))
    cls = BrauerClass(group=model, exponents=(1, 1, 0))
    algebra = AlgebraSpec(brauer_class=cls, label="Δ1")
    factor = GSBFactor(algebra=algebra, k=1)
    assert factor == _factor()
    assert GSBProduct(factors=[factor]) == GSBProduct((_factor(),))
    witness = FactorWitness(factor=factor, index=2, witness=(1, 2))
    assert witness == _witness() and witness.has_point
    direction = DirectionReport(factors=(witness,))
    assert direction == _direction() and direction.exists
    report = RationalMapReport(forward=direction)
    assert report.backward is None and report.holds
    motive = UpperMotiveDescriptor((factor,))
    comparison = FamilyComparison(
        shared=((motive, motive),), unmatched_left=(), unmatched_right=()
    )
    assert comparison.verdict is FamilyVerdict.EQUAL
    assert Subgroup(group=model, elements=[model.zero()]).elements == (model.zero(),)
    assert MutualRelation(left_over_right=(), right_over_left=()).left_over_right == ()


def test_constructors_still_normalize():
    model = _model()
    assert model.element((3, -1, 0)).exponents == (1, 1, 0)
    assert BrauerGroupModel(2, [2, 2]).generator_orders == (2, 2)
    assert GSBProduct([_factor()]).factors == (_factor(),)
    late, early = GSBFactor(_algebra(), 1), GSBFactor(_algebra(), 0)
    assert UpperMotiveDescriptor((late, early)).factors == (early, late)


def test_instance_stays_mutable_and_unhashable():
    inst = Instance(_model(), {})
    assert inst.varieties == {}
    assert Instance(_model(), {}).varieties is not inst.varieties
    inst.varieties["X"] = GSBProduct((_factor(),))
    assert inst != Instance(_model(), {})
    inst.algebras = {"Δ1": _algebra()}
    assert inst.algebras["Δ1"] == _algebra()
    with pytest.raises(TypeError):
        hash(inst)


LOADED_DOC = {
    "prime": 2,
    "generators": [{"name": f"q{i}", "order": 2} for i in (1, 2, 3)],
    "algebras": {
        "Δ1": {"class": {"q1": 1, "q2": 1}, "degree": 4},
        "Δ2": {"class": {"q1": 1, "q3": 1}, "degree": 4},
        "E1": {"class": {"q2": 3, "q1": -1}, "degree": 4},
    },
    "aliases": {"D2": "Δ2", "D1": "Δ1"},
    "varieties": {"X": "X(2;D1)", "Y": "X(1;Δ2) x X(2;E1)"},
}


def _loaded():
    return load_instance(LOADED_DOC)


def test_loaded_instance_is_a_value():
    a, b = _loaded(), _loaded()
    # one instance partly looked up, the other not at all
    b.algebra("D2")
    b.varieties["Y"]
    assert a is not b
    assert repr(a) == repr(b)
    assert " at 0x" not in repr(a)
    assert a == b
    assert list(a.algebras) == ["Δ1", "Δ2", "E1", "D2", "D1"]
    assert len(a.algebras) == 5
    assert "D1" in a.algebras and "q1" not in a.algebras
    assert a.algebras.get("q1") is None
    assert list(a.varieties) == ["X", "Y"]
    assert len(a.varieties) == 2
    assert "Y" in a.varieties and "D1" not in a.varieties
    # a loaded instance's mappings are read-only
    for mapping, key in ((a.algebras, "D1"), (a.algebras, "F1"), (a.varieties, "X")):
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[key] = before[next(iter(before))]
        assert dict(mapping) == before
        assert list(mapping) == list(before)
    d1, d2 = _algebra("Δ1"), AlgebraSpec(_model().element((1, 0, 1)), "Δ2")
    e1 = _algebra("E1")
    by_dict = Instance(
        _model(),
        {"Δ1": d1, "Δ2": d2, "E1": e1, "D2": d2, "D1": d1},
        {
            "X": GSBProduct((GSBFactor(d1, 1),)),
            "Y": GSBProduct((GSBFactor(d2, 0), GSBFactor(e1, 1))),
        },
    )
    assert a == by_dict
    assert repr(a) == repr(by_dict)
    assert by_dict.algebra("D1") is by_dict.algebra("Δ1")


def test_loaded_instance_pickles_and_copies():
    # varieties looked up not at all, partly, and wholly
    instances = [_loaded(), _loaded(), _loaded()]
    instances[1].varieties["X"]
    instances[2].varieties["Y"], instances[2].varieties["X"]
    for inst in instances:
        inst.algebra("E1")
        # all three twins are made before any comparison looks a name up
        twins = (
            pickle.loads(pickle.dumps(inst)),
            copy.copy(inst),
            copy.deepcopy(inst),
        )
        for twin in twins:
            assert twin == inst
            assert repr(twin) == repr(inst)
            assert list(twin.algebras) == list(inst.algebras)
            assert list(twin.varieties) == ["X", "Y"]
            assert twin.varieties["X"].factors[0].algebra is twin.algebra("D1")
            assert twin.varieties["Y"].factors[1].algebra is twin.algebra("E1")
            for name in inst.algebras:
                got, want = twin.algebra(name), inst.algebra(name)
                assert got.brauer_class == want.brauer_class
                assert got.label == want.label
                assert got.degree_exponent == want.degree_exponent
            assert twin.algebra("D1") is twin.algebra("Δ1")
            assert twin.algebra("E1").brauer_class is twin.algebra("Δ1").brauer_class


def test_results_of_the_decisions_round_trip():
    model = _model()
    d1 = division_algebra(model.element((1, 1, 0)), "Δ1")
    d2 = division_algebra(model.element((1, 0, 1)), "Δ2")
    d3 = division_algebra(model.element((0, 1, 1)), "Δ3")
    left = GSBProduct((GSBFactor(d1, 0), GSBFactor(d2, 0)))
    right = GSBProduct((GSBFactor(d1, 0), GSBFactor(d3, 0)))
    results = [
        equivalent(left, right),
        compare_families([d1, d2], [d1, d3]),
        mutual_relation_witness([d1, d2], [d1, d2], 1),
    ]
    for result in results:
        assert pickle.loads(pickle.dumps(result)) == result
        assert copy.deepcopy(result) == result


# Imports the CLI in an interpreter without site packages and lists the heavy
# modules it loaded; runs a plain index call and verify-examples, and lists
# the modules of the fallback parse and of a package-resource reader they
# loaded; then asks for --help, which goes to argparse.
IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[1])
    import gsbmaps.cli
    heavy = ["dataclasses", "inspect", "importlib.resources", "typing", "pathlib",
             "argparse"]
    loaded = [name for name in heavy if name in sys.modules]
    import contextlib, io, json
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [gsbmaps.cli.main(["-i", sys.argv[2], "index", "--algebra", "Δ1"]),
                 gsbmaps.cli.main(["verify-examples"])]
        after = [name for name in ("argparse", "importlib.resources")
                 if name in sys.modules]
        try:
            help_code = gsbmaps.cli.main(["--help"])
        except SystemExit as exc:
            help_code = ["exit", exc.code]
    print(json.dumps([loaded, codes, after, help_code, "argparse" in sys.modules]))
    """
)


def test_cli_import_loads_no_heavy_modules():
    fixture = SRC / "gsbmaps" / "fixtures" / "biquaternion.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(SRC), str(fixture)],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, codes, after, help_code, argparse_loaded = json.loads(proc.stdout)
    assert loaded == []
    assert codes == [0, 0]
    assert after == []
    assert help_code == ["exit", 0]
    assert argparse_loaded
