"""Upper-motive descriptors, isomorphism decisions, family comparison."""

from __future__ import annotations

import itertools

import pytest

from gsbmaps import (
    BrauerGroupModel,
    FamilyComparison,
    FamilyVerdict,
    GSBFactor,
    GSBProduct,
    PreconditionError,
    UpperMotiveDescriptor,
    classify_single,
    compare_families,
    division_algebra,
    family_motives,
    motives_isomorphic,
    upper_motive,
)
from helpers import (
    biquaternion_model,
    by_degree,
    count_constructions,
    division_classes,
    mixed_exponent_model,
    uniform_product,
)


class TestDescriptors:
    def test_single_factor(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        desc = upper_motive(uniform_product([d], 0))
        assert len(desc.factors) == 1
        assert desc.factors[0] == GSBFactor(d, 0)

    def test_sort_canonicalization(self):
        _, d1, d2, _ = biquaternion_model()
        a = upper_motive(GSBProduct((GSBFactor(d2, 1), GSBFactor(d1, 1))))
        b = upper_motive(GSBProduct((GSBFactor(d1, 1), GSBFactor(d2, 1))))
        assert a == b

    def test_mixed_exponent_order(self):
        _, d1, d2, _ = mixed_exponent_model()
        desc = upper_motive(GSBProduct((GSBFactor(d2, 1), GSBFactor(d1, 1))))
        assert [f.algebra for f in desc.factors] == [d1, d2]
        assert [f.k for f in desc.factors] == [1, 1]

    def test_product_round_trip(self):
        _, d1, d2, _ = biquaternion_model()
        desc = upper_motive(uniform_product([d1, d2], 1))
        assert upper_motive(desc.product()) == desc

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            UpperMotiveDescriptor(())


class TestIsomorphism:
    def test_classical_pair_isomorphic(self):
        _, d1, d2, d3 = biquaternion_model()
        a = upper_motive(uniform_product([d1, d2], 0))
        b = upper_motive(uniform_product([d1, d3], 0))
        assert motives_isomorphic(a, b)

    def test_generalized_pair_not_isomorphic(self):
        _, d1, d2, d3 = biquaternion_model()
        a = upper_motive(uniform_product([d1, d2], 1))
        b = upper_motive(uniform_product([d1, d3], 1))
        assert not motives_isomorphic(a, b)

    def test_reflexive(self):
        _, d1, d2, _ = mixed_exponent_model()
        a = upper_motive(uniform_product([d1, d2], 1))
        assert motives_isomorphic(a, a)

    def test_equivalence_relation_on_enumerated_descriptors(self):
        _, d1, d2, d3 = biquaternion_model()
        descriptors = list(
            dict.fromkeys(family_motives([d1, d2]) + family_motives([d1, d3]))
        )
        iso = {
            (a, b): motives_isomorphic(a, b)
            for a, b in itertools.product(descriptors, repeat=2)
        }
        for a in descriptors:
            assert iso[(a, a)]
        for a, b in itertools.product(descriptors, repeat=2):
            assert iso[(a, b)] == iso[(b, a)]
        for a, b, c in itertools.product(descriptors, repeat=3):
            if iso[(a, b)] and iso[(b, c)]:
                assert iso[(a, c)]


class TestClassifySingle:
    def test_same_algebra(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        assert classify_single(d, 1, d, 1)

    def test_tensor_cube_generates_same_subgroup(self):
        m, d1, _, _ = mixed_exponent_model()
        cube = division_algebra(3 * d1.brauer_class)
        assert cube.index == 4
        assert classify_single(d1, 0, cube, 0)

    def test_distinct_biquaternions(self):
        _, d1, _, d3 = biquaternion_model()
        assert not classify_single(d1, 0, d3, 0)

    def test_range_validation(self):
        _, d1, _, _ = biquaternion_model()
        with pytest.raises(PreconditionError):
            classify_single(d1, 2, d1, 0)

    def test_agrees_with_full_decision(self):
        # subgroup fast path vs rational-map decision, all k pairs
        for model in (BrauerGroupModel(2, (2, 2)), BrauerGroupModel(2, (4, 2))):
            for s, algebras in by_degree(model).items():
                for d, d2 in itertools.product(algebras, repeat=2):
                    for k, k2 in itertools.product(range(s), repeat=2):
                        fast = classify_single(d, k, d2, k2)
                        full = motives_isomorphic(
                            UpperMotiveDescriptor((GSBFactor(d, k),)),
                            UpperMotiveDescriptor((GSBFactor(d2, k2),)),
                        )
                        assert fast == full


class TestFamilyMotives:
    def test_two_algebra_family_content(self):
        _, d1, d2, _ = biquaternion_model()
        motives = family_motives([d1, d2])
        assert len(motives) == 8  # 4 singles, 4 two-factor tuples
        sizes = sorted(len(d.factors) for d in motives)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_duplicates_collapse(self):
        # repeated algebra: 2 distinct singles plus 3 distinct k-multisets
        _, d1, _, _ = biquaternion_model()
        motives = family_motives([d1, d1])
        assert len(motives) == len(set(motives)) == 5

    def test_each_factor_built_once(self, monkeypatch):
        # three algebras of degree 4, each at k = 0 and 1: 6 factors shared
        # by the 2*3 + 4*3 + 8 descriptors
        _, d1, d2, d3 = mixed_exponent_model()
        built = count_constructions(monkeypatch)
        assert len(family_motives([d1, d2, d3])) == 26
        assert built == {"GSBFactor": 6, "GSBProduct": 0}


class TestCompareFamilies:
    def test_equal_singles(self):
        m, d1, _, _ = mixed_exponent_model()
        cube = division_algebra(3 * d1.brauer_class)
        comp = compare_families([d1], [cube])
        assert comp.verdict is FamilyVerdict.EQUAL
        assert not comp.unmatched_left and not comp.unmatched_right
        assert comp.separating is None

    def test_tate_only_singles(self):
        _, d1, _, d3 = biquaternion_model()
        comp = compare_families([d1], [d3])
        assert comp.verdict is FamilyVerdict.TATE_ONLY
        assert comp.shared == ()

    def test_partial_biquaternion_families(self):
        _, d1, d2, d3 = biquaternion_model()
        comp = compare_families([d1, d2], [d1, d3])
        assert comp.verdict is FamilyVerdict.PARTIAL
        m00_left = UpperMotiveDescriptor((GSBFactor(d1, 0), GSBFactor(d2, 0)))
        m00_right = UpperMotiveDescriptor((GSBFactor(d1, 0), GSBFactor(d3, 0)))
        assert (m00_left, m00_right) in comp.shared
        m11_left = UpperMotiveDescriptor((GSBFactor(d1, 1), GSBFactor(d2, 1)))
        assert m11_left in comp.unmatched_left
        assert comp.separating is not None

    def test_verdict_from_lists(self):
        _, d1, _, d3 = biquaternion_model()
        a = UpperMotiveDescriptor((GSBFactor(d1, 0),))
        b = UpperMotiveDescriptor((GSBFactor(d3, 0),))
        cases = [
            (((), (a,), (b,)), FamilyVerdict.TATE_ONLY),
            ((((a, a),), (), ()), FamilyVerdict.EQUAL),
            ((((a, a),), (b,), ()), FamilyVerdict.PARTIAL),
            ((((a, a),), (), (b,)), FamilyVerdict.PARTIAL),
        ]
        for lists, verdict in cases:
            assert FamilyComparison(*lists).verdict is verdict

    def test_verdict_invariants(self):
        _, d1, d2, d3 = biquaternion_model()
        for left, right in (([d1], [d1]), ([d1], [d3]), ([d1, d2], [d1, d3])):
            comp = compare_families(left, right)
            if comp.verdict is FamilyVerdict.PARTIAL:
                assert comp.shared and comp.separating is not None
            elif comp.verdict is FamilyVerdict.EQUAL:
                assert comp.separating is None
            else:
                assert not comp.shared

    def test_singles_never_partial(self):
        for model in (BrauerGroupModel(2, (2, 2)), BrauerGroupModel(2, (4, 2))):
            divs = division_classes(model)
            for a, b in itertools.product(divs, repeat=2):
                verdict = compare_families([a], [b]).verdict
                assert verdict in (FamilyVerdict.EQUAL, FamilyVerdict.TATE_ONLY)

    def test_mixed_degrees_rejected_before_any_reduction(self, monkeypatch):
        import gsbmaps.maps

        m, d1, _, _ = biquaternion_model()
        q = division_algebra(m.element((1, 0, 0)), "Q")
        calls = []
        monkeypatch.setattr(
            gsbmaps.maps, "reduced_index", lambda *args: calls.append(args)
        )
        for left, right in (([d1, q], [d1]), ([d1], [d1, q]), ([d1, d1], [q])):
            with pytest.raises(PreconditionError) as exc:
                compare_families(left, right)
            message = str(exc.value)
            assert "one common degree" in message
            assert "Δ1 has degree 4" in message and "Q has degree 2" in message
        assert calls == []

    def test_mixed_degree_singles_use_fast_path(self):
        m, d1, _, _ = biquaternion_model()
        q = division_algebra(m.element((1, 0, 0)), "Q")
        assert compare_families([d1], [q]).verdict is FamilyVerdict.TATE_ONLY

    def test_degree_one_family_is_tate_only(self):
        # a degree-1 algebra contributes no motive, so no pair is shared
        m, _, _, _ = biquaternion_model()
        z = division_algebra(m.zero(), "Z")
        q = division_algebra(m.element((1, 0, 0)), "Q")
        comp = compare_families([z], [q])
        assert comp.verdict is FamilyVerdict.TATE_ONLY
        assert comp.shared == () and comp.unmatched_left == ()
        assert comp.unmatched_right == family_motives([q])

    def test_empty_families_rejected(self):
        _, d1, _, _ = biquaternion_model()
        for left, right in (([], [d1]), ([d1], []), ([], [])):
            with pytest.raises(PreconditionError):
                compare_families(left, right)

    def test_cross_model_rejected_before_any_motive(self, monkeypatch):
        import gsbmaps.motives
        from gsbmaps import ModelMismatchError

        def fail(*args):
            raise AssertionError("family_motives called before the model check")

        monkeypatch.setattr(gsbmaps.motives, "family_motives", fail)
        _, d1, d2, _ = biquaternion_model()
        _, e1, _, _ = mixed_exponent_model()
        with pytest.raises(ModelMismatchError):
            compare_families([d1, d2], [e1])

    def test_cross_model_rejected(self):
        _, d1, _, _ = biquaternion_model()
        _, e1, _, _ = mixed_exponent_model()
        from gsbmaps import ModelMismatchError

        with pytest.raises(ModelMismatchError):
            compare_families([d1], [e1])
        with pytest.raises(ModelMismatchError):
            motives_isomorphic(
                UpperMotiveDescriptor((GSBFactor(d1, 0),)),
                UpperMotiveDescriptor((GSBFactor(e1, 0),)),
            )
