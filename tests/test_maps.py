"""Rational-map decisions, subgroup criteria and relation witnesses."""

from __future__ import annotations

import functools
import itertools
import math
import random
from pathlib import Path

import pytest

import gsbmaps
from gsbmaps import (
    BrauerGroupModel,
    GSBFactor,
    GSBProduct,
    InvariantViolation,
    ModelMismatchError,
    PreconditionError,
    classical_criterion,
    combine,
    dimension,
    division_algebra,
    equivalent,
    exists_rational_map,
    has_rational_point_over,
    mutual_relation_witness,
    parse_instance,
    relation_witness,
    vp,
)
from helpers import (
    ENUMERATED_MODELS,
    biquaternion_model,
    by_degree,
    count_constructions,
    mixed_exponent_model,
    oracle_balanced_rows,
    uniform_product,
)


FIXTURE_PATHS = sorted((Path(gsbmaps.__file__).parent / "fixtures").glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.name)
def test_fixture_certificates_work_out_their_verdicts(path):
    inst = parse_instance(path)
    report = equivalent(inst.product("left"), inst.product("right"))
    for direction in (report.forward, report.backward):
        for w in direction.factors:
            assert w.has_point == (w.factor.reduced_dim % w.index == 0)
        assert direction.exists == all(w.has_point for w in direction.factors)
    assert report.holds == (report.forward.exists and report.backward.exists)


class TestRationalPoints:
    def test_biquaternion_factor_blocked(self):
        _, d1, d2, d3 = biquaternion_model()
        base = uniform_product([d1, d2], 1)
        assert not has_rational_point_over(GSBFactor(d3, 1), base)

    def test_mixed_exponent_factor_acquires_point(self):
        _, d1, d2, d3 = mixed_exponent_model()
        base = uniform_product([d1, d2], 1)
        assert has_rational_point_over(GSBFactor(d3, 1), base)

    def test_generic_point(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        base = uniform_product([d], 0)
        assert has_rational_point_over(GSBFactor(d, 0), base)


class TestExistsRationalMap:
    def test_identity(self):
        _, d1, d2, _ = biquaternion_model()
        x = uniform_product([d1, d2], 1)
        assert exists_rational_map(x, x).holds

    def test_classical_products_both_ways(self):
        _, d1, d2, d3 = biquaternion_model()
        left = uniform_product([d1, d2], 0)
        right = uniform_product([d1, d3], 0)
        assert exists_rational_map(left, right).holds
        assert exists_rational_map(right, left).holds

    def test_generalized_target_blocked(self):
        _, d1, d2, d3 = biquaternion_model()
        left = uniform_product([d1, d2], 1)
        target = uniform_product([d3], 1)
        report = exists_rational_map(left, target)
        assert not report.holds
        assert report.backward is None

    def test_witnesses_consistent_with_booleans(self):
        _, d1, d2, d3 = biquaternion_model()
        report = exists_rational_map(
            uniform_product([d1, d2], 1), uniform_product([d1, d3], 1)
        )
        for w in report.forward.factors:
            assert w.has_point == (w.factor.reduced_dim % w.index == 0)

    def test_model_mismatch(self):
        _, d1, _, _ = biquaternion_model()
        _, e1, _, _ = mixed_exponent_model()
        with pytest.raises(ModelMismatchError):
            exists_rational_map(uniform_product([d1], 1), uniform_product([e1], 1))


class TestEquivalent:
    def test_biquaternion_generalized_not_equivalent(self):
        _, d1, d2, d3 = biquaternion_model()
        rep = equivalent(uniform_product([d1, d2], 1), uniform_product([d1, d3], 1))
        assert not rep.holds

    def test_mixed_exponent_equivalent(self):
        _, d1, d2, d3 = mixed_exponent_model()
        rep = equivalent(uniform_product([d1, d2], 1), uniform_product([d1, d3], 1))
        assert rep.holds
        assert rep.forward.exists and rep.backward.exists

    def test_reflexive(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        x = uniform_product([d], 0)
        assert equivalent(x, x).holds


class TestMixedDegrees:
    def test_refused_before_any_enumeration(self, monkeypatch):
        import gsbmaps.reduction

        def enumerate_(*args):
            pytest.fail("reduced_index enumerated a mixed-degree question")

        monkeypatch.setattr(gsbmaps.reduction, "_enumerate", enumerate_)
        m = BrauerGroupModel(2, (4, 2))
        a = division_algebra(m.element((1, 0)), "A")
        b = division_algebra(m.element((0, 1)), "B")
        single = uniform_product([a], 1)
        mixed = uniform_product([a, b], 0)
        for decide in (exists_rational_map, equivalent):
            for x, y in ((single, mixed), (mixed, single)):
                with pytest.raises(PreconditionError) as exc:
                    decide(x, y)
                message = str(exc.value)
                assert message.startswith("index reduction needs one common degree")
                assert "A has degree 4, B has degree 2" in message


class TestClassicalCriterion:
    def test_examples(self):
        _, a1, a2, a3 = biquaternion_model()
        assert classical_criterion([a1, a2], [a1, a3])
        _, d1, d2, d3 = mixed_exponent_model()
        assert not classical_criterion([d1, d2], [d1, d3])
        assert classical_criterion([d1], [d1])

    def test_agrees_with_classical_products(self):
        # subgroup equality must match mutual maps between the k=0 products
        for model_builder in (biquaternion_model, mixed_exponent_model):
            _, d1, d2, d3 = model_builder()
            for left, right in itertools.product(
                ([d1], [d2], [d1, d2], [d1, d3]), repeat=2
            ):
                expected = equivalent(
                    uniform_product(left, 0), uniform_product(right, 0)
                ).holds
                assert classical_criterion(left, right) == expected

    def test_matches_k0_products_on_all_small_families(self):
        # no exponent hypothesis here: every equal-degree family pair counts
        from helpers import ENUMERATED_MODELS

        for model in ENUMERATED_MODELS:
            for s, algebras in by_degree(model).items():
                families = [
                    list(f)
                    for size in (1, 2)
                    for f in itertools.combinations_with_replacement(algebras, size)
                ]
                for left, right in itertools.product(families, repeat=2):
                    expected = equivalent(
                        uniform_product(left, 0), uniform_product(right, 0)
                    ).holds
                    assert classical_criterion(left, right) == expected

    def test_empty_families_rejected(self):
        with pytest.raises(PreconditionError):
            classical_criterion([], [])


class TestRelationWitness:
    def test_identity_relation(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        base = uniform_product([d], 1)
        assert relation_witness(d, base) == (1,)

    def test_exponent_hypothesis_rejected(self):
        _, d1, d2, d3 = mixed_exponent_model()
        base = uniform_product([d1, d2], 1)
        with pytest.raises(PreconditionError, match="exponent hypothesis"):
            relation_witness(d3, base)

    def test_absent_when_no_map(self):
        _, d1, d2, d3 = biquaternion_model()
        base = uniform_product([d1, d2], 1)
        assert relation_witness(d3, base) is None

    def test_mixed_k_rejected(self):
        _, d1, d2, d3 = biquaternion_model()
        base = GSBProduct((GSBFactor(d1, 0), GSBFactor(d2, 1)))
        with pytest.raises(PreconditionError, match="share one k"):
            relation_witness(d3, base)

    def test_found_witness_reverifies(self):
        # d3 lies in the span at k=0; d1 reacquires its point at k=1
        _, d1, d2, d3 = biquaternion_model()
        for target, k in ((d3, 0), (d1, 1)):
            base = uniform_product([d1, d2], k)
            tup = relation_witness(target, base)
            assert tup is not None
            n = len(base.factors)
            pk = 2**k
            assert sum(vp(math.gcd(i, pk), 2) for i in tup) == k * (n - 1)
            residual = combine(
                [(target.brauer_class, 1)]
                + [(f.algebra.brauer_class, -i) for f, i in zip(base.factors, tup)]
            )
            assert residual.is_zero

    def test_point_without_balanced_relation_is_an_invariant_violation(
        self, monkeypatch
    ):
        _, d1, _, _ = biquaternion_model()
        monkeypatch.setattr(gsbmaps.maps, "_balanced_row", lambda d, family, k, s: None)
        with pytest.raises(InvariantViolation, match="no balanced relation"):
            relation_witness(d1, uniform_product([d1], 1))


class TestMutualRelationWitness:
    def test_identity_family(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        for k in (0, 1):
            out = mutual_relation_witness([d], [d], k)
            assert out is not None
            assert out.left_over_right == ((1,),)
            assert out.right_over_left == ((1,),)

    def test_biquaternion_absent_at_k1(self):
        _, d1, d2, d3 = biquaternion_model()
        assert mutual_relation_witness([d1, d2], [d1, d3], 1) is None

    def test_builds_no_factor_or_product(self, monkeypatch):
        # the bare k is checked by _factor_k, and the search reads each
        # family as plain (exponent vector, k) pairs
        _, d1, d2, d3 = biquaternion_model()
        built = count_constructions(monkeypatch)
        assert mutual_relation_witness([d1, d2], [d1, d3], 1) is None
        assert built == {"GSBFactor": 0, "GSBProduct": 0}

    def test_biquaternion_present_at_k0(self):
        _, d1, d2, d3 = biquaternion_model()
        out = mutual_relation_witness([d1, d2], [d1, d3], 0)
        assert out is not None
        for rows, family, other in (
            (out.left_over_right, (d1, d2), (d1, d3)),
            (out.right_over_left, (d1, d3), (d1, d2)),
        ):
            for d, row in zip(family, rows):
                residual = combine(
                    [(d.brauer_class, 1)]
                    + [(o.brauer_class, -a) for o, a in zip(other, row)]
                )
                assert residual.is_zero

    def test_unequal_exponents_rejected(self):
        _, d1, d2, d3 = mixed_exponent_model()
        with pytest.raises(PreconditionError, match="one exponent"):
            mutual_relation_witness([d1, d2], [d1, d3], 1)

    def test_k_out_of_range(self):
        _, d1, _, _ = biquaternion_model()
        with pytest.raises(PreconditionError):
            mutual_relation_witness([d1], [d1], 2)

    def test_empty_family_rejected(self):
        _, d1, _, _ = biquaternion_model()
        with pytest.raises(PreconditionError):
            mutual_relation_witness([], [d1], 0)


@functools.cache
def _smallest_balanced_row(target, family, k):
    """The oracle's lexicographically smallest balanced relation, or None;
    family is a tuple."""
    model = target.model
    rows = oracle_balanced_rows(
        model.prime,
        target.degree_exponent,
        k,
        model.generator_orders,
        target.brauer_class.exponents,
        [a.brauer_class.exponents for a in family],
    )
    return min(rows, default=None)


def _one_exponent(family):
    return len({a.exponent for a in family}) == 1


# (Z/2)^3 also takes three-algebra families, so that the relation search is
# checked at a carry into every entry of a three-entry row
FAMILY_SIZES = {BrauerGroupModel(2, (2, 2, 2)): (1, 2, 3)}
# p = 3 models: Z/9 x Z/3 has algebras of degree 27, whose two-algebra rows
# take 27^2 tuples, so each case list here is cut to at most SAMPLE cases
SAMPLED_MODELS = (BrauerGroupModel(3, (9,)), BrauerGroupModel(3, (9, 3)))
SAMPLE = 24


def _cases(model, cases, *key):
    """The cases in full, or on a sampled model at most SAMPLE of them,
    drawn with a seed fixed by the model and key."""
    cases = list(cases)
    if model not in SAMPLED_MODELS or len(cases) <= SAMPLE:
        return cases
    return random.Random(f"{model}:{key}").sample(cases, SAMPLE)


@pytest.mark.parametrize("model", ENUMERATED_MODELS + SAMPLED_MODELS, ids=str)
class TestBalancedRowsAgainstOracle:
    """Both relation searches against brute force, on the equal-degree cases
    of the model with families of one or two algebras (three on (Z/2)^3)."""

    def test_relation_witness(self, model):
        sizes = FAMILY_SIZES.get(model, (1, 2))
        for s, algebras in by_degree(model).items():
            for k, n in itertools.product(range(s), sizes):
                cases = [
                    (target, family)
                    for family in itertools.product(algebras, repeat=n)
                    for target in algebras
                    if target.exponent >= max(a.exponent for a in family)
                ]
                for target, family in _cases(model, cases, s, k, n):
                    got = relation_witness(target, uniform_product(family, k))
                    assert got == _smallest_balanced_row(target, family, k)

    def test_mutual_relation_witness(self, model):
        sizes = FAMILY_SIZES.get(model, (1, 2))
        for s, algebras in by_degree(model).items():
            families = [
                family
                for n in sizes
                for family in itertools.combinations_with_replacement(algebras, n)
                if _one_exponent(family)
            ]
            for k in range(s):
                pairs = itertools.product(families, families)
                for left, right in _cases(model, pairs, s, k):
                    got = mutual_relation_witness(left, right, k)
                    left_rows = [_smallest_balanced_row(d, right, k) for d in left]
                    right_rows = [_smallest_balanced_row(d, left, k) for d in right]
                    if None in left_rows + right_rows:
                        assert got is None
                    else:
                        assert got.left_over_right == tuple(left_rows)
                        assert got.right_over_left == tuple(right_rows)


class TestDimension:
    def test_conic(self):
        m = BrauerGroupModel(2, (2,))
        q = division_algebra(m.element((1,)))
        assert dimension(GSBFactor(q, 0)) == 1

    def test_biquaternion_plane(self):
        _, d1, _, _ = biquaternion_model()
        assert dimension(GSBFactor(d1, 1)) == 4

    def test_degree_eight_severi_brauer(self):
        m = BrauerGroupModel(2, (8,))
        d = division_algebra(m.element((1,)))
        assert dimension(GSBFactor(d, 0)) == 7

    def test_formula_against_plain_arithmetic(self):
        m = BrauerGroupModel(2, (8,))
        d = division_algebra(m.element((1,)))
        for k in range(3):
            assert dimension(GSBFactor(d, k)) == 2**k * (2**3 - 2**k)
