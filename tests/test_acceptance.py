"""Acceptance suite.

Exact reproduction of the two bundled worked instances, then exhaustive
small-model verification of every classification statement: the three-way
equivalence chain, the single-factor motive classification, the mutual
relation criterion and its descent to the classical level, rigidity, the
dichotomy for single algebras together with its failure for families, a
global invariant sweep, and a census of the criteria against the decisions
on larger models.  One PASS/FAIL line is printed per criterion
(visible with -s).
"""

from __future__ import annotations

import functools
import itertools
import math
import time

import pytest

from gsbmaps import (
    BrauerGroupModel,
    FamilyVerdict,
    GSBFactor,
    GSBProduct,
    PreconditionError,
    UpperMotiveDescriptor,
    class_exponent,
    classical_criterion,
    classify_single,
    combine,
    compare_families,
    dimension,
    equivalent,
    exists_rational_map,
    generic_index,
    motives_isomorphic,
    mutual_relation_witness,
    reduced_index,
    reduction_term,
    relation_witness,
    subgroup_generated,
    subgroups_equal,
    vp,
)
from helpers import (
    ENUMERATED_MODELS,
    biquaternion_model,
    by_degree,
    division_classes,
    mixed_exponent_model,
    uniform_product,
)


def criterion(num: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {description}")
                raise
            print(f"[criterion {num}] PASS  {description}")

        return wrapper

    return deco


def equal_degree_pairs(model):
    for s, algebras in by_degree(model).items():
        for d, d2 in itertools.product(algebras, repeat=2):
            yield s, d, d2


def uniform_exponent_families(algebras, max_size=2):
    for size in range(1, max_size + 1):
        for family in itertools.combinations_with_replacement(algebras, size):
            if len({a.exponent for a in family}) == 1:
                yield family


@criterion(1, "biquaternion instance reproduced exactly (runtime < 1 s)")
def test_criterion_1_biquaternion_instance():
    start = time.monotonic()
    _, d1, d2, d3 = biquaternion_model()
    assert classical_criterion([d1, d2], [d1, d3]) is True
    assert equivalent(uniform_product([d1, d2], 0), uniform_product([d1, d3], 0)).holds
    report = exists_rational_map(
        uniform_product([d1, d2], 1), uniform_product([d3], 1)
    )
    assert report.holds is False
    assert reduced_index(d3, uniform_product([d1, d2], 1)).value == 4
    assert time.monotonic() - start < 1.0


@criterion(2, "mixed-exponent instance reproduced exactly (runtime < 1 s)")
def test_criterion_2_mixed_exponent_instance():
    start = time.monotonic()
    _, d1, d2, d3 = mixed_exponent_model()
    assert (d1.index, d2.index, d3.index) == (4, 4, 4)
    assert (d1.exponent, d2.exponent, d3.exponent) == (4, 2, 2)
    assert not subgroups_equal(
        subgroup_generated([d1.brauer_class, d2.brauer_class]),
        subgroup_generated([d1.brauer_class, d3.brauer_class]),
    )
    assert equivalent(uniform_product([d1, d2], 1), uniform_product([d1, d3], 1)).holds
    with pytest.raises(PreconditionError):
        mutual_relation_witness([d1, d2], [d1, d3], 1)
    assert time.monotonic() - start < 1.0


@criterion(3, "three-way equivalence chain: some k / subgroups / all k (runtime < 30 s)")
def test_criterion_3_equivalence_chain():
    start = time.monotonic()
    checked = 0
    for model in ENUMERATED_MODELS:
        for s, d, d2 in equal_degree_pairs(model):
            per_k = [
                equivalent(
                    uniform_product([d], k), uniform_product([d2], k)
                ).holds
                for k in range(s)
            ]
            same_subgroup = subgroups_equal(
                subgroup_generated([d.brauer_class]),
                subgroup_generated([d2.brauer_class]),
            )
            assert any(per_k) == same_subgroup == all(per_k)
            checked += 1
    assert checked > 0
    assert time.monotonic() - start < 30.0


@criterion(4, "single-factor classification agrees with the full motive decision")
def test_criterion_4_single_factor_classification():
    for model in ENUMERATED_MODELS:
        for s, d, d2 in equal_degree_pairs(model):
            for k, k2 in itertools.product(range(s), repeat=2):
                fast = classify_single(d, k, d2, k2)
                full = motives_isomorphic(
                    UpperMotiveDescriptor((GSBFactor(d, k),)),
                    UpperMotiveDescriptor((GSBFactor(d2, k2),)),
                )
                assert fast == full


@criterion(5, "mutual relation criterion is sound and complete; level-k implies level-0")
def test_criterion_5_mutual_relation_criterion():
    for model in ENUMERATED_MODELS:
        for s, algebras in by_degree(model).items():
            families = list(uniform_exponent_families(algebras))
            for left, right in itertools.product(families, repeat=2):
                for k in range(s):
                    witness = mutual_relation_witness(list(left), list(right), k)
                    holds = equivalent(
                        uniform_product(list(left), k),
                        uniform_product(list(right), k),
                    ).holds
                    assert (witness is not None) == holds
                    if witness is not None:
                        _verify_mutual(witness, left, right, k, model.prime)
                    if holds:
                        # level-k equivalence must descend to the classical level
                        assert equivalent(
                            uniform_product(list(left), 0),
                            uniform_product(list(right), 0),
                        ).holds
                        assert classical_criterion(list(left), list(right))


def _verify_mutual(witness, left, right, k, p):
    pk = p**k
    for rows, family, other in (
        (witness.left_over_right, left, right),
        (witness.right_over_left, right, left),
    ):
        budget = k * (len(other) - 1)
        for d, row in zip(family, rows):
            assert sum(vp(math.gcd(a, pk), p) for a in row) == budget
            residual = combine(
                [(d.brauer_class, 1)]
                + [(o.brauer_class, -a) for o, a in zip(other, row)]
            )
            assert residual.is_zero


@criterion(6, "rigidity: mutual maps force k = k'; dimension formula verified")
def test_criterion_6_rigidity_and_dimension():
    for model in ENUMERATED_MODELS:
        for s, d, d2 in equal_degree_pairs(model):
            for k, k2 in itertools.product(range(s), repeat=2):
                rep = equivalent(
                    GSBProduct((GSBFactor(d, k),)),
                    GSBProduct((GSBFactor(d2, k2),)),
                )
                if rep.holds:
                    assert k == k2
                    assert d.degree == d2.degree
                    assert dimension(GSBFactor(d, k)) == dimension(GSBFactor(d2, k2))
    for model in ENUMERATED_MODELS:
        p = model.prime
        for alg in division_classes(model):
            s = alg.degree_exponent
            for k in range(s):
                assert dimension(GSBFactor(alg, k)) == p**k * (p**s - p**k)


@criterion(7, "dichotomy for single algebras; family counterexample is PARTIAL")
def test_criterion_7_dichotomy():
    for model in ENUMERATED_MODELS:
        divs = division_classes(model)
        for a, b in itertools.product(divs, repeat=2):
            verdict = compare_families([a], [b]).verdict
            assert verdict in (FamilyVerdict.EQUAL, FamilyVerdict.TATE_ONLY)
    _, d1, d2, d3 = biquaternion_model()
    comp = compare_families([d1, d2], [d1, d3])
    assert comp.verdict is FamilyVerdict.PARTIAL
    m00_pair = (
        UpperMotiveDescriptor((GSBFactor(d1, 0), GSBFactor(d2, 0))),
        UpperMotiveDescriptor((GSBFactor(d1, 0), GSBFactor(d3, 0))),
    )
    assert m00_pair in comp.shared
    m11 = UpperMotiveDescriptor((GSBFactor(d1, 1), GSBFactor(d2, 1)))
    assert m11 in comp.unmatched_left
    assert comp.separating is not None


@criterion(8, "universal invariant sweep: divisibility, permutations, witnesses")
def test_criterion_8_invariant_sweep():
    sweep_models = ENUMERATED_MODELS + (
        biquaternion_model()[0],
        mixed_exponent_model()[0],
    )
    for model in sweep_models:
        for c in model.elements():
            assert generic_index(c) % class_exponent(c) == 0

    for model in ENUMERATED_MODELS:
        p = model.prime
        for s, algebras in by_degree(model).items():
            for target, b in itertools.product(algebras, repeat=2):
                for k in range(s):
                    base = uniform_product([b], k)
                    ri = reduced_index(target, base)
                    assert target.index % ri.value == 0
                    assert reduction_term(target, base, ri.witness) == ri.value
            # two-factor bases: permutation invariance plus witness re-check
            for b1, b2 in itertools.combinations(algebras, 2):
                for target in algebras[:2]:
                    for k1, k2 in itertools.product(range(s), repeat=2):
                        base = GSBProduct((GSBFactor(b1, k1), GSBFactor(b2, k2)))
                        flipped = GSBProduct((GSBFactor(b2, k2), GSBFactor(b1, k1)))
                        ri = reduced_index(target, base)
                        assert ri.value == reduced_index(target, flipped).value
                        assert target.index % ri.value == 0
                        assert reduction_term(target, base, ri.witness) == ri.value
            # balanced single-target relations re-verify wherever they apply
            for target, b in itertools.product(algebras, repeat=2):
                for k in range(s):
                    base = uniform_product([b], k)
                    if target.exponent < b.exponent:
                        continue
                    tup = relation_witness(target, base)
                    if tup is None:
                        continue
                    assert sum(vp(math.gcd(i, p**k), p) for i in tup) == 0
                    assert combine(
                        [(target.brauer_class, 1), (b.brauer_class, -tup[0])]
                    ).is_zero


# Z/9 x Z/3 is left out: it adds 8 430 queries and about 130 s on a 2-vCPU
# machine, most of it reduced_index over 9^3 tuples.
CENSUS_MODELS = (
    BrauerGroupModel(2, (2, 2, 2)),
    BrauerGroupModel(2, (4, 2)),
    BrauerGroupModel(2, (2, 2, 2, 2)),
    BrauerGroupModel(2, (4, 4)),
    BrauerGroupModel(2, (8, 2)),
    BrauerGroupModel(2, (4, 2, 2)),
    BrauerGroupModel(3, (3, 3)),
)


@criterion(9, "census: subgroup, relation, single-factor criteria match the decisions")
def test_criterion_9_census():
    # every pair of two-algebra families of one degree, at every k: the
    # subgroup criterion at k = 0, and mutual balanced relations when each
    # family has one exponent, against equivalent; then every pair of
    # single factors of that degree, classify_single against
    # motives_isomorphic.  Each comparison meets both answers.
    queries, seen = 0, set()
    for model in CENSUS_MODELS:
        for s, algebras in by_degree(model).items():
            families = list(itertools.combinations(algebras, 2))
            for left, right in itertools.combinations(families, 2):
                one_exponent = all(
                    len({a.exponent for a in family}) == 1 for family in (left, right)
                )
                for k in range(s):
                    holds = equivalent(
                        uniform_product(list(left), k), uniform_product(list(right), k)
                    ).holds
                    if k == 0:
                        assert classical_criterion(list(left), list(right)) == holds
                        seen.add(("subgroup", holds))
                    if one_exponent:
                        witness = mutual_relation_witness(list(left), list(right), k)
                        assert (witness is not None) == holds
                        seen.add(("relation", holds))
                    queries += 1
            factors = [GSBFactor(d, k) for d in algebras for k in range(s)]
            for f, f2 in itertools.product(factors, repeat=2):
                full = motives_isomorphic(
                    UpperMotiveDescriptor((f,)), UpperMotiveDescriptor((f2,))
                )
                assert classify_single(f.algebra, f.k, f2.algebra, f2.k) == full
                seen.add(("single", full))
    assert queries == 1134
    checks = ("subgroup", "relation", "single")
    assert seen == {(c, holds) for c in checks for holds in (True, False)}
