"""Metamorphic properties of the decisions.

Relabelling the generators of a model (scaling each generator by a unit,
e_i -> u_i e_i with p not dividing u_i, and permuting their positions, the
exponents of every class following) gives an isomorphic model that keeps
every index, so no answer may change: reduced indices and their witnesses,
equivalence of products and family verdicts.  Rational maps in both
directions are also symmetric in the two products, and decided by the index
profile: the reduced indices of the algebras of both products over each.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbmaps import (
    BrauerGroupModel,
    GSBFactor,
    GSBProduct,
    compare_families,
    division_algebra,
    equivalent,
    reduced_index,
)
from gsbmaps.reduction import reuses_reduced_index
from helpers import by_degree, oracle_level_reduced_index

MODELS = (
    BrauerGroupModel(2, (4, 2)),
    BrauerGroupModel(2, (2, 2, 2)),
    BrauerGroupModel(3, (3, 3)),
)


def _units(model):
    """Every choice of one unit per generator."""
    orders = model.generator_orders
    return itertools.product(*([u for u in range(1, o) if u % model.prime] for o in orders))


CASES = [
    (model, perm, units)
    for model in MODELS
    for perm in itertools.permutations(range(model.rank))
    for units in _units(model)
    if perm != tuple(range(model.rank)) or set(units) != {1}
]


def _id(case) -> str:
    model, perm, units = case
    scaled = "" if set(units) == {1} else "-u" + "".join(map(str, units))
    return f"{model}-{''.join(map(str, perm))}{scaled}".replace(" ", "")


def _relabel(model, perm, units):
    """The map sending an algebra of model to its image under e_j -> u_j e_j,
    in the model whose generator i is generator perm[i] of model."""
    orders = model.generator_orders
    image = BrauerGroupModel(model.prime, tuple(orders[j] for j in perm))

    def algebra(a):
        exps = a.brauer_class.exponents
        scaled = tuple(units[j] * exps[j] for j in perm)
        return division_algebra(image.element(scaled), a.label)

    return algebra


def _image(x, algebra):
    return GSBProduct(tuple(GSBFactor(algebra(f.algebra), f.k) for f in x.factors))


def _products(algebras, s):
    """Every one- and two-factor product (up to factor order) over algebras
    of degree p^s."""
    factors = [GSBFactor(a, k) for a in algebras for k in range(s)]
    pairs = itertools.combinations_with_replacement(factors, 2)
    return [GSBProduct((f,)) for f in factors] + [GSBProduct(pair) for pair in pairs]


def _families(algebras):
    """Families of one or two distinct algebras."""
    return [list(c) for n in (1, 2) for c in itertools.combinations(algebras, n)]


@reuses_reduced_index
def _answers(model, algebra):
    """Every answer compared below, for the algebras of model as seen through
    algebra; one reduced_index memo serves all of them."""
    answers = {}
    for s, algebras in by_degree(model).items():
        products = _products(algebras, s)
        images = {x: _image(x, algebra) for x in products}
        for target, base in itertools.product(algebras, products):
            result = reduced_index(algebra(target), images[base])
            answers["index", target, base] = result
        for x, y in itertools.product(products, repeat=2):
            answers["equivalent", x, y] = equivalent(images[x], images[y]).holds
        for left, right in itertools.product(_families(algebras), repeat=2):
            comparison = compare_families(
                [algebra(a) for a in left], [algebra(a) for a in right]
            )
            answers["verdict", tuple(left), tuple(right)] = comparison.verdict
    return answers


@functools.cache
def _unrelabelled(model):
    return _answers(model, lambda a: a)


@pytest.mark.parametrize("case", CASES, ids=map(_id, CASES))
def test_answers_invariant_under_relabelling(case):
    model, perm, units = case
    expected = _unrelabelled(model)
    relabelled = _answers(model, _relabel(model, perm, units))
    assert {key[0] for key in expected} == {"index", "equivalent", "verdict"}
    assert relabelled == expected


@pytest.mark.parametrize("model", MODELS, ids=str)
@reuses_reduced_index
def test_equivalent_symmetric(model):
    # one memo for the whole test: each reduced-index question is enumerated
    # once, whichever order of the two products asks it
    for s, algebras in by_degree(model).items():
        for x, y in itertools.combinations(_products(algebras, s), 2):
            assert equivalent(x, y).holds == equivalent(y, x).holds


@st.composite
def _products_of_one_degree(draw):
    """Three products of one to three factors, over algebras of one degree
    p^s of one model."""
    model = draw(st.sampled_from((BrauerGroupModel(2, (2, 2)), *MODELS)))
    s, algebras = draw(st.sampled_from(sorted(by_degree(model).items())))
    factor = st.builds(GSBFactor, st.sampled_from(algebras), st.integers(0, s - 1))
    product = st.lists(factor, min_size=1, max_size=3).map(
        lambda factors: GSBProduct(tuple(factors))
    )
    return draw(st.tuples(product, product, product))


@settings(max_examples=100, deadline=None)
@given(_products_of_one_degree())
def test_index_profile_decides_equivalent(products):
    for x, y in itertools.combinations(products, 2):
        algebras = dict.fromkeys((*x.algebras(), *y.algebras()))
        profiles = [tuple(reduced_index(e, w).value for e in algebras) for w in (x, y)]
        assert (profiles[0] == profiles[1]) == equivalent(x, y).holds
        for w, profile in zip((x, y), profiles):
            assert list(profile) == [oracle_level_reduced_index(e, w) for e in algebras]
    x, y, z = products
    if equivalent(x, y).holds and equivalent(y, z).holds:
        assert equivalent(x, z).holds
