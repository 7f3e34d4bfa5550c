"""Metamorphic properties of the decisions.

Relabelling the generators of a model (permuting their positions, and the
exponents of every class with them) gives an isomorphic model, so no answer
may change: reduced indices and their witnesses, equivalence of products and
family verdicts.  Rational maps in both directions are also symmetric in the
two products.
"""

from __future__ import annotations

import functools
import itertools

import pytest

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
from helpers import by_degree

MODELS = (BrauerGroupModel(2, (4, 2)), BrauerGroupModel(2, (2, 2, 2)))

CASES = [
    (model, perm)
    for model in MODELS
    for perm in itertools.permutations(range(model.rank))
    if perm != tuple(range(model.rank))
]


def _id(case) -> str:
    model, perm = case
    return f"{model}-{''.join(map(str, perm))}".replace(" ", "")


def _relabel(model, perm):
    """The map sending an algebra of model to its image in the model whose
    generator i is generator perm[i] of model."""
    orders = model.generator_orders
    image = BrauerGroupModel(model.prime, tuple(orders[j] for j in perm))

    def algebra(a):
        exps = a.brauer_class.exponents
        return division_algebra(image.element(tuple(exps[j] for j in perm)), a.label)

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
    model, perm = case
    expected = _unrelabelled(model)
    relabelled = _answers(model, _relabel(model, perm))
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
