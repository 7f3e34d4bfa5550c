"""Shared model builders and brute-force oracles.

The oracles work on raw exponent tuples with table addition, coordinatewise
multiples and math.gcd only, so they stay independent of the library code
they check.
"""

from __future__ import annotations

import itertools
import math

from gsbmaps import (
    BrauerGroupModel,
    GSBFactor,
    GSBProduct,
    division_algebra,
)

# ---------------------------------------------------------------------------
# raw group-table arithmetic (the oracle side)


def table_add(orders, a, b):
    return tuple((x + y) % o for x, y, o in zip(a, b, orders))


def table_zero(orders):
    return (0,) * len(orders)


def scalar_multiple(orders, a, coeff):
    """coeff * a in closed form: coeff * a_i mod o_i in each coordinate."""
    return tuple(coeff * x % o for x, o in zip(a, orders))


def oracle_combine(orders, terms):
    acc = table_zero(orders)
    for vec, coeff in terms:
        acc = table_add(orders, acc, scalar_multiple(orders, vec, coeff))
    return acc


def element_order(orders, a):
    acc = a
    n = 1
    while acc != table_zero(orders):
        acc = table_add(orders, acc, a)
        n += 1
    return n


def oracle_exponent(orders, a):
    return element_order(orders, a)


def oracle_index(orders, a):
    """Index under the independent-generator rule: product of the orders of
    the single-component projections, each found by repeated addition."""
    result = 1
    for pos, x in enumerate(a):
        if x == 0:
            continue
        component = tuple(x if j == pos else 0 for j in range(len(a)))
        result *= element_order(orders, component)
    return result


def oracle_closure(orders, gens):
    seen = {table_zero(orders)}
    frontier = [table_zero(orders)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = table_add(orders, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def oracle_coset_floor(orders, target_vec, base_vecs):
    """Least index on the coset target + <base_vecs>.  Every twist of the
    target by the base lies in it and every deficiency is at least 1, so no
    index-reduction tuple scores below it."""
    return min(
        oracle_index(orders, table_add(orders, target_vec, h))
        for h in oracle_closure(orders, base_vecs)
    )


def oracle_is_closed(orders, vecs):
    """True iff every pairwise sum of the vectors is again one of them."""
    members = set(vecs)
    return all(table_add(orders, a, b) in members for a in members for b in members)


def oracle_reduced_index(p, s, orders, target_vec, base):
    """Full enumeration of the index-reduction minimum.

    base is a list of (vector, k) pairs; returns (value, first minimizer).
    """
    bound = p**s
    best = None
    best_tup = None
    for tup in itertools.product(range(1, bound + 1), repeat=len(base)):
        deficiency = 1
        terms = [(target_vec, 1)]
        for ij, (vec, k) in zip(tup, base):
            pk = p**k
            deficiency *= pk // math.gcd(ij, pk)
            terms.append((vec, -ij))
        value = deficiency * oracle_index(orders, oracle_combine(orders, terms))
        if best is None or value < best:
            best, best_tup = value, tup
    return best, best_tup


def oracle_level_reduced_index(target, product):
    """reduced_index(target, product).value by valuation levels, with no
    tuple walk; only the prime, the generator orders, the exponent vectors
    and the k of each factor are read from the objects.

    Every vector has exponent dividing the common degree p^s, so the entries
    i_j in [1, p^s] with p^{v_j} | i_j give twisted classes filling the coset
    target + <p^{v_j} D_j> and deficiency at most p^{sum_j (k_j - v_j)}, with
    equality at each tuple's own level v_j = min(v_p(i_j), k_j); so the value
    is the least, over the levels v in prod_j [0, k_j], of that bound times
    the coset's least index.
    """
    p, orders = target.model.prime, target.model.generator_orders
    base = [(f.algebra.brauer_class.exponents, f.k) for f in product.factors]
    return min(
        p ** sum(k - v for (_, k), v in zip(base, levels))
        * oracle_coset_floor(
            orders,
            target.brauer_class.exponents,
            [scalar_multiple(orders, vec, p**v) for (vec, _), v in zip(base, levels)],
        )
        for levels in itertools.product(*(range(k + 1) for _, k in base))
    )


def oracle_valuation(n, p):
    """Largest e with p^e | n, for a positive n, by repeated division."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def oracle_balanced_rows(p, s, k, orders, target_vec, family_vecs):
    """Every balanced relation of target over the family, by full enumeration.

    A tuple i in [1, p^s]^m is returned when sum_j v_p(gcd(i_j, p^k)) equals
    k(m-1) and target = sum_j i_j family_j in the group table.
    """
    m = len(family_vecs)
    rows = []
    for row in itertools.product(range(1, p**s + 1), repeat=m):
        if sum(oracle_valuation(math.gcd(i, p**k), p) for i in row) != k * (m - 1):
            continue
        terms = [(target_vec, 1)] + [(vec, -i) for vec, i in zip(family_vecs, row)]
        if oracle_combine(orders, terms) == table_zero(orders):
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# model builders


def biquaternion_model():
    """(Z/2)^3 with the three pairwise tensor products of the generators."""
    m = BrauerGroupModel(2, (2, 2, 2))
    d1 = division_algebra(m.element((1, 1, 0)), "Δ1")
    d2 = division_algebra(m.element((1, 0, 1)), "Δ2")
    d3 = division_algebra(m.element((0, 1, 1)), "Δ3")
    return m, d1, d2, d3


def mixed_exponent_model():
    """Z/4 x Z/2 x Z/2 with one exponent-4 and two exponent-2 algebras of index 4."""
    m = BrauerGroupModel(2, (4, 2, 2))
    d1 = division_algebra(m.element((1, 0, 0)), "D1")
    d2 = division_algebra(m.element((2, 1, 0)), "D2")
    d3 = division_algebra(m.element((2, 0, 1)), "D3")
    return m, d1, d2, d3


ENUMERATED_MODELS = (
    BrauerGroupModel(2, (2,)),
    BrauerGroupModel(2, (2, 2)),
    BrauerGroupModel(2, (2, 2, 2)),
    BrauerGroupModel(2, (4, 2)),
)


def division_classes(model):
    """Every nonzero class, as the division algebra of its own index."""
    return [division_algebra(c) for c in model.elements() if not c.is_zero]


def by_degree(model):
    """Division algebras of a model grouped by degree exponent s >= 1."""
    grouped = {}
    for alg in division_classes(model):
        grouped.setdefault(alg.degree_exponent, []).append(alg)
    return grouped


def product_of(algebras, ks):
    return GSBProduct(tuple(GSBFactor(a, k) for a, k in zip(algebras, ks)))


def uniform_product(algebras, k):
    return product_of(algebras, [k] * len(algebras))


def count_constructions(monkeypatch):
    """GSBFactor and GSBProduct constructor calls by class name, counted as
    they happen."""
    counts = {"GSBFactor": 0, "GSBProduct": 0}
    for cls in (GSBFactor, GSBProduct):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts
