"""Index reduction: valuation helper, reduction terms, full minimization."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsbmaps.maps
import gsbmaps.reduction
from gsbmaps import (
    BrauerGroupModel,
    GSBFactor,
    GSBProduct,
    InvariantViolation,
    ModelMismatchError,
    PreconditionError,
    class_exponent,
    classify_single,
    combine,
    compare_families,
    division_algebra,
    equivalent,
    exists_rational_map,
    generic_index,
    mutual_relation_witness,
    reduced_index,
    reduction_term,
    vp,
)
from helpers import (
    ENUMERATED_MODELS,
    biquaternion_model,
    by_degree,
    mixed_exponent_model,
    oracle_closure,
    oracle_combine,
    oracle_coset_floor,
    oracle_level_reduced_index,
    oracle_reduced_index,
    product_of,
    table_add,
    table_zero,
    uniform_product,
)


class TestVp:
    @pytest.mark.parametrize("n,p,expected", [(1, 2, 0), (8, 2, 3), (12, 2, 2)])
    def test_known_values(self, n, p, expected):
        assert vp(n, p) == expected

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            vp(0, 2)

    def test_rejects_bad_base(self):
        with pytest.raises(PreconditionError):
            vp(4, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 6),
        st.integers(1, 50),
    )
    def test_strips_exact_power(self, p, e, m):
        if m % p == 0:
            m += 1
        assert vp(p**e * m, p) == e


class TestFactorsAndProducts:
    def test_k_range_enforced(self):
        _, d1, _, _ = biquaternion_model()
        GSBFactor(d1, 0)
        GSBFactor(d1, 1)
        with pytest.raises(PreconditionError):
            GSBFactor(d1, 2)
        with pytest.raises(PreconditionError):
            GSBFactor(d1, -1)

    def test_reduced_dim(self):
        _, d1, _, _ = biquaternion_model()
        assert GSBFactor(d1, 1).reduced_dim == 2

    def test_empty_product_rejected(self):
        with pytest.raises(PreconditionError):
            GSBProduct(())

    def test_mixed_models_rejected(self):
        _, d1, _, _ = biquaternion_model()
        _, e1, _, _ = mixed_exponent_model()
        with pytest.raises(ModelMismatchError):
            GSBProduct((GSBFactor(d1, 1), GSBFactor(e1, 1)))


class TestReductionTerm:
    def test_biquaternion_values(self):
        _, d1, d2, d3 = biquaternion_model()
        base = uniform_product([d1, d2], 1)
        assert reduction_term(d3, base, (2, 2)) == 4
        assert reduction_term(d3, base, (1, 1)) == 4

    def test_self_split(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        base = uniform_product([d], 0)
        assert reduction_term(d, base, (1,)) == 1

    def test_dimension_mismatch(self):
        _, d1, d2, d3 = biquaternion_model()
        base = uniform_product([d1, d2], 1)
        with pytest.raises(PreconditionError):
            reduction_term(d3, base, (1,))

    def test_rejects_nonpositive_entries(self):
        _, d1, d2, d3 = biquaternion_model()
        base = uniform_product([d1, d2], 1)
        with pytest.raises(PreconditionError):
            reduction_term(d3, base, (0, 1))

    def test_model_mismatch(self):
        _, d1, d2, _ = biquaternion_model()
        _, e1, _, _ = mixed_exponent_model()
        base = uniform_product([d1, d2], 1)
        with pytest.raises(ModelMismatchError):
            reduction_term(e1, base, (1, 1))

    def test_degree_mismatch_rejected(self):
        # the same one-common-degree contract as reduced_index
        m = BrauerGroupModel(2, (4, 2))
        big = division_algebra(m.element((1, 1)))  # degree 8
        small = division_algebra(m.element((2, 0)))  # degree 2
        base = uniform_product([small], 0)
        with pytest.raises(PreconditionError, match="index reduction needs one"):
            reduction_term(big, base, (1,))

    def test_residual_exponent_divides_index(self):
        # exponent | index holds for the twisted class at every tuple
        _, d1, d2, d3 = mixed_exponent_model()
        base = uniform_product([d1, d2], 1)
        for tup in itertools.product(range(1, 5), repeat=2):
            residual = combine(
                [(d3.brauer_class, 1)]
                + [(f.algebra.brauer_class, -i) for f, i in zip(base.factors, tup)]
            )
            assert generic_index(residual) % class_exponent(residual) == 0


class TestReducedIndex:
    def test_biquaternion_blocked(self):
        _, d1, d2, d3 = biquaternion_model()
        result = reduced_index(d3, uniform_product([d1, d2], 1))
        assert result.value == 4

    def test_mixed_exponent_drops_to_two(self):
        _, d1, d2, d3 = mixed_exponent_model()
        result = reduced_index(d3, uniform_product([d1, d2], 1))
        assert result.value == 2
        assert result.witness == (2, 2)

    def test_splits_over_own_function_field(self):
        m = BrauerGroupModel(2, (4,))
        d = division_algebra(m.element((1,)))
        result = reduced_index(d, uniform_product([d], 0))
        assert result == (1, (1,))

    def test_a_walk_of_no_tuples_is_an_invariant_violation(self, monkeypatch):
        _, d1, d2, _ = biquaternion_model()
        monkeypatch.setattr(gsbmaps.reduction, "_twists", lambda start, pairs, s: iter(()))
        with pytest.raises(InvariantViolation, match="enumerated no tuples"):
            reduced_index(d1, uniform_product([d2], 1))

    def test_degree_mismatch_rejected(self):
        m = BrauerGroupModel(2, (4, 2))
        big = division_algebra(m.element((1, 1)))  # degree 8
        small = division_algebra(m.element((2, 0)))  # degree 2
        with pytest.raises(PreconditionError, match="common degree"):
            reduced_index(big, uniform_product([small], 0))

    def test_matches_bruteforce_oracle(self):
        # every equal-degree (target, one- or two-factor base) combination
        for model in (ENUMERATED_MODELS[1], ENUMERATED_MODELS[3]):
            for s, algebras in by_degree(model).items():
                for target in algebras:
                    for b1 in algebras:
                        for k1 in range(s):
                            base = uniform_product([b1], k1)
                            got = reduced_index(target, base)
                            want = oracle_reduced_index(
                                model.prime,
                                s,
                                model.generator_orders,
                                target.brauer_class.exponents,
                                [(b1.brauer_class.exponents, k1)],
                            )
                            assert (got.value, got.witness) == want

    def test_two_factor_case_matches_oracle(self):
        model, d1, d2, d3 = mixed_exponent_model()
        for k1, k2 in itertools.product(range(2), repeat=2):
            base = GSBProduct((GSBFactor(d1, k1), GSBFactor(d2, k2)))
            got = reduced_index(d3, base)
            want = oracle_reduced_index(
                2,
                2,
                model.generator_orders,
                d3.brauer_class.exponents,
                [
                    (d1.brauer_class.exponents, k1),
                    (d2.brauer_class.exponents, k2),
                ],
            )
            assert (got.value, got.witness) == want

    def test_two_factor_elementary_abelian_matches_oracle(self):
        model, d1, d2, d3 = biquaternion_model()
        algebras = [d1, d2, d3]
        for target in algebras:
            for b1, b2 in itertools.product(algebras, repeat=2):
                for k1, k2 in itertools.product(range(2), repeat=2):
                    base = GSBProduct((GSBFactor(b1, k1), GSBFactor(b2, k2)))
                    got = reduced_index(target, base)
                    want = oracle_reduced_index(
                        2,
                        2,
                        model.generator_orders,
                        target.brauer_class.exponents,
                        [
                            (b1.brauer_class.exponents, k1),
                            (b2.brauer_class.exponents, k2),
                        ],
                    )
                    assert (got.value, got.witness) == want

    def test_divides_target_index(self):
        for model in ENUMERATED_MODELS:
            for s, algebras in by_degree(model).items():
                for target, b in itertools.product(algebras, repeat=2):
                    for k in range(s):
                        value = reduced_index(target, uniform_product([b], k)).value
                        assert target.index % value == 0

    def test_permutation_invariance(self):
        _, d1, d2, d3 = mixed_exponent_model()
        base = GSBProduct((GSBFactor(d1, 0), GSBFactor(d2, 1)))
        flipped = GSBProduct((GSBFactor(d2, 1), GSBFactor(d1, 0)))
        assert reduced_index(d3, base).value == reduced_index(d3, flipped).value

    def test_appending_factor_cannot_increase(self):
        _, d1, d2, d3 = mixed_exponent_model()
        for target in (d1, d3):
            for k1, k2 in itertools.product(range(2), repeat=2):
                small = GSBProduct((GSBFactor(d1, k1),))
                large = GSBProduct((GSBFactor(d1, k1), GSBFactor(d2, k2)))
                assert (
                    reduced_index(target, large).value
                    <= reduced_index(target, small).value
                )

    def test_split_base_gives_plain_index(self):
        # with all base classes zero the term reduces to the deficiency
        # factor times ind(target), minimized exactly at p^k | i_j
        model, d1, _, _ = mixed_exponent_model()
        p, s = 2, 2
        zero = model.zero()
        for ks in itertools.product(range(s), repeat=2):
            best = None
            for tup in itertools.product(range(1, p**s + 1), repeat=2):
                deficiency = 1
                for ij, k in zip(tup, ks):
                    pk = p**k
                    deficiency *= pk // math.gcd(ij, pk)
                residual = combine(
                    [(d1.brauer_class, 1), (zero, -tup[0]), (zero, -tup[1])]
                )
                value = deficiency * generic_index(residual)
                best = value if best is None else min(best, value)
            assert best == d1.index

    def test_witness_reverifies(self):
        _, d1, d2, d3 = mixed_exponent_model()
        base = uniform_product([d1, d2], 1)
        result = reduced_index(d3, base)
        assert reduction_term(d3, base, result.witness) == result.value


def _count_combines(monkeypatch):
    """The list of the enumeration's combine calls, filled as they happen."""
    combines = []
    real_combine = gsbmaps.reduction.combine

    def counting_combine(terms):
        combines.append(terms)
        return real_combine(terms)

    monkeypatch.setattr(gsbmaps.reduction, "combine", counting_combine)
    return combines


def _oracle_scan(target, base):
    """((value, witness), tuples scanned, where the floor was reached), from
    the oracles alone.

    The scan makes one combine call per tuple and stops at the first tuple
    whose value is the coset floor, so it visits the witness's lex rank of
    tuples when the minimum is the floor ("first" or "later"), and all
    (p^s)^n otherwise ("never").
    """
    model, s = target.model, target.degree_exponent
    orders, q, n = model.generator_orders, model.prime**s, len(base)
    vecs = [f.algebra.brauer_class.exponents for f in base.factors]
    want = oracle_reduced_index(
        model.prime,
        s,
        orders,
        target.brauer_class.exponents,
        [(v, f.k) for v, f in zip(vecs, base.factors)],
    )
    value, witness = want
    if value != oracle_coset_floor(orders, target.brauer_class.exponents, vecs):
        return want, q**n, "never"
    rank = 1
    for j, entry in enumerate(witness):
        rank += (entry - 1) * q ** (n - 1 - j)
    return want, rank, "first" if rank == 1 else "later"


def _check_against_oracle(target, factors):
    # factors: (algebra, k) pairs; the witness must also re-verify through
    # reduction_term, the scan must stop where the oracles predict, and the
    # value must equal the valuation-level oracle, which walks no tuples.
    # Returns where the scan reached the coset floor.
    base = GSBProduct(tuple(GSBFactor(a, k) for a, k in factors))
    with pytest.MonkeyPatch.context() as mp:
        combines = _count_combines(mp)
        got = reduced_index(target, base)
    want, scanned, reached = _oracle_scan(target, base)
    assert (got.value, got.witness) == want
    assert got.value == oracle_level_reduced_index(target, base)
    assert len(combines) == scanned
    # one combine per tuple, of two terms: the class and its step class
    assert all(len(terms) == 2 for terms in combines)
    assert reduction_term(target, base, got.witness) == got.value
    return reached


def _enumerated_questions():
    """Every one- and two-factor question over ENUMERATED_MODELS, at each k
    pattern, as (target, [(algebra, k), ...])."""
    for model in ENUMERATED_MODELS:
        for s, algebras in by_degree(model).items():
            for n in (1, 2):
                for target, *bases in itertools.product(algebras, repeat=n + 1):
                    for ks in itertools.product(range(s), repeat=n):
                        yield target, list(zip(bases, ks))


class TestReducedIndexBeyondTwoFactorsAndPTwo:
    def test_enumerated_models_scan_to_the_coset_floor(self):
        # every one- and two-factor question, each k pattern; the sample holds
        # scans that reach the floor at the first tuple, at a later one
        # (Z/4 x Z/2: (3,0) over X(1;(1,0)) at (3,)) and never (the
        # biquaternion pin: floor 1, minimum 4)
        reached = set()
        for target, factors in _enumerated_questions():
            reached.add(_check_against_oracle(target, factors))
        assert reached == {"first", "later", "never"}

    def test_enumerated_models_walk_tuple_by_tuple(self):
        # _balanced_row reads every class the walk yields, not only the
        # minimizer: every tuple comes in lex order, its class is the table
        # oracle's, and deficiency times index is the tuple's reduction term
        for target, factors in _enumerated_questions():
            base = GSBProduct(tuple(GSBFactor(a, k) for a, k in factors))
            pairs = [(a.brauer_class.exponents, k) for a, k in factors]
            s, n = target.degree_exponent, len(factors)
            orders = target.model.generator_orders
            walk = list(gsbmaps.reduction._twists(target.brauer_class, pairs, s))
            tuples = itertools.product(range(1, target.prime**s + 1), repeat=n)
            assert [tup for tup, _, _ in walk] == list(tuples)
            for tup, deficiency, cls in walk:
                terms = [(target.brauer_class.exponents, 1)]
                terms += [(a.brauer_class.exponents, -i) for (a, _), i in zip(factors, tup)]
                assert cls.exponents == oracle_combine(orders, terms)
                assert deficiency * generic_index(cls) == reduction_term(target, base, tup)

    def test_enumerated_models_coset_floor_in_one_pass(self, monkeypatch):
        # the floor of every question is the oracle's; the pass scores each
        # element of [target] + H once and stops at the zero class, the only
        # one of index 1, which it reaches at the first element it adds
        # (Δ1 over X(1;Δ1)), at a later one (Δ3 over X(1;Δ1) x X(1;Δ2)), or
        # never (floor above 1)
        scored = []
        real_index = gsbmaps.reduction._index

        def scoring_index(x, orders):
            scored.append(x)
            return real_index(x, orders)

        monkeypatch.setattr(gsbmaps.reduction, "_index", scoring_index)
        reached = set()
        for target, factors in _enumerated_questions():
            orders = target.model.generator_orders
            start = target.brauer_class.exponents
            vecs = [a.brauer_class.exponents for a, _ in factors]
            del scored[:]
            floor = gsbmaps.reduction._coset_floor(start, vecs, orders)
            assert floor == oracle_coset_floor(orders, start, vecs)
            coset = {table_add(orders, start, h) for h in oracle_closure(orders, vecs)}
            assert scored[0] == start
            assert len(set(scored)) == len(scored) and set(scored) <= coset
            if floor > 1:
                assert set(scored) == coset
                reached.add("never")
            else:
                assert scored[-1] == table_zero(orders)
                reached.add("first" if len(scored) == 2 else "later")
        assert reached == {"first", "later", "never"}

    @pytest.mark.parametrize(
        "model", [BrauerGroupModel(3, (3, 3)), BrauerGroupModel(3, (9, 3))], ids=str
    )
    def test_p3_one_factor_matches_oracle(self, model):
        for s, algebras in by_degree(model).items():
            for target, b in itertools.product(algebras, repeat=2):
                for k in range(s):
                    _check_against_oracle(target, [(b, k)])

    def test_p3_two_factors_match_oracle(self):
        model = BrauerGroupModel(3, (3, 3))
        for s, algebras in by_degree(model).items():
            target = algebras[0]  # one target per degree, as below
            for b1, b2 in itertools.combinations_with_replacement(algebras, 2):
                for k1, k2 in itertools.product(range(s), repeat=2):
                    _check_against_oracle(target, [(b1, k1), (b2, k2)])

    @staticmethod
    def _check_mixed_k(model, s, patterns):
        # every multiset of base algebras of degree p^s, at every k pattern
        # given, against the first algebra (one target keeps each test near a
        # second)
        algebras = by_degree(model)[s]
        target, n = algebras[0], len(patterns[0])
        for bases in itertools.combinations_with_replacement(algebras, n):
            for ks in patterns:
                _check_against_oracle(target, list(zip(bases, ks)))

    @pytest.mark.parametrize(
        "model", [BrauerGroupModel(2, (2, 2, 2)), BrauerGroupModel(2, (4, 2))], ids=str
    )
    def test_three_factors_mixed_k_match_oracle(self, model):
        for s in by_degree(model):
            if s < 2:
                continue  # k = 0 is the only choice
            # every k pattern using min(s, 3) distinct values of k
            mixed = [
                ks
                for ks in itertools.product(range(s), repeat=3)
                if len(set(ks)) == min(s, 3)
            ]
            self._check_mixed_k(model, s, mixed)

    def test_four_factors_mixed_k_match_oracle(self):
        # Z/4 x Z/2 at s = 2: (1,0) and (3,0) have exponent 4 = degree, (2,1)
        # exponent 2 < degree.  Four factors make the lex walk carry at three
        # levels, e.g. (1,4,4,4) -> (2,1,1,1); the bases repeat algebras and
        # some contain the target (1,0).  Every arrangement of two k = 0 and
        # two k = 1.
        two_each = [ks for ks in itertools.product(range(2), repeat=4) if sum(ks) == 2]
        self._check_mixed_k(BrauerGroupModel(2, (4, 2)), 2, two_each)

    @pytest.mark.parametrize(
        "model, s",
        [(BrauerGroupModel(2, (4, 4, 2)), 3), (BrauerGroupModel(3, (3, 3, 3)), 2)],
        ids=["Z/4 x Z/4 x Z/2", "Z/3 x Z/3 x Z/3"],
    )
    def test_four_factor_terms_agree_with_reduced_index(self, model, s):
        # reduced_index carries each twisted class over from the previous
        # tuple; reduction_term builds it afresh.  On four-factor bases like
        # the benchmark's, the terms' minimum, its first tuple and the term at
        # the witness all agree with reduced_index, for targets in the base
        # and outside it.
        a0, a1, a2, _ = algebras = by_degree(model)[s][:4]
        base = product_of([a1, a2, a1, a0], [0, s - 1, 1, 0])
        tuples = list(itertools.product(range(1, model.prime**s + 1), repeat=4))
        for target in algebras:
            result = reduced_index(target, base)
            assert reduction_term(target, base, result.witness) == result.value
            terms = [reduction_term(target, base, tup) for tup in tuples]
            assert min(terms) == result.value
            assert tuples[terms.index(result.value)] == result.witness


class TestReducedIndexAtPFive:
    # the class arithmetic runs mod powers of 5 and each deficiency table
    # repeats with period 5^k; every answer against both oracles, and the
    # scan against the oracle's count of tuples (_check_against_oracle)

    @pytest.mark.parametrize(
        "model", [BrauerGroupModel(5, (25,)), BrauerGroupModel(5, (5, 5))], ids=str
    )
    def test_one_factor_matches_oracle(self, model):
        for s, algebras in by_degree(model).items():
            # Z/25 at s = 2 has 20 algebras; two targets keep it near a second
            for target in algebras[:2]:
                for b in algebras:
                    for k in range(s):
                        _check_against_oracle(target, [(b, k)])

    def test_two_factors_over_z5_squared_match_oracle(self):
        # (Z/5)^2: every algebra has degree 5, so k = 0; a target in the
        # span of the base reduces to index 1, any other stays at 5
        algebras = by_degree(BrauerGroupModel(5, (5, 5)))[1]
        for target in algebras[:2]:
            for b1, b2 in itertools.combinations_with_replacement(algebras, 2):
                _check_against_oracle(target, [(b1, 0), (b2, 0)])

    def test_two_factors_over_z25_match_oracle(self):
        model = BrauerGroupModel(5, (25,))
        degrees = by_degree(model)
        # degree 5: the classes 5, 10, 15, 20, every target and base pair
        for target in degrees[1]:
            for b1, b2 in itertools.combinations_with_replacement(degrees[1], 2):
                _check_against_oracle(target, [(b1, 0), (b2, 0)])
        # degree 25: 25^2 tuples a question, so the bases 2, 3 and 4 at every
        # k pattern, for the target 1, no base algebra, and 3, one of them
        algebras = degrees[2]
        for target in (algebras[0], algebras[2]):
            for b1, b2 in itertools.combinations_with_replacement(algebras[1:4], 2):
                for ks in itertools.product(range(2), repeat=2):
                    _check_against_oracle(target, [(b1, ks[0]), (b2, ks[1])])


class TestDeficiencyTables:
    # a deficiency table depends only on (p, k, s) and is kept per process

    def test_interleaved_primes_and_degrees_match_oracle(self):
        # questions over (p, s) = (2, 2), (2, 3), (3, 2) and (5, 1), taken in
        # turn from a cleared cache: a table keyed on less than (p, k, s), k
        # alone say, would serve one of them another's table
        gsbmaps.reduction._deficiency_table.cache_clear()
        streams = []
        for model, s in (
            (BrauerGroupModel(2, (4, 2)), 2),
            (BrauerGroupModel(2, (8,)), 3),
            (BrauerGroupModel(3, (9,)), 2),
            (BrauerGroupModel(5, (5, 5)), 1),
        ):
            algebras = by_degree(model)[s]
            streams.append(
                [
                    (target, [(b, k)])
                    for target, b in itertools.product(algebras[:3], repeat=2)
                    for k in range(s)
                ]
            )
        asked = 0
        for round_ in itertools.zip_longest(*streams):
            for question in round_:
                if question is not None:
                    _check_against_oracle(*question)
                    asked += 1
        assert asked == sum(map(len, streams))
        keys = gsbmaps.reduction._deficiency_table.cache_info().currsize
        assert keys == 2 + 3 + 2 + 1

    def test_tables_are_tuples_in_a_bounded_cache(self):
        table = gsbmaps.reduction._deficiency_table
        assert table(3, 1, 2) == (1, 3, 3, 1, 3, 3, 1, 3, 3, 1)
        maxsize = table.cache_info().maxsize
        assert maxsize is not None
        keys = [(2, k, s) for s in range(1, 14) for k in range(s)]
        assert len(keys) > maxsize
        for key in keys:
            got = table(*key)
            assert type(got) is tuple and len(got) == 2 ** key[2] + 1
            assert table(*key) is got
        assert table.cache_info().currsize == maxsize


class TestNonIntegerInputs:
    # accepted before, or truncated to a different tuple; refused now
    def test_reduction_term_entry(self):
        _, d1, _, d3 = biquaternion_model()
        base = uniform_product([d1], 1)
        with pytest.raises(PreconditionError, match="1.9"):
            reduction_term(d3, base, (1.9,))

    def test_factor_k(self):
        _, d1, _, _ = biquaternion_model()
        with pytest.raises(PreconditionError, match="0.5"):
            GSBFactor(d1, 0.5)

    # a bare k is checked by building a GSBFactor, so the same rule applies
    def test_classify_single_k(self):
        _, d1, _, _ = biquaternion_model()
        with pytest.raises(PreconditionError, match="0.5"):
            classify_single(d1, 0.5, d1, 0.5)

    def test_mutual_relation_witness_k(self):
        _, d1, d2, d3 = biquaternion_model()
        with pytest.raises(PreconditionError, match="0.5"):
            mutual_relation_witness([d1, d2], [d1, d3], 0.5)


class TestCallScopedReuse:
    # compare_families, equivalent and exists_rational_map answer a repeated
    # reduced_index question from the first answer, within that call only

    @staticmethod
    def _record(monkeypatch):
        """Lists of the enumeration's combine calls and of the reduced_index
        questions the decisions ask, filled as they happen."""
        questions = []
        real_reduced_index = gsbmaps.maps.reduced_index

        def recording_reduced_index(target, base):
            questions.append((target, base))
            return real_reduced_index(target, base)

        monkeypatch.setattr(gsbmaps.maps, "reduced_index", recording_reduced_index)
        return _count_combines(monkeypatch), questions

    def test_families_enumerate_each_distinct_question_once(self, monkeypatch):
        _, d1, d2, d3 = biquaternion_model()
        combines, questions = self._record(monkeypatch)
        compare_families([d1, d2], [d1, d3])
        scanned = {
            (target, base.factors): _oracle_scan(target, base)[1]
            for target, base in questions
        }
        assert len(questions) == 160
        assert len(scanned) == 30
        # one scan per distinct question, as long as the oracles predict
        assert len(combines) == sum(scanned.values())
        assert len(combines) < sum(
            scanned[target, base.factors] for target, base in questions
        )

    def test_nothing_outlives_a_call(self, monkeypatch):
        m, d1, d2, d3 = biquaternion_model()
        q = division_algebra(m.element((1, 0, 0)), "Q")
        combines, _ = self._record(monkeypatch)
        compare_families([d1, d2], [d1, d3])
        first = len(combines)
        assert gsbmaps.reduction._MEMO.get() is None
        # the first question is answered and kept, the second raises
        with pytest.raises(PreconditionError, match="one common degree"):
            equivalent(product_of([d1], [0]), product_of([d1, q], [0, 0]))
        assert gsbmaps.reduction._MEMO.get() is None
        for _ in range(2):
            del combines[:]
            compare_families([d1, d2], [d1, d3])
            assert len(combines) == first
            assert gsbmaps.reduction._MEMO.get() is None

    @pytest.mark.parametrize("build", [biquaternion_model, mixed_exponent_model])
    def test_repeated_algebra_matches_bare_reduced_index(self, build):
        _, d1, d2, d3 = build()
        a = product_of([d1, d1, d2], [0, 1, 1])
        b = product_of([d3, d2, d3], [1, 0, 0])
        for rep, pairs in (
            (equivalent(a, b), ((a, b), (b, a))),
            (exists_rational_map(a, b), ((a, b),)),
            (exists_rational_map(b, a), ((b, a),)),
        ):
            directions = (rep.forward,) if rep.backward is None else (rep.forward, rep.backward)
            assert len(directions) == len(pairs)
            for direction, (source, target) in zip(directions, pairs):
                for w, f in zip(direction.factors, target.factors, strict=True):
                    bare = reduced_index(f.algebra, source)
                    assert (w.index, w.witness) == (bare.value, bare.witness)
                    assert w.has_point == (f.reduced_dim % bare.value == 0)
