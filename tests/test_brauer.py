"""Group-model arithmetic: combine, exponent, index, subgroups."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsbmaps as g
from gsbmaps import (
    AlgebraSpec,
    BrauerClass,
    BrauerGroupModel,
    ModelMismatchError,
    PreconditionError,
    Subgroup,
    class_exponent,
    combine,
    division_algebra,
    generic_index,
    subgroup_generated,
    subgroups_equal,
    vp,
)
from gsbmaps.brauer import _index, _is_prime
from helpers import (
    ENUMERATED_MODELS,
    biquaternion_model,
    mixed_exponent_model,
    oracle_closure,
    oracle_combine,
    oracle_exponent,
    oracle_index,
    oracle_is_closed,
)


@st.composite
def models(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    orders = tuple(p ** draw(st.integers(1, 2)) for _ in range(rank))
    total = 1
    for o in orders:
        total *= o
    if total > 64:
        orders = orders[:1]
    return BrauerGroupModel(p, orders)


@st.composite
def model_and_classes(draw, count=1):
    m = draw(models())
    classes = tuple(
        m.element(tuple(draw(st.integers(-10, 10)) for _ in range(m.rank)))
        for _ in range(count)
    )
    return m, classes


class TestModelValidation:
    def test_rejects_non_prime(self):
        with pytest.raises(PreconditionError):
            BrauerGroupModel(6, (6,))

    def test_rejects_order_one(self):
        with pytest.raises(PreconditionError):
            BrauerGroupModel(2, (1,))

    def test_rejects_wrong_prime_power(self):
        with pytest.raises(PreconditionError):
            BrauerGroupModel(2, (4, 6))

    def test_rejects_empty_generators(self):
        with pytest.raises(PreconditionError):
            BrauerGroupModel(2, ())

    def test_order_and_rank(self):
        m = BrauerGroupModel(2, (4, 2, 2))
        assert m.rank == 3
        assert m.order == 16
        assert len(list(m.elements())) == 16

    def test_primality_matches_trial_division(self):
        for n in range(-2, 3000):
            is_prime = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert _is_prime(n) == is_prime, n

    def test_rejects_strong_pseudoprime(self):
        # 151 * 751 * 28351: a strong pseudoprime to bases 2, 3, 5 and 7
        with pytest.raises(PreconditionError, match="prime number"):
            BrauerGroupModel(3215031751, (3215031751,))

    def test_prime_beyond_exact_range_refused(self):
        with pytest.raises(PreconditionError, match="decided exactly only below"):
            BrauerGroupModel(2**89 - 1, (2**89 - 1,))


class TestClassNormalization:
    def test_reduces_negative_and_oversized(self):
        m = BrauerGroupModel(2, (4, 2))
        assert m.element((-1, 5)).exponents == (3, 1)

    def test_length_mismatch(self):
        m = BrauerGroupModel(2, (4, 2))
        with pytest.raises(PreconditionError):
            m.element((1,))

    def test_operator_sugar(self):
        m = BrauerGroupModel(2, (4, 2))
        a = m.element((1, 1))
        assert (a + a).exponents == (2, 0)
        assert (-a).exponents == (3, 1)
        assert (3 * a).exponents == (3, 1)
        assert (a - a).is_zero


class TestCombine:
    def test_zero_coefficient(self):
        m, d1, _, _ = biquaternion_model()
        assert combine([(d1.brauer_class, 0)]).is_zero

    def test_even_multiples_vanish_in_exponent_two(self):
        _, d1, d2, d3 = biquaternion_model()
        out = combine(
            [(d3.brauer_class, 1), (d1.brauer_class, -2), (d2.brauer_class, -2)]
        )
        assert out.exponents == (0, 1, 1)

    def test_mixed_orders(self):
        # frozen from the repeated-addition oracle over Z/4 x Z/2 x Z/2
        _, d1, d2, d3 = mixed_exponent_model()
        out = combine(
            [(d3.brauer_class, 1), (d1.brauer_class, -2), (d2.brauer_class, -2)]
        )
        assert out.exponents == (0, 0, 1)
        oracle = oracle_combine(
            (4, 2, 2),
            [((2, 0, 1), 1), ((1, 0, 0), -2), ((2, 1, 0), -2)],
        )
        assert out.exponents == oracle

    def test_empty_terms_rejected(self):
        with pytest.raises(PreconditionError):
            combine([])

    def test_model_mismatch(self):
        a = BrauerGroupModel(2, (2,)).element((1,))
        b = BrauerGroupModel(2, (4,)).element((1,))
        with pytest.raises(ModelMismatchError):
            combine([(a, 1), (b, 1)])

    @settings(max_examples=120, deadline=None)
    @given(model_and_classes(count=3), st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_matches_repeated_addition_oracle(self, mc, coeffs):
        m, classes = mc
        terms = list(zip(classes, coeffs))
        out = combine(terms)
        oracle = oracle_combine(
            m.generator_orders, [(c.exponents, k) for c, k in terms]
        )
        assert out.exponents == oracle


@st.composite
def _two_terms(draw, prime):
    """Two terms over one model of the given prime, the second class
    sometimes in an equal but distinct model object; each coefficient is 1
    half the time, so both paths of combine are drawn."""
    rank = draw(st.integers(1, 3))
    orders = tuple(prime ** draw(st.integers(1, 2)) for _ in range(rank))
    m = BrauerGroupModel(prime, orders)
    second = BrauerGroupModel(prime, orders) if draw(st.booleans()) else m
    terms = []
    for model in (m, second):
        exps = tuple(draw(st.integers(0, o - 1)) for o in orders)
        coeff = draw(st.one_of(st.just(1), st.integers(-9, 9)))
        terms.append((model.element(exps), coeff))
    return terms


class TestTwoTermCombine:
    """Two terms with the exact int coefficient 1 and one model object are
    added in one comprehension; every other call takes the general path,
    which checks each term's model and then its coefficient, in order."""

    @pytest.mark.parametrize("prime", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, prime, data):
        terms = data.draw(_two_terms(prime))
        out = combine(terms)
        orders = terms[0][0].group.generator_orders
        assert out.exponents == oracle_combine(
            orders, [(c.exponents, k) for c, k in terms]
        )
        assert out == BrauerClass(out.group, out.exponents)

    def test_int_like_coefficients_give_the_plain_int_class(self):
        m = BrauerGroupModel(2, (4, 2))
        a, b = m.element((1, 1)), m.element((2, 1))

        class Int(int):
            pass

        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        want = combine([(a, 1), (b, 1)])
        assert want.exponents == (3, 0)
        for one in (True, Int(1), Index(1)):
            assert combine([(a, one), (b, 1)]) == want
            assert combine([(a, 1), (b, one)]) == want
            assert combine([(a, one), (b, one)]) == want
        assert combine([(a, Int(3)), (b, Index(-1))]) == combine([(a, 3), (b, -1)])

    def test_checks_in_term_order(self):
        c = BrauerGroupModel(2, (4,)).element((1,))
        other = BrauerGroupModel(3, (3,)).element((1,))
        # the first term's coefficient is checked before the second's model
        with pytest.raises(PreconditionError, match="1.5"):
            combine([(c, 1.5), (other, 1)])
        # the second term's model before its coefficient
        with pytest.raises(ModelMismatchError):
            combine([(c, 1), (other, 1.5)])
        with pytest.raises(ModelMismatchError):
            combine([(c, 1), (other, 1)])
        # a float equal to 1 is refused on either term
        with pytest.raises(PreconditionError, match="1.0"):
            combine([(c, 1.0), (c, 1)])
        with pytest.raises(PreconditionError, match="1.0"):
            combine([(c, 1), (c, 1.0)])


class TestTrustedConstructor:
    """combine's two-term path builds its result through BrauerClass._reduced,
    which writes the two slots past Value.__setattr__ and checks nothing; the
    result must still be the constructor's class, and stay frozen."""

    @settings(max_examples=150, deadline=None)
    @given(model_and_classes(count=2))
    def test_two_term_result_is_the_constructor_class(self, mc):
        m, (a, b) = mc
        out = combine([(a, 1), (b, 1)])
        assert all(type(e) is int for e in out.exponents)
        assert all(0 <= e < o for e, o in zip(out.exponents, m.generator_orders))
        want = m.element(tuple(x + y for x, y in zip(a.exponents, b.exponents)))
        assert out.exponents == want.exponents
        assert out == want and hash(out) == hash(want)

    def test_fields_stay_frozen(self):
        m = BrauerGroupModel(5, (25, 5))
        a, b = m.element((3, 1)), m.element((24, 4))
        for c in (combine([(a, 1), (b, 1)]), m.zero(), next(m.elements())):
            before = (c.group, c.exponents)
            for name in ("group", "exponents"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(c, name, getattr(c, name))
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(c, name)
            assert (c.group, c.exponents) == before


class TestArithmeticResults:
    """combine and the operators build their results without re-validation;
    the results must still be the canonical classes the constructor gives."""

    @staticmethod
    def _check(out, orders, terms):
        want = oracle_combine(orders, [(c.exponents, k) for c, k in terms])
        assert out.exponents == want
        assert all(0 <= e < o for e, o in zip(out.exponents, orders))
        canonical = BrauerClass(out.group, want)
        assert out == canonical
        assert hash(out) == hash(canonical)

    def test_match_oracle_on_enumerated_models(self):
        for m in ENUMERATED_MODELS:
            orders = m.generator_orders
            for a, b in itertools.product(m.elements(), repeat=2):
                self._check(a + b, orders, [(a, 1), (b, 1)])
                self._check(a - b, orders, [(a, 1), (b, -1)])
                self._check(-a, orders, [(a, -1)])
                for c in range(-5, 6):
                    self._check(combine([(a, c), (b, 1)]), orders, [(a, c), (b, 1)])
                    self._check(a * c, orders, [(a, c)])
                    self._check(c * a, orders, [(a, c)])

    def test_equal_but_distinct_models_combine(self):
        m1 = BrauerGroupModel(2, (4, 2))
        m2 = BrauerGroupModel(2, (4, 2))
        assert m1 == m2 and m1 is not m2
        a, b = m1.element((1, 1)), m2.element((2, 1))
        assert combine([(a, 1), (b, 1)]).exponents == (3, 0)
        assert combine([(b, 1), (a, -1)]).exponents == (1, 0)
        assert (a + b).exponents == (3, 0)
        assert (b - a).exponents == (1, 0)

    def test_different_models_still_rejected(self):
        a = BrauerGroupModel(2, (4, 2)).element((1, 1))
        b = BrauerGroupModel(2, (2, 4)).element((1, 1))
        with pytest.raises(ModelMismatchError):
            combine([(a, 1), (b, 1)])
        with pytest.raises(ModelMismatchError):
            a + b
        with pytest.raises(ModelMismatchError):
            a - b

    @pytest.mark.parametrize(
        "op",
        [lambda x: x + 1, lambda x: x - "a", lambda x: x * 1.5, lambda x: 1.5 * x],
        ids=["add-int", "sub-str", "mul-float", "rmul-float"],
    )
    def test_non_class_operands_rejected(self, op):
        x = BrauerGroupModel(2, (4, 2)).element((1, 1))
        with pytest.raises(TypeError):
            op(x)


def _one(d):
    return g.GSBProduct((g.GSBFactor(d, 1),))


# every public entry point that combines operands, each called with one
# operand from (Z/2)^3 and one from Z/4 x Z/2 x Z/2
MIXED_MODEL_CALLS = {
    "combine": lambda b, x: combine([(b.brauer_class, 1), (x.brauer_class, 1)]),
    "BrauerClass.__add__": lambda b, x: b.brauer_class + x.brauer_class,
    "BrauerClass.__sub__": lambda b, x: b.brauer_class - x.brauer_class,
    "Subgroup": lambda b, x: Subgroup(b.model, (b.model.zero(), x.model.zero())),
    "subgroup_generated": lambda b, x: subgroup_generated(
        [b.brauer_class, x.brauer_class]
    ),
    "subgroups_equal": lambda b, x: subgroups_equal(
        subgroup_generated([b.brauer_class]), subgroup_generated([x.brauer_class])
    ),
    "GSBProduct": lambda b, x: g.GSBProduct((g.GSBFactor(b, 1), g.GSBFactor(x, 1))),
    "reduction_term": lambda b, x: g.reduction_term(b, _one(x), (1,)),
    "reduced_index": lambda b, x: g.reduced_index(b, _one(x)),
    "exists_rational_map": lambda b, x: g.exists_rational_map(_one(b), _one(x)),
    "equivalent": lambda b, x: g.equivalent(_one(b), _one(x)),
    "has_rational_point_over": lambda b, x: g.has_rational_point_over(
        g.GSBFactor(b, 1), _one(x)
    ),
    "relation_witness": lambda b, x: g.relation_witness(b, _one(x)),
    "classical_criterion": lambda b, x: g.classical_criterion([b], [x]),
    "mutual_relation_witness": lambda b, x: g.mutual_relation_witness([b], [x], 1),
    "UpperMotiveDescriptor": lambda b, x: g.UpperMotiveDescriptor(
        (g.GSBFactor(b, 0), g.GSBFactor(x, 0))
    ),
    "classify_single": lambda b, x: g.classify_single(b, 0, x, 0),
    "family_motives": lambda b, x: g.family_motives([b, x]),
    "compare_families": lambda b, x: g.compare_families([b], [x]),
}


@pytest.mark.parametrize("entry", sorted(MIXED_MODEL_CALLS))
def test_mixed_models_rejected_naming_both(entry):
    bq, b1, _, _ = biquaternion_model()
    mx, x1, _, _ = mixed_exponent_model()
    with pytest.raises(ModelMismatchError) as exc:
        MIXED_MODEL_CALLS[entry](b1, x1)
    assert str(bq) in str(exc.value) and str(mx) in str(exc.value)


class TestNonIntegerInputs:
    # these were truncated by int() or accepted, and surfaced deep inside
    # the code if at all; each is refused where it enters, naming the value
    def test_combine_coefficient(self):
        c = BrauerGroupModel(2, (4,)).element((1,))

        class Int(int):
            pass

        class Index:
            def __index__(self):
                return 3

        # an exact int skips the conversion; anything else int-like takes it
        assert combine([(c, True)]) == combine([(c, 1)]) == c
        assert combine([(c, Int(3))]) == combine([(c, Index())]) == combine([(c, 3)])
        with pytest.raises(PreconditionError, match="1.5"):
            combine([(c, 1.5)])
        # the model is checked before the coefficient
        other = BrauerGroupModel(3, (3,)).element((1,))
        with pytest.raises(ModelMismatchError):
            combine([(c, 1), (other, 1.5)])

    def test_class_exponent(self):
        m = BrauerGroupModel(2, (2, 2))
        with pytest.raises(PreconditionError, match="1.7"):
            m.element((1.7, 0))

    def test_generator_order(self):
        with pytest.raises(PreconditionError, match="4.0"):
            BrauerGroupModel(2, (4.0, 2))

    def test_model_prime(self):
        with pytest.raises(PreconditionError, match="2.0"):
            BrauerGroupModel(2.0, (4,))

    @pytest.mark.parametrize(
        "n,p,shown", [(8.0, 2, "8.0"), (4.5, 2, "4.5"), (12, 2.0, "2.0")]
    )
    def test_valuation_arguments(self, n, p, shown):
        with pytest.raises(PreconditionError, match=shown):
            vp(n, p)


class TestExponentAndIndex:
    def test_zero_class(self):
        m = BrauerGroupModel(2, (4, 2, 2))
        assert class_exponent(m.zero()) == 1
        assert generic_index(m.zero()) == 1

    def test_mixed_exponent_values(self):
        _, d1, d2, d3 = mixed_exponent_model()
        assert class_exponent(d2.brauer_class) == 2
        assert class_exponent(d1.brauer_class) == 4
        assert generic_index(d3.brauer_class) == 4

    def test_biquaternion_index(self):
        _, d1, _, _ = biquaternion_model()
        assert generic_index(d1.brauer_class) == 4

    @settings(max_examples=150, deadline=None)
    @given(model_and_classes())
    def test_exponent_divides_index(self, mc):
        m, (c,) = mc
        assert generic_index(c) % class_exponent(c) == 0

    @settings(max_examples=150, deadline=None)
    @given(model_and_classes())
    def test_negation_invariance(self, mc):
        _, (c,) = mc
        assert generic_index(c) == generic_index(-c)
        assert class_exponent(c) == class_exponent(-c)

    @settings(max_examples=150, deadline=None)
    @given(model_and_classes())
    def test_low_exponent_index_counts_support(self, mc):
        m, (c,) = mc
        if class_exponent(c) in (1, m.prime):
            nonzero = sum(1 for e in c.exponents if e != 0)
            assert generic_index(c) == m.prime**nonzero

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_index_of_unreduced_and_negative_vectors(self, data):
        # _index reads the exponent vector as it comes (the walk and the
        # coset floor pass reduced ones): gcd(e, o) depends only on e mod o
        orders = data.draw(models()).generator_orders
        exps = tuple(data.draw(st.integers(-3 * o, 3 * o)) for o in orders)
        reduced = tuple(e % o for e, o in zip(exps, orders))
        assert _index(exps, orders) == oracle_index(orders, reduced)

    @settings(max_examples=100, deadline=None)
    @given(model_and_classes())
    def test_matches_order_oracle(self, mc):
        m, (c,) = mc
        assert class_exponent(c) == oracle_exponent(m.generator_orders, c.exponents)
        assert generic_index(c) == oracle_index(m.generator_orders, c.exponents)


class TestAlgebraSpec:
    @pytest.mark.parametrize("model", ENUMERATED_MODELS, ids=str)
    def test_degree_is_the_model_index(self, model):
        for c in model.elements():
            if c.is_zero:
                continue
            alg = AlgebraSpec(c)
            assert alg.degree == generic_index(c) == alg.index
            assert division_algebra(c) == alg

    def test_division_algebra_helper(self):
        m = BrauerGroupModel(2, (4, 2))
        alg = division_algebra(m.element((1, 1)))
        assert alg.degree == 8
        assert alg.index == 8
        assert alg.exponent == 4

    def test_label_ignored_by_equality(self):
        m = BrauerGroupModel(2, (4, 2))
        a = division_algebra(m.element((1, 0)), "a")
        b = division_algebra(m.element((1, 0)), "b")
        assert a == b


class TestSubgroups:
    def test_empty_generating_set(self):
        m = BrauerGroupModel(2, (2, 2, 2))
        sub = subgroup_generated([], m)
        assert len(sub) == 1
        assert m.zero() in sub

    def test_empty_without_model_rejected(self):
        with pytest.raises(PreconditionError):
            subgroup_generated([])

    def test_biquaternion_span(self):
        m, d1, d2, d3 = biquaternion_model()
        sub = subgroup_generated([d1.brauer_class, d2.brauer_class])
        got = {c.exponents for c in sub}
        assert got == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_cyclic_generator(self):
        m, d1, _, _ = mixed_exponent_model()
        sub = subgroup_generated([d1.brauer_class])
        assert [c.exponents for c in sub] == [
            (0, 0, 0),
            (1, 0, 0),
            (2, 0, 0),
            (3, 0, 0),
        ]

    def test_equality_examples(self):
        _, a1, a2, a3 = biquaternion_model()
        left = subgroup_generated([a1.brauer_class, a2.brauer_class])
        right = subgroup_generated([a1.brauer_class, a3.brauer_class])
        assert subgroups_equal(left, right)

        _, d1, d2, d3 = mixed_exponent_model()
        left = subgroup_generated([d1.brauer_class, d2.brauer_class])
        right = subgroup_generated([d1.brauer_class, d3.brauer_class])
        assert not subgroups_equal(left, right)

    def test_reflexivity(self):
        m, d1, _, _ = mixed_exponent_model()
        s = subgroup_generated([d1.brauer_class])
        assert subgroups_equal(s, s)

    def test_model_mismatch(self):
        a = subgroup_generated([], BrauerGroupModel(2, (2,)))
        b = subgroup_generated([], BrauerGroupModel(2, (4,)))
        with pytest.raises(ModelMismatchError):
            subgroups_equal(a, b)

    def test_not_closed_set_gives_its_span(self):
        # {0, 1} is not closed in Z/4; its span is all of Z/4
        m = BrauerGroupModel(2, (4,))
        sub = Subgroup(m, (m.zero(), m.element((1,))))
        assert list(sub) == [m.element((e,)) for e in range(4)]

    def test_no_classes_give_the_trivial_subgroup(self):
        m = BrauerGroupModel(2, (4, 2))
        assert Subgroup(m, ()).elements == (m.zero(),)

    @pytest.mark.parametrize(
        "model,subgroups",
        [
            (BrauerGroupModel(2, (4, 2)), 8),
            (BrauerGroupModel(2, (2, 2, 2)), 16),
            (BrauerGroupModel(3, (9,)), 3),
        ],
        ids=["Z4xZ2", "Z2^3", "Z9"],
    )
    def test_validation_matches_pairwise_oracle_on_every_subset(self, model, subgroups):
        # every subset of the model spans its closure; a subset that is
        # already a subgroup gives back itself
        orders = model.generator_orders
        elements = list(model.elements())
        spans = set()
        for mask in range(1 << len(elements)):
            subset = [c for j, c in enumerate(elements) if mask >> j & 1]
            vecs = [c.exponents for c in subset]
            got = {c.exponents for c in Subgroup(model, tuple(subset))}
            assert got == oracle_closure(orders, vecs)
            if model.zero() in subset and oracle_is_closed(orders, vecs):
                assert got == set(vecs)
            spans.add(frozenset(got))
        assert len(spans) == subgroups

    @pytest.mark.parametrize("model", ENUMERATED_MODELS, ids=str)
    def test_membership_matches_brute_force(self, model):
        # every subgroup generated by at most two classes, against its
        # closure oracle, for every class of the model
        orders = model.generator_orders
        elements = list(model.elements())
        for n in range(3):
            for gens in itertools.combinations(elements, n):
                sub = subgroup_generated(list(gens), model)
                closure = oracle_closure(orders, [g.exponents for g in gens])
                for c in elements:
                    assert (c in sub) == (c.exponents in closure)

    def test_membership_of_foreign_objects(self):
        sub = subgroup_generated([], BrauerGroupModel(2, (2, 2)))
        assert BrauerGroupModel(2, (2, 2)).zero() in sub  # equal, distinct model
        assert BrauerGroupModel(2, (4, 2)).zero() not in sub
        assert BrauerGroupModel(2, (2,)).zero() not in sub
        assert (0, 0) not in sub

    @settings(max_examples=80, deadline=None)
    @given(model_and_classes(count=2))
    def test_generation_idempotent(self, mc):
        m, classes = mc
        sub = subgroup_generated(list(classes), m)
        again = subgroup_generated(list(sub.elements), m)
        assert sub.elements == again.elements

    @settings(max_examples=80, deadline=None)
    @given(model_and_classes(count=2))
    def test_matches_closure_oracle(self, mc):
        m, classes = mc
        sub = subgroup_generated(list(classes), m)
        oracle = oracle_closure(m.generator_orders, [c.exponents for c in classes])
        assert {c.exponents for c in sub} == set(oracle)

    @settings(max_examples=80, deadline=None)
    @given(model_and_classes(count=2))
    def test_cyclic_equality_iff_mutual_membership(self, mc):
        m, (a, b) = mc
        equal = subgroups_equal(subgroup_generated([a]), subgroup_generated([b]))
        a_in_b = any((n * b).exponents == a.exponents for n in range(m.order + 1))
        b_in_a = any((n * a).exponents == b.exponents for n in range(m.order + 1))
        assert equal == (a_in_b and b_in_a)
