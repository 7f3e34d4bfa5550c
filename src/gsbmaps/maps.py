"""Existence of rational maps between products of generalized Severi-Brauer
varieties, with explicit certificates.

A rational map into a product exists iff every target factor acquires a
rational point over the source's function field, and X(p^k;D) acquires a
rational point iff the reduced index of D there divides p^k.  On top of the
plain decisions, this module searches the exponent-vector relations that
certify equivalence when the families involved have uniform exponents:
hypothesis violations raise PreconditionError rather than returning False,
because outside the hypotheses the criteria are inapplicable, not negative.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value
from .brauer import AlgebraSpec, same_model, subgroup_generated, subgroups_equal
from .errors import InvariantViolation, PreconditionError
from .reduction import (
    GSBFactor,
    GSBProduct,
    _balanced_row,
    _factor_k,
    common_degree,
    reduced_index,
    reuses_reduced_index,
)


class FactorWitness(Value):
    """Reduced-index certificate for one target factor over a base product."""

    __slots__ = ("factor", "index", "witness")

    def __init__(self, factor: GSBFactor, index: int, witness: tuple):
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "witness", witness)

    @property
    def has_point(self) -> bool:
        # X(p^k;D) has a rational point iff the reduced index of D divides p^k
        return self.factor.reduced_dim % self.index == 0


class DirectionReport(Value):
    """One direction of a rational-map decision, factor by factor."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[FactorWitness, ...]):
        object.__setattr__(self, "factors", factors)

    @property
    def exists(self) -> bool:
        return all(w.has_point for w in self.factors)


class RationalMapReport(Value):
    """Outcome of a rational-map query; backward is None for one-way queries."""

    __slots__ = ("forward", "backward")

    def __init__(
        self, forward: DirectionReport, backward: DirectionReport | None = None
    ):
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)

    @property
    def holds(self) -> bool:
        if self.backward is None:
            return self.forward.exists
        return self.forward.exists and self.backward.exists


def _factor_witness(f: GSBFactor, base: GSBProduct) -> FactorWitness:
    return FactorWitness(f, *reduced_index(f.algebra, base))


def has_rational_point_over(target: GSBFactor, base: GSBProduct) -> bool:
    """True iff the reduced index of the factor's algebra divides p^k."""
    return _factor_witness(target, base).has_point


def _direction(source: GSBProduct, target: GSBProduct) -> DirectionReport:
    return DirectionReport(tuple(_factor_witness(f, source) for f in target.factors))


@reuses_reduced_index
def exists_rational_map(source: GSBProduct, target: GSBProduct) -> RationalMapReport:
    """Decide source --> target, testing each target factor over the source."""
    same_model([source.model, target.model], "source and target")
    common_degree([*source.algebras(), *target.algebras()], "index reduction")
    return RationalMapReport(forward=_direction(source, target))


@reuses_reduced_index
def equivalent(a: GSBProduct, b: GSBProduct) -> RationalMapReport:
    """Decide rational maps in both directions between the two products."""
    same_model([a.model, b.model], "products")
    common_degree([*a.algebras(), *b.algebras()], "index reduction")
    return RationalMapReport(forward=_direction(a, b), backward=_direction(b, a))


def classical_criterion(
    left: Sequence[AlgebraSpec], right: Sequence[AlgebraSpec]
) -> bool:
    """Subgroup test for mutual rational maps between classical (k=0) products.

    True iff the classes of the two families generate the same subgroup.
    """
    algebras = list(left) + list(right)
    if not algebras:
        raise PreconditionError("both families are empty")
    model = same_model([a.model for a in algebras], "families")
    lhs = subgroup_generated([a.brauer_class for a in left], model)
    rhs = subgroup_generated([a.brauer_class for a in right], model)
    return subgroups_equal(lhs, rhs)


def relation_witness(
    target: AlgebraSpec, base: GSBProduct
) -> tuple[int, ...] | None:
    """Balanced exponent relation certifying the rational point on X(p^k;target).

    Hypotheses: all base factors share one k, all algebras share one degree
    p^s, and exp(target) >= exp(D_j) for every base algebra.  If the point
    exists, returns the lexicographically smallest tuple i in [1, p^s]^n with

        sum_j vp(gcd(i_j, p^k)) = k(n-1)   and   [target] = sum_j i_j [D_j],

    otherwise None.
    """
    same_model([target.model, base.model], "target and base")
    ks = {f.k for f in base.factors}
    if len(ks) != 1:
        raise PreconditionError("all base factors must share one k")
    k = ks.pop()
    s = common_degree([target, *base.algebras()], "criterion")
    biggest = max(f.algebra.exponent for f in base.factors)
    if target.exponent < biggest:
        raise PreconditionError(
            f"exponent hypothesis fails: exp(target) = {target.exponent} is "
            f"smaller than a base exponent {biggest}"
        )
    if not has_rational_point_over(GSBFactor(target, k), base):
        return None
    row = _balanced_row(target, base.algebras(), k, s)
    if row is None:
        raise InvariantViolation(
            "rational point exists but no balanced relation was found"
        )
    return row


class MutualRelation(Value):
    """Balanced relation matrices certifying equivalence of two k-products.

    Row i of left_over_right expresses the i-th left class over the right
    family; right_over_left is the symmetric certificate.
    """

    __slots__ = ("left_over_right", "right_over_left")

    def __init__(self, left_over_right: tuple, right_over_left: tuple):
        object.__setattr__(self, "left_over_right", left_over_right)
        object.__setattr__(self, "right_over_left", right_over_left)


def mutual_relation_witness(
    left: Sequence[AlgebraSpec], right: Sequence[AlgebraSpec], k: int
) -> MutualRelation | None:
    """Search mutual balanced relations between two equal-exponent families.

    Under the hypotheses (one common degree p^s, 0 <= k < s, one exponent
    within each family) the witness exists iff there are rational maps in
    both directions between the two k-products.  Rows are lexicographically
    smallest; returns None when some class admits no balanced relation.
    """
    left = tuple(left)
    right = tuple(right)
    if not left or not right:
        raise PreconditionError("families must be nonempty")
    same_model([a.model for a in (*left, *right)], "families")
    s = common_degree([*left, *right], "criterion")
    k = _factor_k(k, left[0].degree_exponent, left[0].prime)
    for name, family in (("left", left), ("right", right)):
        exps = {a.exponent for a in family}
        if len(exps) != 1:
            raise PreconditionError(
                f"{name} family must have one exponent throughout, got "
                + ", ".join(map(str, sorted(exps)))
            )
    matrices = []
    for classes, family in ((left, right), (right, left)):
        rows = []
        for d in classes:
            row = _balanced_row(d, family, k, s)
            if row is None:
                return None
            rows.append(row)
        matrices.append(tuple(rows))
    return MutualRelation(*matrices)


def dimension(f: GSBFactor) -> int:
    """Dimension of X(p^k;D): p^k (p^s - p^k), with p^s the degree of D."""
    m = f.reduced_dim
    return m * (f.algebra.degree - m)
