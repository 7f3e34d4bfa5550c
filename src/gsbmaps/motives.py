"""Upper direct summands of motives of products of generalized Severi-Brauer
varieties, named canonically and compared through the rational-map decision.

Descriptors are pure names: no Chow groups or projectors are built, because
two upper summands are isomorphic exactly when there are rational maps in
both directions between the underlying products.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from enum import Enum

from ._value import Value
from .brauer import AlgebraSpec, same_model
from .errors import PreconditionError
from .maps import classical_criterion, equivalent
from .reduction import (
    GSBFactor,
    GSBProduct,
    _factor_k,
    common_degree,
    reuses_reduced_index,
)


def _factor_key(f: GSBFactor) -> tuple[int, int, tuple[int, ...]]:
    return (f.k, f.algebra.degree_exponent, f.algebra.brauer_class.exponents)


class UpperMotiveDescriptor(Value):
    """Canonical name of the upper summand of the motive of a product.

    Factors are sorted so equal products get equal names; all semantics go
    through the rational-map decision, never through the name itself.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[GSBFactor, ...]):
        factors = tuple(sorted(factors, key=_factor_key))
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise PreconditionError("a motive descriptor needs at least one factor")
        same_model([f.model for f in factors], "descriptor factors")

    def product(self) -> GSBProduct:
        return GSBProduct(self.factors)

    def __str__(self) -> str:
        ks = ",".join(str(f.k) for f in self.factors)
        names = ",".join(str(f.algebra) for f in self.factors)
        return "M^{%s}_{%s}" % (ks, names)


def upper_motive(x: GSBProduct) -> UpperMotiveDescriptor:
    """Canonical descriptor of the upper summand of the motive of x."""
    return UpperMotiveDescriptor(x.factors)


def motives_isomorphic(a: UpperMotiveDescriptor, b: UpperMotiveDescriptor) -> bool:
    """True iff there are rational maps both ways between the two products."""
    return equivalent(a.product(), b.product()).holds


def classify_single(d: AlgebraSpec, k: int, d2: AlgebraSpec, k2: int) -> bool:
    """Single-factor fast path: equal k and equal generated cyclic subgroups.

    Must agree with motives_isomorphic on the corresponding descriptors.
    """
    k = _factor_k(k, d.degree_exponent, d.prime)
    k2 = _factor_k(k2, d2.degree_exponent, d2.prime)
    same_model([d.model, d2.model], "algebras")
    return k == k2 and classical_criterion([d], [d2])


class FamilyVerdict(Enum):
    EQUAL = "EQUAL"
    TATE_ONLY = "TATE_ONLY"
    PARTIAL = "PARTIAL"


class FamilyComparison(Value):
    """Outcome of matching two families' upper-motive sets against each other."""

    __slots__ = ("shared", "unmatched_left", "unmatched_right")

    def __init__(
        self,
        shared: tuple[tuple[UpperMotiveDescriptor, UpperMotiveDescriptor], ...],
        unmatched_left: tuple[UpperMotiveDescriptor, ...],
        unmatched_right: tuple[UpperMotiveDescriptor, ...],
    ):
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "unmatched_left", unmatched_left)
        object.__setattr__(self, "unmatched_right", unmatched_right)

    @property
    def verdict(self) -> FamilyVerdict:
        if not self.shared:
            return FamilyVerdict.TATE_ONLY
        if self.unmatched_left or self.unmatched_right:
            return FamilyVerdict.PARTIAL
        return FamilyVerdict.EQUAL

    @property
    def separating(self) -> UpperMotiveDescriptor | None:
        if self.unmatched_left:
            return self.unmatched_left[0]
        if self.unmatched_right:
            return self.unmatched_right[0]
        return None


def _descriptor_key(d: UpperMotiveDescriptor):
    return (len(d.factors), tuple(_factor_key(f) for f in d.factors))


def family_motives(
    algebras: Sequence[AlgebraSpec],
) -> tuple[UpperMotiveDescriptor, ...]:
    """All upper motives the family contributes: one descriptor per nonempty
    sub-product and admissible k-tuple, deduplicated and canonically sorted."""
    algebras = tuple(algebras)
    if not algebras:
        raise PreconditionError("a family needs at least one algebra")
    same_model([a.model for a in algebras], "family algebras")
    # each X(p^k;D_j) once, one list per algebra, shared by every subset
    choices = [[GSBFactor(a, k) for k in range(a.degree_exponent)] for a in algebras]
    found = set()
    for size in range(1, len(choices) + 1):
        for subset in itertools.combinations(choices, size):
            for factors in itertools.product(*subset):
                found.add(UpperMotiveDescriptor(factors))
    return tuple(sorted(found, key=_descriptor_key))


def _pair_isomorphic(a: UpperMotiveDescriptor, b: UpperMotiveDescriptor) -> bool:
    # Single-factor pairs go through the subgroup fast path, which also covers
    # unequal degrees; everything else uses the full rational-map decision.
    if len(a.factors) == 1 and len(b.factors) == 1:
        fa, fb = a.factors[0], b.factors[0]
        return classify_single(fa.algebra, fa.k, fb.algebra, fb.k)
    return motives_isomorphic(a, b)


@reuses_reduced_index
def compare_families(
    left: Sequence[AlgebraSpec], right: Sequence[AlgebraSpec]
) -> FamilyComparison:
    """Match the upper-motive sets of two families of division algebras.

    EQUAL means every motive on either side has an isomorphic partner,
    TATE_ONLY means no pair is isomorphic, PARTIAL means some but not all,
    with the unmatched descriptors reported as separating witnesses.

    Both families must share one model, and a family of two or more
    algebras has multi-factor motives, which compare through index reduction
    and so need one common degree on both sides; both are checked here, in
    that order, before any descriptor is built.  Two single algebras of
    different degrees compare through the subgroup fast path.
    """
    same_model([a.model for a in (*left, *right)], "families")
    if len(left) > 1 or len(right) > 1:
        common_degree([*left, *right], "comparing families of two or more algebras")
    l_motives = family_motives(left)
    r_motives = family_motives(right)
    shared = []
    matched_left = set()
    matched_right = set()
    for a in l_motives:
        for b in r_motives:
            if _pair_isomorphic(a, b):
                shared.append((a, b))
                matched_left.add(a)
                matched_right.add(b)
    return FamilyComparison(
        tuple(shared),
        tuple(d for d in l_motives if d not in matched_left),
        tuple(d for d in r_motives if d not in matched_right),
    )
