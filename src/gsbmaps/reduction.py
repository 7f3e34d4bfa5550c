"""Index reduction over function fields of products of generalized
Severi-Brauer varieties.

For division algebras D, D_1, ..., D_n all of degree p^s, the index of D
over the function field of X(p^{k_1};D_1) x ... x X(p^{k_n};D_n) is

    min over (i_1,...,i_n) in [1, p^s]^n of
        prod_j p^{k_j}/gcd(i_j, p^{k_j}) * ind(D (x) D_1^{-i_1} (x) ... (x) D_n^{-i_n})

computed here by full enumeration, with the lexicographically smallest
minimizer returned as a witness.  The inputs are validated once per call;
each tuple then costs one deficiency-table lookup per factor and one combine
call, which forms its twisted class.

A decision that asks the same question many times runs inside
reuses_reduced_index: within that one call, reduced_index answers a repeated
(target, base factors) question from the first answer.  Nothing is kept once
the outermost such call returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .brauer import (
    AlgebraSpec,
    BrauerClass,
    BrauerGroupModel,
    _integer,
    combine,
    generic_index,
    same_model,
)
from .errors import InvariantViolation, PreconditionError


@dataclass(frozen=True)
class GSBFactor:
    """X(p^k; D): right ideals of reduced dimension p^k in a division algebra D.

    The constructor is the one home of the rule on k: an integer with
    0 <= k < s for D of degree p^s, otherwise PreconditionError naming k.
    Functions that take a bare k (classify_single, mutual_relation_witness)
    check it by building a GSBFactor.
    """

    algebra: AlgebraSpec
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if not 0 <= self.k < self.algebra.degree_exponent:
            raise PreconditionError(
                f"k={self.k} out of range for an algebra of degree "
                f"{self.algebra.degree} (need 0 <= k < {self.algebra.degree_exponent})"
            )

    @property
    def model(self) -> BrauerGroupModel:
        return self.algebra.model

    @property
    def prime(self) -> int:
        return self.algebra.prime

    @property
    def reduced_dim(self) -> int:
        return self.prime ** self.k

    def __str__(self) -> str:
        return f"X({self.reduced_dim};{self.algebra})"


@dataclass(frozen=True)
class GSBProduct:
    """Nonempty product of generalized Severi-Brauer factors over one model."""

    factors: tuple[GSBFactor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise PreconditionError("a product needs at least one factor")
        same_model([f.model for f in self.factors], "factors")

    @property
    def model(self) -> BrauerGroupModel:
        return self.factors[0].model

    @property
    def prime(self) -> int:
        return self.factors[0].prime

    def algebras(self) -> tuple[AlgebraSpec, ...]:
        return tuple(f.algebra for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


def common_degree(algebras: Sequence[AlgebraSpec], what: str) -> int:
    """The degree exponent shared by a nonempty list of algebras.

    Otherwise raises PreconditionError naming the first algebra and the first
    one whose degree differs from it; what names the operation that needs it.
    """
    first = algebras[0]
    for a in algebras[1:]:
        if a.degree_exponent != first.degree_exponent:
            raise PreconditionError(
                f"{what} needs one common degree: {first} has degree "
                f"{first.degree}, {a} has degree {a.degree}"
            )
    return first.degree_exponent


def _deficiency_tables(
    base: GSBProduct, entries: Iterable[int]
) -> list[dict[int, int]]:
    """Per base factor j, the map i -> p^{k_j}/gcd(i, p^{k_j}) over entries."""
    p = base.prime
    return [
        {i: pk // math.gcd(i, pk) for i in entries}
        for pk in (p**f.k for f in base.factors)
    ]


def _term(
    target: BrauerClass,
    classes: Sequence[BrauerClass],
    tables: Sequence[dict[int, int]],
    tup: tuple[int, ...],
) -> int:
    # the unchecked core of reduction_term: inputs are validated by the caller
    deficiency = 1
    terms = [(target, 1)]
    for ij, cls, table in zip(tup, classes, tables):
        deficiency *= table[ij]
        terms.append((cls, -ij))
    return deficiency * generic_index(combine(terms))


def reduction_term(target: AlgebraSpec, base: GSBProduct, i: Sequence[int]) -> int:
    """Value of one candidate twist in the index-reduction minimum.

    The tuple i selects the tensor powers D_j^{-i_j}; the result is the gcd
    deficiency factor prod_j p^{k_j}/gcd(i_j, p^{k_j}) times the model index
    of the twisted class.
    """
    same_model([target.model, base.model], "target and base")
    common_degree([target, *base.algebras()], "index reduction")
    tup = tuple(_integer(x, "tuple entry") for x in i)
    if len(tup) != len(base.factors):
        raise PreconditionError(
            f"tuple length {len(tup)} does not match {len(base.factors)} base factors"
        )
    for ij in tup:
        if ij < 1:
            raise PreconditionError(f"tuple entries must be >= 1, got {ij}")
    tables = _deficiency_tables(base, tup)
    classes = [a.brauer_class for a in base.algebras()]
    return _term(target.brauer_class, classes, tables, tup)


class ReducedIndex(NamedTuple):
    """Minimum over all twists, with the first tuple attaining it."""

    value: int
    witness: tuple[int, ...]


# The answers of the reuses_reduced_index call in progress, or None outside one.
_MEMO: ContextVar[dict | None] = ContextVar("reduced_index_memo", default=None)


def reuses_reduced_index(fn: Callable) -> Callable:
    """Run fn with one reduced_index memo for the whole call.

    A call nested in another such call shares the outer memo; the outermost
    call drops it when it returns or raises.
    """

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        token = _MEMO.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)

    return scoped


def reduced_index(target: AlgebraSpec, base: GSBProduct) -> ReducedIndex:
    """Index of target over the function field of base.

    Requires target and every base algebra to share one degree p^s.  The
    minimum ranges over all tuples in [1, p^s]^n; the witness is the
    lexicographically smallest minimizer, so results are deterministic.
    Inside reuses_reduced_index a question already answered in the same call
    is not enumerated again; a call that raised leaves nothing behind.
    """
    memo = _MEMO.get()
    if memo is None:
        return _enumerate(target, base)
    key = (target, base.factors)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _enumerate(target, base)
    return result


def _enumerate(target: AlgebraSpec, base: GSBProduct) -> ReducedIndex:
    same_model([target.model, base.model], "target and base")
    s = common_degree([target, *base.algebras()], "index reduction")
    entries = range(1, base.prime**s + 1)
    target_class = target.brauer_class
    classes = [a.brauer_class for a in base.algebras()]
    tables = _deficiency_tables(base, entries)
    best: int | None = None
    best_tuple: tuple[int, ...] = ()
    for tup in itertools.product(entries, repeat=len(classes)):
        value = _term(target_class, classes, tables, tup)
        if best is None or value < best:
            best, best_tuple = value, tup
    if best is None:
        raise InvariantViolation("index reduction enumerated no tuples")
    return ReducedIndex(best, best_tuple)
