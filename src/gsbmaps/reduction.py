"""Index reduction over function fields of products of generalized
Severi-Brauer varieties.

For division algebras D, D_1, ..., D_n all of degree p^s, the index of D
over the function field of X(p^{k_1};D_1) x ... x X(p^{k_n};D_n) is

    min over (i_1,...,i_n) in [1, p^s]^n of
        prod_j p^{k_j}/gcd(i_j, p^{k_j}) * ind(D (x) D_1^{-i_1} (x) ... (x) D_n^{-i_n})

computed here by enumeration in lex order, with the lexicographically
smallest minimizer returned as a witness.  The inputs are validated once per
call, and the base is read once into (exponent vector, k) pairs; the memo
key, the coset floor and the walk read those pairs, never the value objects.
One walk, _twists, yields every tuple with its deficiency and twisted
class.  Each twisted class is the previous one plus one step: raising i_r by
one wraps every later entry from p^s back to 1, and p^s*[D_j] = 0 (the
exponent of D_j divides its index p^s), so the class moves by the step
class -([D_r] + ... + [D_n]).  The n step classes are summed once per call
from the raw exponent vectors, with no combine call.  A deficiency table
depends only on (p, k, s), so it is built once per process and kept in a
small bounded cache shared by all calls.

The balanced relations of maps share that walk, and their search,
_balanced_row, sits beside it.  A row i in [1, p^s]^m with
sum_j vp(gcd(i_j, p^k)) = k(m-1) and [D] = sum_j i_j [D_j] is exactly a
twist of D over X(p^k;D_1) x ... x X(p^k;D_m) whose deficiency
p^(km - sum_j vp(gcd(i_j, p^k))) is p^(km - k(m-1)) = p^k and whose twisted
class is zero.

Every twisted class lies in the coset [D] + H, H = <[D_1], ..., [D_n]>, and
every deficiency is at least 1, so no tuple scores below the coset floor
min{ind(x) : x in [D] + H}.  The floor is found once per call in one pass
over the coset: brauer._coset grows [D] + H itself over raw exponent
vectors, |H| <= min(|G|, prod exp D_j) <= (p^s)^n additions and no combine
call, and each element is scored as it is added.  Index 1 is the least any
class has, so the pass stops at the first element of index 1, the zero
class, which the coset holds exactly when [D] lies in H.  The scan stops at
the first tuple that reaches the floor; that tuple is still the first
minimizer.

A question thus costs a fixed part and a part per tuple scanned.  The fixed
part is the floor pass and the n step classes (the deficiency tables come
from the cache).  Each tuple costs one combine call of two terms, the class
and its step, one deficiency product over the tables, and the model index of
the class only when the deficiency alone is below the best value so far.

A decision that asks the same question many times runs inside
reuses_reduced_index: within that one call, reduced_index answers a repeated
(target, base factors) question from the first answer.  Nothing is kept once
the outermost such call returns.  A bare reduced_index call opens no scope:
it enumerates and keeps nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from contextvars import ContextVar
from operator import getitem, mod, sub

from ._value import Value
from .brauer import (
    AlgebraSpec,
    BrauerClass,
    BrauerGroupModel,
    _coset,
    _index,
    _integer,
    combine,
    generic_index,
    same_model,
)
from .errors import InvariantViolation, PreconditionError


def _factor_k(k: object, degree_exponent: int, prime: int) -> int:
    """k as an integer with 0 <= k < s for an algebra of degree prime**s, s
    the degree_exponent, else PreconditionError naming k.  The one home of
    the rule on k: GSBFactor checks it, and so do classify_single and
    mutual_relation_witness for their bare k and the instance loader, which
    knows a named variety's degree exponents without building specs.
    """
    k = _integer(k, "k")
    if not 0 <= k < degree_exponent:
        raise PreconditionError(
            f"k={k} out of range for an algebra of degree {prime**degree_exponent} "
            f"(need 0 <= k < {degree_exponent})"
        )
    return k


class GSBFactor(Value):
    """X(p^k; D): right ideals of reduced dimension p^k in a division algebra D.

    The constructor checks k with _factor_k; a bare k is checked by
    _factor_k directly.
    """

    __slots__ = ("algebra", "k")

    def __init__(self, algebra: AlgebraSpec, k: int):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(
            self, "k", _factor_k(k, algebra.degree_exponent, algebra.prime)
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


class GSBProduct(Value):
    """Nonempty product of generalized Severi-Brauer factors over one model."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[GSBFactor, ...]):
        object.__setattr__(self, "factors", tuple(factors))
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
    deficiency = 1
    terms = [(target.brauer_class, 1)]
    for ij, f in zip(tup, base.factors):
        if ij < 1:
            raise PreconditionError(f"tuple entries must be >= 1, got {ij}")
        pk = base.prime**f.k
        deficiency *= pk // math.gcd(ij, pk)
        terms.append((f.algebra.brauer_class, -ij))
    return deficiency * generic_index(combine(terms))


ReducedIndex = namedtuple("ReducedIndex", ("value", "witness"))
ReducedIndex.__doc__ = "Minimum over all twists, with the first tuple attaining it."


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
    A question already answered in the same reuses_reduced_index call is not
    enumerated again; a bare call opens no scope and keeps nothing, and a
    call that raised leaves nothing behind.
    """
    pairs = tuple([(f.algebra.brauer_class.exponents, f.k) for f in base.factors])
    memo = _MEMO.get()
    if memo is None:
        return _enumerate(target, base, pairs)
    # Equal keys are equal questions: the generator orders fix the model,
    # each order being a power of its prime greater than 1.  Plain int
    # tuples hash without a call into Value.__hash__.
    target_class = target.brauer_class
    key = (target_class.group.generator_orders, target_class.exponents, pairs)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _enumerate(target, base, pairs)
    return result


@functools.lru_cache(maxsize=64)
def _deficiency_table(p: int, k: int, s: int) -> tuple[int, ...]:
    """p^k/gcd(i, p^k) for the entries i in [0, p^s] (index 0 is never
    read), built from one period: the entries repeat with period p^k, which
    divides p^s.  Kept per process for the last 64 (p, k, s) asked."""
    pk = p**k
    row = [pk // math.gcd(i, pk) for i in range(pk)]
    return tuple(row * (p ** (s - k)) + row[:1])


def _twists(
    start: BrauerClass, pairs: Sequence[tuple[tuple[int, ...], int]], s: int
) -> Iterator[tuple]:
    """Every twist of the class start over the base read as (exponent
    vector, k) pairs, in lex order, as (tuple, deficiency, twisted class);
    the caller has checked the model and the degree p^s."""
    group = start.group
    p, orders = group.prime, group.generator_orders
    # deficiencies[j][i] = p^{k_j}/gcd(i, p^{k_j}) for the entries i in [1, p^s].
    # A tuple whose entry r is not 1 and whose later entries are all 1
    # follows the one before it by raising entry r and wrapping the later
    # entries from p^s back to 1; p^s*[D_j] = 0, so the class moves by the
    # step class -([D_r] + ... + [D_n]) (module docstring), summed from the
    # back over the raw exponent vectors and kept as the combine term
    # steps[r].  The first tuple is the same step at r = 0.
    deficiencies, steps = [], []
    step = (0,) * len(orders)
    for exps, k in reversed(pairs):
        deficiencies.append(_deficiency_table(p, k, s))
        step = tuple(map(mod, map(sub, step, exps), orders))
        steps.append((BrauerClass._reduced(group, step), 1))
    deficiencies.reverse()
    steps.reverse()
    n = len(steps)
    cls = start
    for tup in itertools.product(range(1, p**s + 1), repeat=n):
        r = n - 1
        while r and tup[r] == 1:
            r -= 1
        cls = combine([(cls, 1), steps[r]])
        yield tup, math.prod(map(getitem, deficiencies, tup)), cls


def _balanced_row(
    d: AlgebraSpec, family: Sequence[AlgebraSpec], k: int, s: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest balanced relation of d over the algebras
    of family, or None: the first twist of the walk with deficiency p^k and
    twisted class zero (module docstring).  The caller has checked the
    model, the degree p^s and k."""
    pk = d.prime**k
    pairs = [(a.brauer_class.exponents, k) for a in family]
    for i, deficiency, cls in _twists(d.brauer_class, pairs, s):
        if deficiency == pk and cls.is_zero:
            return i
    return None


def _coset_floor(
    start: tuple[int, ...],
    generators: Sequence[tuple[int, ...]],
    orders: tuple[int, ...],
) -> int:
    """The least index on the coset start + H, H spanned by the generators.

    Each element is scored as brauer._coset adds it, in one pass; index 1 is
    the least any class has, so the first element reaching it ends the pass.
    """
    floor = math.inf
    for layer in _coset(start, generators, orders):
        for x in layer:
            index = _index(x, orders)
            if index < floor:
                if index == 1:
                    return 1
                floor = index
    return floor


def _enumerate(target: AlgebraSpec, base: GSBProduct, pairs: tuple) -> ReducedIndex:
    same_model([target.model, base.model], "target and base")
    s = common_degree([target, *base.algebras()], "index reduction")
    # No tuple scores below the coset floor (module docstring), so the scan
    # stops at the first tuple that reaches it.
    start = target.brauer_class
    orders = start.group.generator_orders
    floor = _coset_floor(start.exponents, [exps for exps, _ in pairs], orders)
    best, best_tuple = math.inf, ()
    for tup, deficiency, cls in _twists(start, pairs, s):
        # the index is at least 1, so only a deficiency below best can win
        if deficiency < best:
            value = deficiency * _index(cls.exponents, orders)
            if value < best:
                best, best_tuple = value, tup
                if best == floor:
                    break
    if not best_tuple:
        raise InvariantViolation("index reduction enumerated no tuples")
    return ReducedIndex(best, best_tuple)
