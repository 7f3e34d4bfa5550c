"""Finite abelian p-group model of p-primary Brauer classes.

A model fixes a prime p together with finitely many generator orders, each
a power of p.  A class is an exponent vector over those generators, always
stored reduced into [0, order).  The exponent of a class (its order in the
group) is determined by the group structure; its index follows the
independent-generator rule of generic_index.  Everything is immutable and
pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from math import gcd
from operator import add, mod

from ._value import Value
from .errors import ModelMismatchError, PreconditionError

# With the first 13 primes as bases, Miller-Rabin decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise PreconditionError(
            f"cannot decide whether {n} is prime: primality is decided exactly "
            f"only below {_MILLER_RABIN_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer(value: object, what: str) -> int:
    """value as an int, or PreconditionError naming it; floats are refused,
    not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None


def vp(n: int, p: int) -> int:
    """p-adic valuation of a positive integer: the largest e with p^e | n."""
    n = _integer(n, "vp argument")
    p = _integer(p, "vp base")
    if p < 2:
        raise PreconditionError(f"vp needs a base >= 2, got {p}")
    if n < 1:
        raise PreconditionError(f"vp needs a positive integer, got {n}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _p_power_exponent(n: int, p: int) -> int | None:
    """e with n == p**e, or None if n is not a power of p."""
    if n < 1:
        return None
    e = vp(n, p)
    return e if n == p**e else None


class BrauerGroupModel(Value):
    """The subgroup of a Brauer group under study, given by generator orders.

    All orders are powers of one prime and strictly greater than 1.
    """

    __slots__ = ("prime", "generator_orders")

    def __init__(self, prime: int, generator_orders: tuple[int, ...]):
        object.__setattr__(self, "prime", _integer(prime, "model prime"))
        orders = tuple(_integer(o, "generator order") for o in generator_orders)
        object.__setattr__(self, "generator_orders", orders)
        if not _is_prime(self.prime):
            raise PreconditionError(f"model prime must be a prime number, got {self.prime}")
        if not self.generator_orders:
            raise PreconditionError("model must have at least one generator")
        for o in self.generator_orders:
            if o <= 1 or _p_power_exponent(o, self.prime) is None:
                raise PreconditionError(
                    f"generator order {o} is not a power of {self.prime} greater than 1"
                )

    @property
    def rank(self) -> int:
        return len(self.generator_orders)

    @property
    def order(self) -> int:
        n = 1
        for o in self.generator_orders:
            n *= o
        return n

    def zero(self) -> BrauerClass:
        return BrauerClass._reduced(self, (0,) * self.rank)

    def element(self, exponents: Sequence[int]) -> BrauerClass:
        return BrauerClass(self, tuple(exponents))

    def elements(self) -> Iterator[BrauerClass]:
        """All classes of the model, in lexicographic order of exponents."""
        for exps in itertools.product(*(range(o) for o in self.generator_orders)):
            yield BrauerClass._reduced(self, exps)

    def __str__(self) -> str:
        return " x ".join(f"Z/{o}" for o in self.generator_orders)


class BrauerClass(Value):
    """An element of a BrauerGroupModel, as a canonical reduced exponent vector.

    The constructor validates and reduces its exponents.  The operators +, -
    and * are combine, which builds its result through _reduced, the one
    trusted constructor, doing neither.
    """

    __slots__ = ("group", "exponents")

    def __init__(self, group: BrauerGroupModel, exponents: tuple[int, ...]):
        orders = group.generator_orders
        exps = tuple(_integer(e, "exponent") for e in exponents)
        if len(exps) != len(orders):
            raise PreconditionError(
                f"expected {len(orders)} exponents, got {len(exps)}"
            )
        reduced = tuple(e % o for e, o in zip(exps, orders))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", reduced)

    @staticmethod
    def _reduced(group: BrauerGroupModel, exponents: tuple[int, ...]) -> BrauerClass:
        # exponents must be a tuple of ints already in [0, order) for group;
        # the slots of the frozen instance are written through their
        # descriptors (bound below the class), past Value.__setattr__
        obj = _new_object(BrauerClass)
        _set_group(obj, group)
        _set_exponents(obj, exponents)
        return obj

    # written out for speed; equal classes have equal exponents, so the
    # hash leaves the model out
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.exponents, self.group) == (other.exponents, other.group)

    def __hash__(self) -> int:
        return hash(self.exponents)

    @property
    def is_zero(self) -> bool:
        return not any(self.exponents)

    def __add__(self, other: BrauerClass) -> BrauerClass:
        if not isinstance(other, BrauerClass):
            return NotImplemented
        return combine([(self, 1), (other, 1)])

    def __neg__(self) -> BrauerClass:
        return combine([(self, -1)])

    def __sub__(self, other: BrauerClass) -> BrauerClass:
        if not isinstance(other, BrauerClass):
            return NotImplemented
        return combine([(self, 1), (other, -1)])

    def __mul__(self, n: int) -> BrauerClass:
        # integer multiple of the class, i.e. the class of the n-th tensor power
        if not isinstance(n, int):
            return NotImplemented
        return combine([(self, n)])

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.exponents)) + ")"


_new_object = object.__new__
_set_group = BrauerClass.group.__set__
_set_exponents = BrauerClass.exponents.__set__


def same_model(models: Iterable[BrauerGroupModel], what: str) -> BrauerGroupModel:
    """The one model shared by all of models, compared with is before ==.

    Everything combined in this package lives in one model; this is the only
    place that rule is checked.  A second model raises ModelMismatchError
    naming both, with what naming the operands ("families", "subgroups").
    """
    models = iter(models)
    first = next(models, None)
    if first is None:
        raise PreconditionError(f"{what}: none given")
    for other in models:
        if other is not first and other != first:
            raise ModelMismatchError(
                f"{what} use different group models: {first} and {other}"
            )
    return first


def combine(terms: Sequence[tuple[BrauerClass, int]]) -> BrauerClass:
    """Integer combination sum_j c_j * class_j, reduced into the model.

    Realizes tensor expressions such as D (x) D_1^{-i_1} (x) ... (x) D_n^{-i_n}
    as a single class; the class operators +, - and * are calls to it.
    Coefficients may be negative or oversized, but must be integers.  All
    classes must share one model: a term whose model is not identical to the
    first term's goes through same_model.

    A sum of two terms, both with the exact int coefficient 1 and the second
    term's model the first's, is added and reduced by map over the exponent
    vectors; that is each step of the index-reduction walk.  Every other
    call takes the general path, which checks each term in turn, its model
    and then its coefficient, so a call makes the same checks in the same
    order whichever path it takes.
    """
    if len(terms) == 2:
        (cls, a), (other, b) = terms
        group = cls.group
        if (
            a.__class__ is int
            and b.__class__ is int
            and a == b == 1
            and other.group is group
        ):
            return BrauerClass._reduced(
                group,
                tuple(
                    map(
                        mod,
                        map(add, cls.exponents, other.exponents),
                        group.generator_orders,
                    )
                ),
            )
    if not terms:
        raise PreconditionError("combine needs at least one term")
    group = terms[0][0].group
    total = [0] * group.rank
    for cls, coeff in terms:
        if cls.group is not group:
            same_model([group, cls.group], "combine terms")
        coeff = _integer(coeff, "combine coefficient")
        total = [t + coeff * e for t, e in zip(total, cls.exponents)]
    return BrauerClass._reduced(
        group, tuple([t % o for t, o in zip(total, group.generator_orders)])
    )


def class_exponent(c: BrauerClass) -> int:
    """Order of the class in its model, always a power of the model prime."""
    result = 1
    for e, o in zip(c.exponents, c.group.generator_orders):
        result = math.lcm(result, o // math.gcd(e, o))
    return result


def generic_index(c: BrauerClass) -> int:
    """Index of the division algebra in the class c.

    Generators model division algebras with no relations between their
    underlying algebras beyond the group structure, so the index of a
    combination is the product of the component orders.
    """
    return _index(c.exponents, c.group.generator_orders)


def _index(exponents: Iterable[int], orders: tuple[int, ...]) -> int:
    """generic_index of the exponent vector, which need not be reduced:
    gcd(e, o) depends only on e mod o."""
    result = 1
    for e, o in zip(exponents, orders):
        result *= o // gcd(e, o)
    return result


class AlgebraSpec(Value, compare=("brauer_class",)):
    """The division algebra in a Brauer class.

    Its degree is the model index of the class, p**degree_exponent, worked
    out once here.  The label is display-only and ignored by equality.
    """

    __slots__ = ("brauer_class", "label", "degree_exponent")

    def __init__(self, brauer_class: BrauerClass, label: str | None = None):
        object.__setattr__(self, "brauer_class", brauer_class)
        object.__setattr__(self, "label", label)
        exponent = vp(generic_index(brauer_class), brauer_class.group.prime)
        object.__setattr__(self, "degree_exponent", exponent)

    @classmethod
    def _trusted(
        cls, brauer_class: BrauerClass, label: str | None, degree_exponent: int
    ) -> AlgebraSpec:
        # degree_exponent must be vp of the model index of brauer_class; the
        # slots are written directly
        obj = object.__new__(cls)
        object.__setattr__(obj, "brauer_class", brauer_class)
        object.__setattr__(obj, "label", label)
        object.__setattr__(obj, "degree_exponent", degree_exponent)
        return obj

    def __reduce__(self) -> tuple:
        return AlgebraSpec, (self.brauer_class, self.label)

    @property
    def model(self) -> BrauerGroupModel:
        return self.brauer_class.group

    @property
    def prime(self) -> int:
        return self.brauer_class.group.prime

    @property
    def degree(self) -> int:
        return self.prime ** self.degree_exponent

    @property
    def index(self) -> int:
        return self.degree

    @property
    def exponent(self) -> int:
        return class_exponent(self.brauer_class)

    def __str__(self) -> str:
        return self.label if self.label is not None else str(self.brauer_class)


def division_algebra(c: BrauerClass, label: str | None = None) -> AlgebraSpec:
    """The division algebra of class c, with degree equal to its model index."""
    return AlgebraSpec(c, label)


def _coset(
    start: tuple[int, ...],
    generators: Iterable[tuple[int, ...]],
    orders: tuple[int, ...],
) -> Iterator[list[tuple[int, ...]]]:
    """Exponent vectors of the coset start + H, H the subgroup the
    generators span, in lists: [start], then each new translate as it is
    added.

    The coset C grows one generator g at a time, by the translates C + g,
    C + 2g, ... up to the first m with start + m*g already in C, so each
    element costs one addition; a generator already in H costs one addition
    and one lookup.  The elements are kept with start first, so the first
    entry of each translate is start + m*g.
    """
    coset, elements = {start}, [start]
    yield [start]
    for g in generators:
        layer = elements
        while True:
            head = tuple(map(mod, map(add, layer[0], g), orders))
            if head in coset:
                break
            layer = [head] + [
                tuple(map(mod, map(add, x, g), orders)) for x in layer[1:]
            ]
            coset.update(layer)
            elements += layer
            yield layer


class Subgroup(Value):
    """The least subgroup of a model that contains the given classes.

    Any classes may be given: the subgroup is their span, so closure holds
    by construction and nothing is rejected but a class of another model.
    Building it costs one span (see _coset), one addition per element, and
    a subgroup's own elements span it again, so a copy is the same value.
    The elements are kept sorted by exponent vector.
    """

    __slots__ = ("group", "elements")

    def __init__(self, group: BrauerGroupModel, elements: Iterable[BrauerClass]):
        elements = tuple(elements)
        same_model([group, *(a.group for a in elements)], "subgroup elements")
        orders = group.generator_orders
        span = sorted(
            itertools.chain.from_iterable(
                _coset((0,) * len(orders), [a.exponents for a in elements], orders)
            )
        )
        object.__setattr__(self, "group", group)
        object.__setattr__(
            self, "elements", tuple([BrauerClass._reduced(group, e) for e in span])
        )

    def __contains__(self, c: object) -> bool:
        return c in self.elements

    def __iter__(self) -> Iterator[BrauerClass]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def subgroup_generated(
    classes: Sequence[BrauerClass], model: BrauerGroupModel | None = None
) -> Subgroup:
    """Closure of the given classes under addition: Subgroup(model, classes).

    The model argument is only needed for an empty generating set.
    """
    if model is None:
        if not classes:
            raise PreconditionError("empty generating set needs an explicit model")
        model = classes[0].group
    return Subgroup(model, classes)


def subgroups_equal(a: Subgroup, b: Subgroup) -> bool:
    """True iff the two canonical element sets coincide."""
    same_model([a.group, b.group], "subgroups")
    return a.elements == b.elements
