"""JSON instance files and the variety-expression grammar.

Instance schema::

    {
      "prime": 2,
      "generators": [{"name": "g1", "order": 4}, {"name": "g2", "order": 2}],
      "algebras": {"D1": {"class": {"g1": 1}, "degree": 4}, ...},
      "aliases": {"Delta1": "D1"},                    # optional
      "varieties": {"left": "X(2;D1) x X(2;D2)"}      # optional
    }

Generators omitted from a class map default to exponent 0.  Declared degrees
must match the model index of the class (division algebras only); violations
are load-time errors naming the offending field.

A load is one pass of checks that builds no algebra, factor or product.  It
keeps one recipe per name and per named variety.  A name's recipe is the name,
its reduced exponent vector and its class's model index (worked out once per
distinct class); an alias keeps its target's recipe.  A variety's recipe is
its (name, k) pairs, scanned and range-checked against those indices.  A
value is built from its recipe on the first lookup of any key with that
recipe: an AlgebraSpec (names of one class share one BrauerClass, and an
alias gets its target's object) or a GSBProduct of the specs it names.

Expression grammar::

    product := factor ("x" factor)*
    factor  := "X(" integer ";" name ")"

where the integer is the reduced dimension p^k (not k itself).
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping

from . import brauer
from ._value import Record
from .brauer import AlgebraSpec, BrauerClass, BrauerGroupModel, _p_power_exponent, vp
from .errors import InstanceFormatError, PreconditionError
from .reduction import GSBFactor, GSBProduct, _factor_k

_FORBIDDEN_NAME_CHARS = set("();,")


def _check_name(name: object, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise InstanceFormatError(f"{what}: name must be a nonempty string")
    if name != name.strip():
        raise InstanceFormatError(
            f"{what}: name {name!r} has leading or trailing whitespace"
        )
    if not _FORBIDDEN_NAME_CHARS.isdisjoint(name):
        bad = sorted(_FORBIDDEN_NAME_CHARS.intersection(name))
        raise InstanceFormatError(
            f"{what}: name {name!r} contains forbidden characters {bad}"
        )
    return name


class _Lazy(Mapping):
    """A read-only mapping of a loaded instance: each key has a hashable
    recipe, in document order, and resolves to make(recipe), built on the
    first lookup of any key with that recipe (see the module docstring)."""

    __slots__ = ("_recipes", "_make", "_made")

    def __init__(self, recipes: dict[str, Hashable], make: Callable):
        self._recipes = recipes
        self._make = make
        self._made: dict = {}  # recipe -> the value built from it

    def __getitem__(self, key: str) -> object:
        recipe = self._recipes[key]
        value = self._made.get(recipe)
        if value is None:
            value = self._made[recipe] = self._make(recipe)
        return value

    def __contains__(self, key: object) -> bool:
        return key in self._recipes

    def __iter__(self) -> Iterator[str]:
        return iter(self._recipes)

    def __len__(self) -> int:
        return len(self._recipes)

    def __repr__(self) -> str:
        return repr(dict(self))


def _spec(model: BrauerGroupModel, classes: dict, recipe: tuple) -> AlgebraSpec:
    """The AlgebraSpec of an algebra recipe (name, reduced exponent vector,
    model index); names of one class share the BrauerClass that classes keeps
    for their exponent vector."""
    name, key, index = recipe
    cls = classes.get(key)
    if cls is None:
        cls = classes[key] = BrauerClass._reduced(model, key)
    return AlgebraSpec._trusted(cls, name, vp(index, model.prime))


class Instance(Record):
    """A loaded instance: the group model plus named algebras and varieties.

    algebras maps every algebra name and every alias to its AlgebraSpec, and
    varieties maps names to GSBProducts: dicts, or for a loaded instance
    read-only mappings from each key to a recipe, whose value is built on
    its first lookup.
    """

    __slots__ = ("model", "algebras", "varieties")

    def __init__(
        self,
        model: BrauerGroupModel,
        algebras: Mapping[str, AlgebraSpec],
        varieties: Mapping[str, GSBProduct] | None = None,
    ):
        self.model = model
        self.algebras = algebras
        self.varieties = {} if varieties is None else varieties

    def algebra(self, name: str) -> AlgebraSpec:
        """Resolve an algebra by name or alias; surrounding whitespace is
        ignored, as no loaded name has any."""
        return self.algebras[_known(self.algebras, name.strip())]

    def algebra_list(self, names: str) -> list[AlgebraSpec]:
        """Resolve a comma-separated list of algebra names."""
        parts = [part.strip() for part in names.split(",")]
        if not any(parts):
            raise InstanceFormatError("empty algebra list")
        if not all(parts):
            raise InstanceFormatError(f"empty entry in algebra list {names!r}")
        return [self.algebra(part) for part in parts]

    def product(self, text: str) -> GSBProduct:
        """A named variety if the text, stripped, names one, else a parsed
        expression."""
        name = text.strip()
        if name in self.varieties:
            return self.varieties[name]
        return parse_variety_expression(text, self)


# the JSON names of the Python types a decoded document holds
_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _json_type(kind: type) -> str:
    return _JSON_TYPES.get(kind, kind.__name__)


def _is_json(value: object, kind: type) -> bool:
    """Whether a decoded value is of the JSON type kind: a bool is no integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _expect(doc: Mapping[str, object], key: str, kind: type, what: str) -> object:
    if key not in doc:
        raise InstanceFormatError(f"{what}: missing required key {key!r}")
    value = doc[key]
    if not _is_json(value, kind):
        raise InstanceFormatError(
            f"{what}: {key!r} must be {_json_type(kind)}, "
            f"got {_json_type(type(value))}"
        )
    return value


def load_instance(doc: object, source: str = "<instance>") -> Instance:
    """Validate a decoded JSON document into an Instance."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{source}: top level must be a JSON object")
    prime = _expect(doc, "prime", int, source)
    generators = _expect(doc, "generators", list, source)
    if not generators:
        raise InstanceFormatError(f"{source}: 'generators' must be nonempty")
    positions: dict[str, int] = {}
    orders: list[int] = []
    for pos, entry in enumerate(generators):
        what = f"{source}: generator #{pos + 1}"
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"{what}: must be an object")
        name = _check_name(entry.get("name"), what)
        if name in positions:
            raise InstanceFormatError(f"{what}: duplicate generator name {name!r}")
        order = entry.get("order")
        if not _is_json(order, int):
            raise InstanceFormatError(f"{what} ({name!r}): 'order' must be an integer")
        positions[name] = pos
        orders.append(order)
    try:
        model = BrauerGroupModel(prime, tuple(orders))
    except PreconditionError as exc:
        raise InstanceFormatError(f"{source}: {exc}") from exc

    algebras_doc = _expect(doc, "algebras", dict, source)
    # name -> (name, reduced exponent vector, model index); an alias gets
    # its target's recipe, so it resolves to the target's spec
    recipes: dict[str, tuple[str, tuple[int, ...], int]] = {}
    indices: dict[tuple[int, ...], int] = {}
    rank = len(orders)
    # A name or a value that passes a plain test below satisfies its rule:
    # an alphanumeric string is a name, an exact int is an integer.  Anything
    # else goes to the helper that owns the rule, which decides and formats
    # the message, so each rule keeps one home.
    for name, spec in algebras_doc.items():
        if not (isinstance(name, str) and name.isalnum()):
            _check_name(name, f"{source}: algebra {name!r}")
        if not isinstance(spec, dict):
            raise InstanceFormatError(f"{source}: algebra {name!r}: must be an object")
        class_map = spec.get("class")
        if not isinstance(class_map, dict):
            class_map = _expect(spec, "class", dict, f"{source}: algebra {name!r}")
        exponents = [0] * rank
        for gen, value in class_map.items():
            pos = positions.get(gen)
            if pos is None:
                raise InstanceFormatError(
                    f"{source}: algebra {name!r}: unknown generator {gen!r}"
                )
            if not _is_json(value, int):
                raise InstanceFormatError(
                    f"{source}: algebra {name!r}: exponent of {gen!r} must be an "
                    "integer"
                )
            exponents[pos] = value % orders[pos]
        degree = spec.get("degree")
        if type(degree) is not int:
            degree = _expect(spec, "degree", int, f"{source}: algebra {name!r}")
        key = tuple(exponents)
        index = indices.get(key)
        if index is None:
            index = indices[key] = brauer._index(key, model.generator_orders)
        if index != degree:
            if _p_power_exponent(degree, prime) is None:
                raise InstanceFormatError(
                    f"{source}: algebra {name!r}: degree {degree} is not a power "
                    f"of the prime {prime}"
                )
            raise InstanceFormatError(
                f"{source}: algebra {name}: not a division algebra of the declared "
                f"degree (model index {index}, declared degree {degree})"
            )
        recipes[name] = (name, key, index)

    if "aliases" in doc:
        aliases_doc = _expect(doc, "aliases", dict, source)
        for alias, target in aliases_doc.items():
            what = f"{source}: alias {alias!r}"
            _check_name(alias, what)
            if alias in algebras_doc:
                raise InstanceFormatError(f"{what}: collides with an algebra name")
            # an alias names an algebra, never another alias
            if not isinstance(target, str) or target not in algebras_doc:
                raise InstanceFormatError(f"{what}: unknown target algebra {target!r}")
            recipes[alias] = recipes[target]

    algebras = _Lazy(recipes, functools.partial(_spec, model, {}))
    # each named variety is scanned and its k checked now, so its faults are
    # load errors; its recipe is its (name, k) pairs
    factors_of: dict[str, tuple[tuple[str, int], ...]] = {}
    if "varieties" in doc:
        varieties_doc = _expect(doc, "varieties", dict, source)
        for vname, text in varieties_doc.items():
            what = f"{source}: variety {vname!r}"
            _check_name(vname, what)
            if not isinstance(text, str):
                raise InstanceFormatError(f"{what}: expression must be a string")
            try:
                factors_of[vname] = tuple(
                    (name, _factor_k(k, vp(recipes[name][2], prime), prime))
                    for name, k in _scan(text, prime, recipes)
                )
            except (InstanceFormatError, PreconditionError) as exc:
                raise InstanceFormatError(f"{what}: {exc}") from exc
    varieties = _Lazy(factors_of, functools.partial(_product, algebras))
    return Instance(model, algebras, varieties)


def parse_instance(path: str | os.PathLike) -> Instance:
    """Load and validate an instance file; messages show path as given."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read instance file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: malformed JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the int digit limit, or nesting past the stack
        raise InstanceFormatError(f"{path}: cannot decode JSON: {exc}") from exc
    return load_instance(doc, source=str(path))


_FACTOR = re.compile(r"\s*X\(\s*(\d+)\s*;([^)]*)\)\s*")


def parse_variety_expression(text: str, instance: Instance) -> GSBProduct:
    """Parse "X(m;NAME) x X(m;NAME) x ..." against the instance's algebras.

    The integer m is the reduced dimension and must be a power of the
    instance prime; names resolve through aliases.  Out-of-range m (p^k with
    k >= the degree exponent) is reported by the factor type itself.  Each
    factor is checked before the text after it is read, so an error in an
    earlier factor wins over a syntax error later in the text.
    """
    algebras = instance.algebras
    return _product(algebras, _scan(text, instance.model.prime, algebras))


def _scan(
    text: str, prime: int, algebras: Mapping[str, object]
) -> Iterator[tuple[str, int]]:
    """Yield (name, k) for each factor of a variety expression, name a key
    of algebras and p^k its reduced dimension.

    Checks the grammar, the integer, the name and the p-power, and nothing
    about k.  It is a generator, so a caller that checks k checks each factor
    before the text after it is read.
    """
    pos = 0
    while True:
        match = _FACTOR.match(text, pos)
        if match is None:
            raise InstanceFormatError(
                f"expected a factor X(m;NAME) at position {pos} in {text!r}"
            )
        try:
            m = int(match[1])
        except ValueError as exc:  # past the int digit limit
            raise InstanceFormatError(
                f"bad integer in the factor at position {pos}: {exc}"
            ) from exc
        name = match[2].strip()
        if not name:
            raise InstanceFormatError(
                f"empty algebra name in the factor at position {pos} in {text!r}"
            )
        k = _p_power_exponent(m, prime)
        if k is None:
            raise InstanceFormatError(
                f"reduced dimension {m} is not a power of the prime {prime}"
            )
        yield _known(algebras, name), k
        pos = match.end()
        if pos == len(text):
            return
        if text[pos] != "x":
            raise InstanceFormatError(f"expected 'x' at position {pos} in {text!r}")
        pos += 1


def _product(
    algebras: Mapping[str, AlgebraSpec], factors: Iterable[tuple[str, int]]
) -> GSBProduct:
    """The product of X(p^k; algebras[name]) over the (name, k) factors."""
    return GSBProduct(tuple([GSBFactor(algebras[name], k) for name, k in factors]))


def _known(algebras: Mapping[str, object], name: str) -> str:
    """name, if it is a key of algebras (an algebra name or alias)."""
    if name not in algebras:
        raise InstanceFormatError(f"unknown algebra {name!r}")
    return name
