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
keeps each name's reduced exponent vector, each distinct class's model index
(worked out once, for the first name with it), and each named variety's
(name, k) pairs, scanned and range-checked against those indices.  An
AlgebraSpec is built when a name is first looked up: names of one class share
one BrauerClass, and an alias resolves to its target's object.  A named
variety's GSBProduct is built when the variety is first looked up, from the
specs of the names it uses.

Expression grammar::

    product := factor ("x" factor)*
    factor  := "X(" integer ";" name ")"

where the integer is the reduced dimension p^k (not k itself).
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator, Mapping

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


class _Algebras(Mapping):
    """The algebras of a loaded instance: every name, then every alias, in
    document order, each resolving to the AlgebraSpec built on its first
    lookup (see the module docstring)."""

    __slots__ = ("_model", "_exponents", "_aliases", "_indices", "_classes", "_specs")

    def __init__(
        self,
        model: BrauerGroupModel,
        exponents: dict[str, tuple[int, ...]],
        aliases: dict[str, str],
        indices: dict[tuple[int, ...], int],
    ):
        self._model = model
        self._exponents = exponents  # algebra name -> reduced exponent vector
        self._aliases = aliases  # alias -> algebra name
        self._indices = indices  # exponent vector -> model index
        self._classes: dict[tuple[int, ...], BrauerClass] = {}
        self._specs: dict[str, AlgebraSpec] = {}

    def __getitem__(self, name: str) -> AlgebraSpec:
        spec = self._specs.get(name)
        if spec is None:
            if name in self._aliases:
                spec = self[self._aliases[name]]
            else:
                key = self._exponents[name]
                cls = self._classes.get(key)
                if cls is None:
                    cls = self._classes[key] = BrauerClass._reduced(self._model, key)
                spec = AlgebraSpec._trusted(cls, name, self.degree_exponent(name))
            self._specs[name] = spec
        return spec

    def degree_exponent(self, name: str) -> int:
        """The degree exponent of a name or alias, without building its spec."""
        key = self._exponents[self._aliases.get(name, name)]
        return vp(self._indices[key], self._model.prime)

    def __contains__(self, name: object) -> bool:
        return name in self._exponents or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        yield from self._exponents
        yield from self._aliases

    def __len__(self) -> int:
        return len(self._exponents) + len(self._aliases)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Varieties(Mapping):
    """The named varieties of a loaded instance, in document order, each
    resolving to the GSBProduct built on its first lookup from the (name, k)
    pairs the load checked."""

    __slots__ = ("_algebras", "_factors", "_products")

    def __init__(
        self, algebras: _Algebras, factors: dict[str, list[tuple[str, int]]]
    ):
        self._algebras = algebras
        self._factors = factors  # variety name -> (algebra name, k) pairs
        self._products: dict[str, GSBProduct] = {}

    def __getitem__(self, vname: str) -> GSBProduct:
        product = self._products.get(vname)
        if product is None:
            factors = self._factors[vname]
            product = self._products[vname] = _product(self._algebras, factors)
        return product

    def __contains__(self, vname: object) -> bool:
        return vname in self._factors

    def __iter__(self) -> Iterator[str]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __repr__(self) -> str:
        return repr(dict(self))


class Instance(Record):
    """A loaded instance: the group model plus named algebras and varieties.

    algebras maps every algebra name and every alias to its AlgebraSpec, and
    varieties maps names to GSBProducts: dicts, or for a loaded instance
    read-only mappings that build each value on its first lookup.
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
        """Resolve an algebra by name or alias."""
        return self.algebras[_known(self.algebras, name)]

    def algebra_list(self, names: str) -> list[AlgebraSpec]:
        """Resolve a comma-separated list of algebra names."""
        parts = [part.strip() for part in names.split(",")]
        if not any(parts):
            raise InstanceFormatError("empty algebra list")
        if not all(parts):
            raise InstanceFormatError(f"empty entry in algebra list {names!r}")
        return [self.algebra(part) for part in parts]

    def product(self, text: str) -> GSBProduct:
        """A named variety if the text matches one, else a parsed expression."""
        if text in self.varieties:
            return self.varieties[text]
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


def _expect(doc: Mapping[str, object], key: str, kind: type, what: str) -> object:
    if key not in doc:
        raise InstanceFormatError(f"{what}: missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
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
        if not isinstance(order, int) or isinstance(order, bool):
            raise InstanceFormatError(f"{what} ({name!r}): 'order' must be an integer")
        positions[name] = pos
        orders.append(order)
    try:
        model = BrauerGroupModel(prime, tuple(orders))
    except PreconditionError as exc:
        raise InstanceFormatError(f"{source}: {exc}") from exc

    algebras_doc = _expect(doc, "algebras", dict, source)
    exponents_of: dict[str, tuple[int, ...]] = {}
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
            if not isinstance(value, int) or isinstance(value, bool):
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
        exponents_of[name] = key

    aliases: dict[str, str] = {}
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
            aliases[alias] = target

    algebras = _Algebras(model, exponents_of, aliases, indices)
    # each named variety is scanned and its k checked now, so its faults are
    # load errors; its product is built on first lookup
    factors_of: dict[str, list[tuple[str, int]]] = {}
    if "varieties" in doc:
        varieties_doc = _expect(doc, "varieties", dict, source)
        for vname, text in varieties_doc.items():
            what = f"{source}: variety {vname!r}"
            _check_name(vname, what)
            if not isinstance(text, str):
                raise InstanceFormatError(f"{what}: expression must be a string")
            try:
                factors_of[vname] = [
                    (name, _factor_k(k, algebras.degree_exponent(name), model.prime))
                    for name, k in _scan(text, model.prime, algebras)
                ]
            except (InstanceFormatError, PreconditionError) as exc:
                raise InstanceFormatError(f"{what}: {exc}") from exc
    return Instance(model, algebras, _Varieties(algebras, factors_of))


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
