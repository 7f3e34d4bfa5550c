"""Slotted records in place of dataclasses, whose import pulls in inspect,
ast and dis.  A subclass lists its fields as __slots__ in constructor order,
and its __init__ writes each with object.__setattr__; a field that __init__
works out comes last, and its class overrides __reduce__.  Equality runs over
compare= (all fields by default).  A Value is hashed and immutable."""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] = ()) -> None:
        if cls.__slots__:  # Value adds no fields
            cls._key = attrgetter(*(compare or cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class Value(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}: immutable")

    __delattr__ = __setattr__
