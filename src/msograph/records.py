"""Plain value records, with no import of ``dataclasses``.

A record names its fields in ``__match_args__``, in constructor order.
``Record`` gives what ``@dataclass`` gave such a class: equality with
a record of the same class by the fields, in order, the repr
``Name(field=value, ...)``, and no hash.  ``Frozen`` adds the hash of
the fields and refuses assignment and deletion with the error a frozen
dataclass raises; its constructor sets each field once through
``object.__setattr__``.
"""

from __future__ import annotations


def _fields(r) -> tuple:
    return tuple(map(r.__getattribute__, r.__match_args__))


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # mutable, so unhashable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self.__match_args__, _fields(self)))
        return f"{type(self).__qualname__}({inner})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> AttributeError:
    # imported here, on the error path only, so that importing msograph
    # does not import dataclasses
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)
