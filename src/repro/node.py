"""Immutable value objects without generated code.

A frozen dataclass ``exec``s the source of every method it writes,
and that work repeats on every process start: the bytecode cache
cannot keep it.  The syntax trees and lattice values on the verify
path derive from :class:`Node` instead.  Each subclass lists its own
fields in ``__slots__`` and sets them in an explicit ``__init__``
with :func:`setfield`; this base supplies the rest with the
frozen dataclass's exact behaviour:

* equality holds only between objects of the same class and compares
  the fields in ``__init__`` order (base-class fields first);
* ``hash`` is the hash of that same tuple, so hash values and set
  orders are those of the dataclass;
* fields named in ``_uncompared`` stay out of both but show in
  ``repr``, which is ``Name(field=value, ...)``;
* fields cannot be assigned or deleted after ``__init__``;
* ``pickle`` and ``copy`` rebuild a node by calling its class with
  every field in order.
"""

from __future__ import annotations

from operator import attrgetter

#: ``setfield(node, name, value)`` — how an ``__init__`` sets a field
#: (``Node.__setattr__`` refuses every assignment).
setfield = object.__setattr__


class Node:
    __slots__ = ()
    #: Every field, in ``__init__`` order (set per subclass).
    _fields: tuple = ()
    #: Fields excluded from ``==`` and ``hash`` (source spans).
    _uncompared: tuple = ()
    #: node -> tuple of the compared fields (set per subclass).
    _key = staticmethod(lambda node: ())

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for c in reversed(cls.__mro__)
            for name in c.__dict__.get("__slots__", ())
        )
        compared = [n for n in cls._fields if n not in cls._uncompared]
        if len(compared) > 1:
            key = attrgetter(*compared)
        elif compared:
            one = attrgetter(compared[0])
            key = lambda node: (one(node),)  # noqa: E731
        else:
            key = lambda node: ()  # noqa: E731
        cls._key = staticmethod(key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
