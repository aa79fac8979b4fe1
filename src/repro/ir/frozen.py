"""``__slots__`` for the frozen IR value classes.

``dataclass(slots=True)`` needs Python 3.10 and the package supports
3.9, so :func:`slotted` does the same rebuild by hand: it takes a
``@dataclass(frozen=True)`` class and returns an equivalent class whose
instances have no ``__dict__``.  A compiled program holds one instance
per operation, operand, guard and arc, so dropping the per-instance
dict roughly halves the objects the garbage collector tracks in every
IR artifact.

Instances pickle positionally through the constructor (``__reduce__``
returns ``(cls, field values)``), so every ``__post_init__`` check runs
again on load.  Equality, hashing, ``dataclasses.replace`` and
``FrozenInstanceError`` on assignment behave as on the plain frozen
dataclass.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields

__all__ = ["slotted"]


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def slotted(cls: type) -> type:
    """Rebuild frozen dataclass *cls* with one slot per field."""
    names = tuple(f.name for f in fields(cls))
    namespace = dict(cls.__dict__)
    for name in names:
        namespace.pop(name, None)  # a field default would shadow its slot
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = names
    namespace["__setattr__"] = _frozen_setattr
    namespace["__delattr__"] = _frozen_delattr

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in names])

    namespace["__reduce__"] = __reduce__
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt
