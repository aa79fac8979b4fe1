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

The constructor keeps the dataclass signature, defaults, default
factories and ``__post_init__`` call, but stores each field through its
slot descriptor rather than ``object.__setattr__`` by name, which makes
building an operation about a third cheaper; loading a stored program
builds tens of thousands.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, fields

__all__ = ["slotted"]

#: Default of a parameter whose field has a default factory.
_FACTORY = object()


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
    rebuilt.__init__ = _slot_init(rebuilt)
    return rebuilt


def _slot_init(cls: type):
    """The dataclass ``__init__`` of *cls*, storing through its slots."""
    env = {"_FACTORY": _FACTORY}
    params, body = ["self"], []
    for field_ in fields(cls):
        name = field_.name
        if field_.default is not MISSING:
            env[f"_default_{name}"] = field_.default
            params.append(f"{name}=_default_{name}")
        elif field_.default_factory is not MISSING:
            env[f"_factory_{name}"] = field_.default_factory
            params.append(f"{name}=_FACTORY")
            body.append(f"    if {name} is _FACTORY:\n"
                        f"        {name} = _factory_{name}()")
        else:
            params.append(name)
        env[f"_set_{name}"] = cls.__dict__[name].__set__
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + "\n".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
