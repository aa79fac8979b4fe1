"""Value operands of the decision-tree IR.

The IR is register based: every operation reads *operands* (virtual
registers or immediate constants) and optionally writes one virtual
register.  Registers are typed (``int``, ``float`` or ``bool``); types
are informational — the interpreter stores Python numbers and the
timing models only look at opcodes.

Register naming conventions used by the frontend (informational only):

* ``v.<name>``   — the home register of a source-level scalar variable.
  These are the only registers considered *live-out* of a decision tree.
* ``t<N>``       — a pure temporary, dead at tree exit.
* ``g<N>``       — a materialised guard value.
* ``p.<name>``   — an incoming function parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .frozen import slotted

__all__ = [
    "Register",
    "Constant",
    "Operand",
    "INT",
    "FLOAT",
    "BOOL",
    "is_register",
    "is_constant",
]

#: Type tags for registers.  Plain strings keep the IR printable.
INT = "int"
FLOAT = "float"
BOOL = "bool"

_VALID_TYPES = frozenset({INT, FLOAT, BOOL})


@slotted
@dataclass(frozen=True)
class Register:
    """A virtual register.

    Registers are value objects: two ``Register`` instances with the same
    name refer to the same storage location.  The LIFE machine has a
    single global register file, so there is no separate predicate file;
    guard values live in ordinary (bool-typed) registers.
    """

    name: str
    type: str = INT

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("register name must be non-empty")
        if self.type not in _VALID_TYPES:
            raise ValueError(f"unknown register type {self.type!r}")

    @property
    def is_variable(self) -> bool:
        """True if this is the home register of a source-level variable.

        Variable registers are live across decision-tree boundaries, so
        speculative disambiguation must guard (rather than rename) any
        replicated operation that writes one.
        """
        return self.name.startswith("v.") or self.name.startswith("p.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"%{self.name}"


@slotted
@dataclass(frozen=True)
class Constant:
    """An immediate operand (Python int or float)."""

    value: Union[int, float]

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise ValueError(f"constant must be an int or float, got {self.value!r}")

    @property
    def type(self) -> str:
        return FLOAT if isinstance(self.value, float) else INT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"#{self.value}"


Operand = Union[Register, Constant]


def is_register(operand: Operand) -> bool:
    """Return True if *operand* is a virtual register."""
    return isinstance(operand, Register)


def is_constant(operand: Operand) -> bool:
    """Return True if *operand* is an immediate constant."""
    return isinstance(operand, Constant)
