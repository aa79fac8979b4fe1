"""Guards: the conditional-execution mechanism of the LIFE machine.

Every LIFE operation reads, besides its data operands, one *guard* value
from the register file (paper Section 6.1).  The operation is fetched,
decoded and executed speculatively but only commits its result if the
guard evaluates true (Section 3.2, "conditional execution").

A guard in this IR is a single boolean register plus a polarity bit —
the "bubble" in the paper's figures denotes an inverted guard.  Guard
*conjunctions* (needed when speculative disambiguation stacks an address
compare on top of an if-conversion guard) are materialised as explicit
``AND``/``ANDN`` operations by the producing pass, exactly as a real
guarded machine would have to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .frozen import slotted
from .values import BOOL, Register

__all__ = ["Guard", "guards_disjoint", "guard_implies"]


@slotted
@dataclass(frozen=True)
class Guard:
    """A (register, polarity) guard literal.

    ``negate=True`` corresponds to the bubble in the paper's data-flow
    figures: the operation commits when the register holds *false*.
    """

    reg: Register
    negate: bool = False

    def __post_init__(self) -> None:
        if self.reg.type != BOOL:
            raise ValueError(f"guard register must be bool-typed, got {self.reg!r}")

    def inverted(self) -> "Guard":
        """The same guard with opposite polarity."""
        return Guard(self.reg, not self.negate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bubble = "!" if self.negate else ""
        return f"[{bubble}{self.reg.name}]"


def guards_disjoint(a: Optional[Guard], b: Optional[Guard]) -> bool:
    """True if two guards can never both be true.

    Only the syntactic case — same register, opposite polarity — is
    recognised.  That is exactly the pattern speculative disambiguation
    produces for its two code versions, and it is what lets the
    dependence builder avoid serialising the alias and no-alias copies
    against each other.
    """
    if a is None or b is None:
        return False
    return a.reg == b.reg and a.negate != b.negate


def guard_implies(a: Optional[Guard], b: Optional[Guard]) -> bool:
    """True if guard *a* being true implies guard *b* is true.

    ``None`` means "always execute", so everything implies ``None``.
    """
    if b is None:
        return True
    if a is None:
        return False
    return a == b
