"""Affine subscript expressions for static dependence testing.

The GCD test and the Banerjee inequalities (paper Section 6.1) reason
about array subscripts that are *affine*: an integer constant plus a sum
of integer multiples of scalar variables.  The frontend captures, for
every memory access it emits, the subscript as an ``AffineExpr`` over
source-level scalar symbols; non-affine subscripts (indirect indexing
through another array, products of variables, float arithmetic) simply
carry no affine information and force the static disambiguator to answer
"Unknown".

Because dependence arcs in this system join two references *within the
same decision-tree execution* (the scheduler only reorders operations
inside one tree), both references see the same value for every symbol —
the classic loop-independent direction.  The dependence equation for a
pair is therefore a single linear equation over the shared symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .frozen import slotted

__all__ = ["AffineExpr", "VarBounds"]


#: Inclusive integer bounds for a symbol, either end possibly unknown.
VarBounds = Tuple[Optional[int], Optional[int]]


@slotted
@dataclass(frozen=True)
class AffineExpr:
    """``const + sum(coeffs[s] * s for s in coeffs)`` over scalar symbols.

    Symbols are source-level names (e.g. ``"i"`` or ``"n"``), scoped by
    the frontend so that the same name in two functions never collides.
    """

    const: int = 0
    coeffs: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one pass copies the caller's mapping and drops zero terms; an
        # empty dict (most expressions are constants) is kept as it is
        coeffs = self.coeffs
        if coeffs or type(coeffs) is not dict:
            object.__setattr__(self, "coeffs",
                               {s: c for s, c in coeffs.items() if c != 0})

    # -- algebra ---------------------------------------------------------

    def add(self, other: "AffineExpr") -> "AffineExpr":
        coeffs: Dict[str, int] = dict(self.coeffs)
        for sym, coeff in other.coeffs.items():
            coeffs[sym] = coeffs.get(sym, 0) + coeff
        return AffineExpr(self.const + other.const, coeffs)

    def sub(self, other: "AffineExpr") -> "AffineExpr":
        return self.add(other.scale(-1))

    def scale(self, factor: int) -> "AffineExpr":
        return AffineExpr(
            self.const * factor,
            {sym: coeff * factor for sym, coeff in self.coeffs.items()},
        )

    def mul(self, other: "AffineExpr") -> Optional["AffineExpr"]:
        """Product, or None when the result would not be affine."""
        if not self.coeffs:
            return other.scale(self.const)
        if not other.coeffs:
            return self.scale(other.const)
        return None

    # -- queries ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def symbols(self) -> frozenset:
        return frozenset(self.coeffs)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a full symbol assignment (used in tests)."""
        return self.const + sum(c * env[s] for s, c in self.coeffs.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [str(self.const)] if self.const or not self.coeffs else []
        parts += [f"{c}*{s}" for s, c in sorted(self.coeffs.items())]
        return " + ".join(parts)
