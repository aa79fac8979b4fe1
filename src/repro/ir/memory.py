"""Symbolic description of a memory access, used by disambiguation.

Every LOAD/STORE carries an optional :class:`MemAccess` describing *what
the compiler knows* about the reference: which region (array) it targets
and, when the subscript is affine, the subscript expression relative to
the region base.  The static disambiguator works entirely from this
record; the dynamic machinery (profiling, speculative disambiguation)
works from the run-time address and ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .affine import AffineExpr, VarBounds
from .frozen import slotted

__all__ = ["RegionKind", "Region", "MemAccess"]


class RegionKind(Enum):
    """How much the compiler knows about an access's base address."""

    GLOBAL = "global"  #: a named global array; distinct names never alias
    LOCAL = "local"    #: a function-local array; distinct names never alias
    PARAM = "param"    #: an array parameter; may alias anything array-shaped
    UNKNOWN = "unknown"  #: no base information at all


@slotted
@dataclass(frozen=True)
class Region:
    """The base object of a memory access.

    ``name`` is qualified by the frontend (``"a"`` for globals,
    ``"func.a"`` for locals and parameters) so equal names mean equal
    regions program-wide.
    """

    kind: RegionKind
    name: str

    def definitely_same_base(self, other: "Region") -> bool:
        """True if the two accesses share a base address for certain.

        Two references through the *same* parameter share a base, as do
        two references to the same global/local array.
        """
        return self.kind is not RegionKind.UNKNOWN and self == other

    def definitely_disjoint(self, other: "Region") -> bool:
        """True if the two regions can never overlap.

        Named globals and locals are separately allocated, so distinct
        names are disjoint.  A parameter may be bound to any array (or
        an overlapping slice of one), so it is never disjoint from
        anything — this is precisely why the Numerical Recipes kernels,
        which pass arrays into procedures, defeat static disambiguation
        (paper Section 6.3).
        """
        concrete = (RegionKind.GLOBAL, RegionKind.LOCAL)
        if self.kind in concrete and other.kind in concrete:
            return self != other
        return False


@slotted
@dataclass(frozen=True)
class MemAccess:
    """Compiler knowledge attached to one LOAD or STORE.

    ``subscript`` is the word offset from the region base as an affine
    expression over scalar symbols, or None when non-affine.  ``bounds``
    gives known integer ranges of those symbols (from enclosing constant
    loop bounds) for the Banerjee inequalities.
    """

    region: Optional[Region] = None
    subscript: Optional[AffineExpr] = None
    bounds: Mapping[str, VarBounds] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", dict(self.bounds))

    @property
    def is_analyzable(self) -> bool:
        """True when both a region and an affine subscript are known."""
        return self.region is not None and self.subscript is not None
