"""Operation latencies — paper Table 6-1.

======================  ==============
operation               latency (cyc)
======================  ==============
integer multiplies      3
integer and FP divides  7
FP compares             1
other ALU operations    1
other FPU operations    3
memory loads and stores 2 or 6
branches                2
======================  ==============
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

from ..ir.operations import Opcode, Operation, opcode_category

__all__ = ["LatencyTable", "TABLE_6_1_MEM2", "TABLE_6_1_MEM6"]


@dataclass(frozen=True)
class LatencyTable:
    """Per-category operation latencies in cycles."""

    int_mul: int = 3
    divide: int = 7
    fp_compare: int = 1
    alu: int = 1
    fpu: int = 3
    memory: int = 2
    branch: int = 2

    def __post_init__(self) -> None:
        for field_name in ("int_mul", "divide", "fp_compare", "alu",
                           "fpu", "memory", "branch"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} latency must be >= 1")
        # each opcode's latency, built once: of() sits on the timing
        # models' hot paths.  Stored via object.__setattr__ (frozen
        # dataclass); not a field, so asdict()/fingerprints, equality
        # and hashing are unaffected.  (A category's value names its
        # field.)
        object.__setattr__(self, "_by_opcode", {
            opcode: getattr(self, opcode_category(opcode).value)
            for opcode in Opcode})

    def __reduce__(self):
        # pickle the fields only; a load shares the table built for the
        # same fields rather than rebuilding the opcode map (stored
        # timing artifacts each carry a table)
        return (_shared_table, astuple(self))

    def of(self, op: Operation) -> int:
        """Latency of one IR operation."""
        return self._by_opcode[op.opcode]


@functools.lru_cache(maxsize=64)
def _shared_table(*latencies: int) -> LatencyTable:
    """The table with these field values, built once per process."""
    return LatencyTable(*latencies)


#: The paper's two memory configurations (Section 6.2).
TABLE_6_1_MEM2 = LatencyTable(memory=2)
TABLE_6_1_MEM6 = LatencyTable(memory=6)
