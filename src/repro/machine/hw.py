"""Hardware dynamic-disambiguation machine descriptions.

Where :class:`~repro.machine.description.LifeMachine` models the paper's
statically scheduled guarded VLIW, :class:`HwMachine` describes the
*hardware* alternative the paper positions itself against (Section 1):
an MIPS-R10000-style dynamically scheduled processor that renames
registers, issues out of order from a bounded window, and resolves
memory dependences at run time in a load/store queue.  Loads may be
speculated past stores whose addresses are still unknown; a pluggable
memory-dependence predictor decides when, and misspeculated loads are
squashed and replayed for :attr:`HwMachine.replay_penalty` cycles.

The operation latencies are shared with the VLIW model (Table 6-1), so
cycle counts from the two machines are directly comparable — that is
the point: ``repro hwcompare`` reproduces the paper's central
"compiler vs. hardware vs. both" argument quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .latencies import LatencyTable, TABLE_6_1_MEM2, TABLE_6_1_MEM6

__all__ = ["PREDICTOR_NAMES", "HwMachine", "HW_ORACLE_INFINITE",
           "hw_machine", "paper_hw_machines"]

#: The memory-dependence predictors a machine may name (see
#: :mod:`repro.hwsim.predictor`).  ``oracle`` is the idealised
#: perfect-disambiguation predictor used as the dataflow lower bound.
PREDICTOR_NAMES = ("always", "never", "store-set", "oracle")


@dataclass(frozen=True)
class HwMachine:
    """One dynamically scheduled implementation.

    ``num_fus=None`` / ``window=None`` denote unbounded issue width /
    instruction window; the combination of both with the ``oracle``
    predictor is the machine's dataflow lower bound (every finite
    configuration of the same latency table is at least as slow).
    """

    num_fus: Optional[int] = 4
    window: Optional[int] = 32
    predictor: str = "store-set"
    replay_penalty: int = 3
    latencies: LatencyTable = TABLE_6_1_MEM2
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_fus is not None and self.num_fus < 1:
            raise ValueError("num_fus must be >= 1 (or None for unbounded)")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        if self.replay_penalty < 0:
            raise ValueError("replay_penalty must be >= 0")
        if self.predictor not in PREDICTOR_NAMES:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {', '.join(PREDICTOR_NAMES)}")
        if not self.name:
            width = "inf" if self.num_fus is None else str(self.num_fus)
            window = "inf" if self.window is None else str(self.window)
            object.__setattr__(
                self, "name",
                f"hw-{width}fu-w{window}-mem{self.latencies.memory}"
                f"-{self.predictor}")

    @property
    def memory_latency(self) -> int:
        return self.latencies.memory

    def to_dict(self) -> dict:
        """Serializable configuration summary (span annotations, perf
        records); ``None`` width/window render as ``"inf"``."""
        return {
            "name": self.name,
            "num_fus": "inf" if self.num_fus is None else self.num_fus,
            "window": "inf" if self.window is None else self.window,
            "predictor": self.predictor,
            "replay_penalty": self.replay_penalty,
            "memory_latency": self.memory_latency,
        }


#: The idealised dynamic machine: unbounded width and window, perfect
#: memory-dependence knowledge.  Its cycle count is the dataflow lower
#: bound every finite :class:`HwMachine` run must respect.
HW_ORACLE_INFINITE = HwMachine(num_fus=None, window=None, predictor="oracle")


def hw_machine(num_fus: Optional[int], memory_latency: int = 2,
               predictor: str = "store-set", window: Optional[int] = 32,
               replay_penalty: int = 3) -> HwMachine:
    """Convenience constructor mirroring :func:`~repro.machine.machine`."""
    if memory_latency == 2:
        table = TABLE_6_1_MEM2
    elif memory_latency == 6:
        table = TABLE_6_1_MEM6
    else:
        table = LatencyTable(memory=memory_latency)
    return HwMachine(num_fus=num_fus, window=window, predictor=predictor,
                     replay_penalty=replay_penalty, latencies=table)


def paper_hw_machines(memory_latency: int = 2,
                      predictor: str = "store-set") -> List[HwMachine]:
    """The 1/2/4/8-wide sweep of the ``repro hwcompare`` experiment."""
    return [hw_machine(n, memory_latency, predictor) for n in (1, 2, 4, 8)]
