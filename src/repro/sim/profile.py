"""Profile data produced by the functional simulator.

The paper's platform profiles two things (Sections 5.1, 6.1):

* **path probabilities** — how often each exit of each decision tree is
  taken; these weight the Gain() estimate of the SpD guidance heuristic
  and the average-time metric of the evaluation; and
* **dynamic alias counts** — for every pair of memory references in a
  tree, how often both executed and how often they hit the same address.
  A pair whose alias count is zero has a *superfluous* dependence arc;
  removing all superfluous arcs yields the PERFECT disambiguator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["PairStats", "ProfileData", "TreeKey", "PairKey"]

#: (function name, tree name)
TreeKey = Tuple[str, str]
#: (function name, tree name, earlier op_id, later op_id)
PairKey = Tuple[str, str, int, int]


@dataclass
class PairStats:
    """Dynamic statistics for one ordered pair of memory operations."""

    executed: int = 0  #: times both operations committed in one tree execution
    aliased: int = 0   #: of those, times the addresses were equal

    @property
    def alias_probability(self) -> float:
        """The paper's alias probability (Section 2.0): aliases per
        co-execution.  Zero when the pair never co-executed."""
        return self.aliased / self.executed if self.executed else 0.0

    @property
    def superfluous(self) -> bool:
        """True when the dependence arc never manifested at run time."""
        return self.aliased == 0


@dataclass
class ProfileData:
    """Everything the profiling run learns about one program + input."""

    tree_counts: Dict[TreeKey, int] = field(default_factory=dict)
    exit_counts: Dict[TreeKey, List[int]] = field(default_factory=dict)
    pair_stats: Dict[PairKey, PairStats] = field(default_factory=dict)
    dynamic_operations: int = 0

    # -- recording (used by the interpreter) --------------------------------

    def record_tree(self, key: TreeKey, num_exits: int, exit_index: int) -> None:
        self.tree_counts[key] = self.tree_counts.get(key, 0) + 1
        counts = self.exit_counts.get(key)
        if counts is None:
            counts = self.exit_counts[key] = [0] * num_exits
        counts[exit_index] += 1

    def record_pair(self, key: PairKey, aliased: bool, times: int = 1) -> None:
        """Record *times* co-executions of the pair *key*."""
        stats = self.pair_stats.get(key)
        if stats is None:
            stats = self.pair_stats[key] = PairStats()
        stats.executed += times
        if aliased:
            stats.aliased += times

    # -- queries ------------------------------------------------------------

    def path_probabilities(self, key: TreeKey, num_exits: int) -> List[float]:
        """Per-exit probabilities; uniform when the tree never executed."""
        counts = self.exit_counts.get(key)
        total = sum(counts) if counts else 0
        if not counts or total == 0:
            return [1.0 / num_exits] * num_exits
        return [c / total for c in counts]

    def pair(self, key: PairKey) -> PairStats:
        return self.pair_stats.get(key, PairStats())

    def executed(self, key: TreeKey) -> int:
        return self.tree_counts.get(key, 0)
