"""Table 6-3: frequency of SpD application by dependence type.

For each benchmark and each memory latency (2 and 6 cycles), count how
many times the guidance heuristic applied speculative disambiguation to
RAW, WAR and WAW dependences.  The paper's headline shapes:

* RAW dominates by far (87 and 94 total applications),
* WAR is never selected (0 total),
* WAW is a distant second (22 and 30), and
* counts grow slightly with memory latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.suite import REPORTED, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..ir.depgraph import ArcKind
from ..pipeline.core import Pipeline
from ..pipeline.executor import ViewJob
from .report import format_table

__all__ = ["Table63", "run"]

#: Paper values (RAW, WAR, WAW) per benchmark for the two latencies.
PAPER_TOTALS = {2: (87, 0, 22), 6: (94, 0, 30)}


@dataclass
class Table63:
    #: benchmark -> {memory latency -> (raw, war, waw)}
    counts: Dict[str, Dict[int, Tuple[int, int, int]]] = field(
        default_factory=dict)

    def totals(self, memory_latency: int) -> Tuple[int, int, int]:
        raw = war = waw = 0
        for per_latency in self.counts.values():
            r, w1, w2 = per_latency[memory_latency]
            raw += r
            war += w1
            waw += w2
        return raw, war, waw

    def rows(self) -> List[Tuple[str, int, int, int, int, int, int]]:
        out = []
        for name, per_latency in self.counts.items():
            out.append((name, *per_latency[2], *per_latency[6]))
        out.append(("TOTAL", *self.totals(2), *self.totals(6)))
        return out

    def render(self) -> str:
        return format_table(
            "Table 6-3: Frequency of SpD application by dependence type",
            ["Program", "RAW@2", "WAR@2", "WAW@2",
             "RAW@6", "WAR@6", "WAW@6"],
            self.rows())

    def to_dict(self) -> dict:
        """Structured form: per-benchmark and total (raw, war, waw)
        counts keyed by memory latency."""
        def triple(values):
            raw, war, waw = values
            return {"raw": raw, "war": war, "waw": waw}

        return {
            "title": "Table 6-3: Frequency of SpD application",
            "counts": {
                name: {str(lat): triple(per_latency[lat])
                       for lat in sorted(per_latency)}
                for name, per_latency in self.counts.items()
            },
            "totals": {str(lat): triple(self.totals(lat))
                       for lat in (2, 6)},
            "paper_totals": {str(lat): triple(PAPER_TOTALS[lat])
                             for lat in (2, 6)},
        }


def run(pipeline: Optional[Pipeline] = None,
        names: List[str] = REPORTED, jobs: int = 1) -> Table63:
    """Regenerate Table 6-3: SpD application counts per benchmark.

    The SPEC views are computed on *jobs* worker processes; the result
    is the same for every ``jobs``.
    """
    pipeline = pipeline or Pipeline()
    views = iter(pipeline.prefetch(
        [ViewJob(name, get_benchmark(name).source, Disambiguator.SPEC,
                 memory_latency)
         for name in names for memory_latency in (2, 6)], jobs))
    table = Table63()
    for name in names:
        per_latency: Dict[int, Tuple[int, int, int]] = {}
        for memory_latency in (2, 6):
            counts = next(views).spd_counts()
            per_latency[memory_latency] = (counts[ArcKind.MEM_RAW],
                                           counts[ArcKind.MEM_WAR],
                                           counts[ArcKind.MEM_WAW])
        table.counts[name] = per_latency
    return table
