"""Figure 6-2: speedup over the NAIVE disambiguator, 5-FU machine.

For each benchmark and both memory latencies, three bars: STATIC, SPEC
and PERFECT relative to NAIVE, computed exactly as the paper does —
"the cycle count of the benchmark when processed by NAIVE over [the]
cycle count when processed by STATIC, minus one".

Shape targets: SPEC lands between STATIC and PERFECT (bridging part of
the static-to-perfect gap); for quick, SPEC can outperform PERFECT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.suite import REPORTED, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..machine.description import machine
from ..pipeline.core import Pipeline
from ..pipeline.executor import TimingJob
from .report import format_percent, format_table, round6

__all__ = ["Figure62", "run"]

_KINDS = (Disambiguator.STATIC, Disambiguator.SPEC, Disambiguator.PERFECT)


@dataclass
class Figure62:
    num_fus: int
    #: (benchmark, memory latency) -> {disambiguator -> speedup over NAIVE}
    speedups: Dict[Tuple[str, int], Dict[Disambiguator, float]] = field(
        default_factory=dict)

    def bars(self, name: str, memory_latency: int) -> Tuple[float, float, float]:
        entry = self.speedups[(name, memory_latency)]
        return tuple(entry[kind] for kind in _KINDS)

    def rows(self) -> List[Tuple[str, str, str, str, str, str, str]]:
        names = sorted({key[0] for key in self.speedups},
                       key=lambda n: REPORTED.index(n) if n in REPORTED else 99)
        out = []
        for name in names:
            two = self.bars(name, 2)
            six = self.bars(name, 6)
            out.append((name,
                        *(format_percent(v) for v in two),
                        *(format_percent(v) for v in six)))
        return out

    def render(self) -> str:
        return format_table(
            f"Figure 6-2: Speedup over NAIVE for a {self.num_fus} FU machine",
            ["Program", "STATIC@2", "SPEC@2", "PERFECT@2",
             "STATIC@6", "SPEC@6", "PERFECT@6"],
            self.rows())

    def to_dict(self) -> dict:
        """Structured form: speedup-over-NAIVE series per benchmark,
        keyed by memory latency then disambiguator."""
        series: dict = {}
        for (name, lat), entry in sorted(self.speedups.items()):
            series.setdefault(name, {})[str(lat)] = {
                kind.value: round6(value) for kind, value in entry.items()}
        return {
            "title": "Figure 6-2: Speedup over NAIVE",
            "num_fus": self.num_fus,
            "series": series,
        }


def run(pipeline: Optional[Pipeline] = None, names: List[str] = REPORTED,
        num_fus: int = 5, jobs: int = 1) -> Figure62:
    """Regenerate Figure 6-2: speedups over NAIVE on the 5-FU machine.

    The timing matrix is computed on *jobs* worker processes; the
    result is the same for every ``jobs``.
    """
    pipeline = pipeline or Pipeline()
    keys = [(name, memory_latency)
            for name in names for memory_latency in (2, 6)]
    timings = iter(pipeline.prefetch(
        [TimingJob(name, get_benchmark(name).source, kind,
                   machine(num_fus, memory_latency))
         for name, memory_latency in keys
         for kind in (Disambiguator.NAIVE,) + _KINDS], jobs))
    figure = Figure62(num_fus)
    for key in keys:
        naive = next(timings).timing
        figure.speedups[key] = {kind: next(timings).timing.speedup_over(naive)
                                for kind in _KINDS}
    return figure
