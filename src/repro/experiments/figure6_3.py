"""Figure 6-3: speedup of SPEC over STATIC vs machine width.

For the NRC benchmarks, sweep LIFE implementations with 1 to 8
functional units at both memory latencies and report the additional
speedup SpD provides on top of static disambiguation.

Shape targets from the paper: SpD *slows down* machines with
insufficient resources (negative values at 1-2 FUs with 2-cycle
memory); most programs need 2-3 FUs to profit at 2-cycle latency; with
6-cycle memory the benefit appears at narrower widths and is larger,
because ambiguous aliases hurt more as memory latency grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.suite import NRC_BENCHMARKS, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..machine.description import machine
from ..pipeline.core import Pipeline
from ..pipeline.executor import TimingJob
from .report import format_percent, format_table, round6

__all__ = ["Figure63", "run"]

WIDTHS = tuple(range(1, 9))


@dataclass
class Figure63:
    #: (benchmark, memory latency) -> speedup series indexed by width-1
    series: Dict[Tuple[str, int], List[float]] = field(default_factory=dict)

    def crossover_width(self, name: str, memory_latency: int) -> int:
        """Smallest FU count at which SpD stops hurting (speedup >= 0);
        9 when it never breaks even inside the sweep."""
        for width, value in zip(WIDTHS, self.series[(name, memory_latency)]):
            if value >= 0:
                return width
        return WIDTHS[-1] + 1

    def render(self) -> str:
        blocks = []
        for memory_latency in (2, 6):
            rows = []
            for (name, lat), values in sorted(self.series.items()):
                if lat != memory_latency:
                    continue
                rows.append((name, *(format_percent(v) for v in values)))
            blocks.append(format_table(
                f"Figure 6-3: Speedup of SPEC over STATIC "
                f"({memory_latency}-cycle memory)",
                ["Program"] + [f"{w} FU" for w in WIDTHS], rows))
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        """Structured form: SPEC/STATIC speedup per benchmark across
        machine widths, keyed by memory latency, plus crossover widths."""
        series: dict = {}
        crossover: dict = {}
        for (name, lat), values in sorted(self.series.items()):
            series.setdefault(name, {})[str(lat)] = [round6(v)
                                                     for v in values]
            crossover.setdefault(name, {})[str(lat)] = \
                self.crossover_width(name, lat)
        return {
            "title": "Figure 6-3: Speedup of SPEC over STATIC vs width",
            "widths": list(WIDTHS),
            "series": series,
            "crossover_width": crossover,
        }


def run(pipeline: Optional[Pipeline] = None,
        names: List[str] = NRC_BENCHMARKS, jobs: int = 1) -> Figure63:
    """Regenerate Figure 6-3: SPEC/STATIC across 1..8 FUs, both latencies.

    The timing matrix is computed on *jobs* worker processes; the
    result is the same for every ``jobs``.
    """
    pipeline = pipeline or Pipeline()
    keys = [(name, memory_latency)
            for name in names for memory_latency in (2, 6)]
    timings = iter(pipeline.prefetch(
        [TimingJob(name, get_benchmark(name).source, kind,
                   machine(width, memory_latency))
         for name, memory_latency in keys for width in WIDTHS
         for kind in (Disambiguator.STATIC, Disambiguator.SPEC)], jobs))
    figure = Figure63()
    for key in keys:
        # each width's two timings come back as a (STATIC, SPEC) pair
        figure.series[key] = [
            spec.timing.speedup_over(static.timing)
            for _, static, spec in zip(WIDTHS, timings, timings)]
    return figure
