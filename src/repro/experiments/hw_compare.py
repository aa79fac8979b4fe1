"""Compiler vs. hardware dynamic disambiguation (``repro hwcompare``).

The paper's framing (Section 1) is that speculative disambiguation gives
a *compiler* the benefit an out-of-order core gets from its load/store
queue.  This experiment makes that comparison quantitative by timing
every benchmark four ways at each issue width:

==============  ========================================================
``no-disamb``   statically scheduled VLIW, NAIVE view — no
                disambiguation of any kind
``spd``         statically scheduled VLIW, SPEC view — speculative
                disambiguation in the compiler
``hw``          dynamically scheduled core (:mod:`repro.hwsim`), NAIVE
                view — disambiguation in hardware only
``spd+hw``      dynamically scheduled core running the SPEC view — both
                mechanisms at once
==============  ========================================================

All four share the Table 6-1 latency table, so cycle counts are directly
comparable.  The hardware rows also report how many loads were squashed
and replayed — the price dynamic speculation pays that SpD's compiled-in
recovery code does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bench.suite import benchmark_names, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..machine.description import machine
from ..machine.hw import hw_machine
from ..pipeline.core import Pipeline
from ..pipeline.executor import HwTimingJob, TimingJob
from .report import format_percent, format_table, round6

__all__ = ["CONFIGS", "WIDTHS", "HwCompare", "run"]

#: Column order of the comparison (name -> human heading).
CONFIGS = ("no-disamb", "spd", "hw", "spd+hw")

#: The issue widths of the sweep.
WIDTHS = (1, 2, 4, 8)


@dataclass
class HwCompare:
    """Cycle counts for every (benchmark, width, config) cell."""

    predictor: str
    memory_latency: int
    widths: Sequence[int] = WIDTHS
    #: benchmark -> width -> config -> cycles
    cycles: Dict[str, Dict[int, Dict[str, int]]] = field(default_factory=dict)
    #: benchmark -> width -> config -> squashed loads (hw configs only)
    squashes: Dict[str, Dict[int, Dict[str, int]]] = field(
        default_factory=dict)

    def speedup(self, name: str, width: int, config: str) -> float:
        """Cycle advantage of *config* over no-disambiguation."""
        cells = self.cycles[name][width]
        return cells["no-disamb"] / cells[config] - 1.0

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for name in self.cycles:
            for width in self.widths:
                cells = self.cycles[name][width]
                sq = self.squashes[name][width]
                out.append([
                    name, width,
                    cells["no-disamb"], cells["spd"],
                    cells["hw"], cells["spd+hw"],
                    format_percent(self.speedup(name, width, "spd")),
                    format_percent(self.speedup(name, width, "hw")),
                    format_percent(self.speedup(name, width, "spd+hw")),
                    sq["hw"], sq["spd+hw"],
                ])
        return out

    def render(self) -> str:
        title = (f"Compiler vs. hardware disambiguation "
                 f"(mem={self.memory_latency}, "
                 f"predictor={self.predictor})")
        return format_table(
            title,
            ["Program", "FUs", "NoDis", "SpD", "HW", "SpD+HW",
             "SpD%", "HW%", "SpD+HW%", "HWsq", "SpD+HWsq"],
            self.rows())

    def to_dict(self) -> dict:
        return {
            "title": "Compiler vs. hardware dynamic disambiguation",
            "predictor": self.predictor,
            "memory_latency": self.memory_latency,
            "widths": list(self.widths),
            "configs": list(CONFIGS),
            "benchmarks": {
                name: {
                    str(width): {
                        "cycles": dict(self.cycles[name][width]),
                        "squashes": dict(self.squashes[name][width]),
                        "speedup_over_no_disamb": {
                            config: round6(self.speedup(name, width, config))
                            for config in CONFIGS[1:]
                        },
                    }
                    for width in self.widths
                }
                for name in self.cycles
            },
        }


def run(pipeline: Optional[Pipeline] = None,
        names: Optional[Sequence[str]] = None,
        widths: Sequence[int] = WIDTHS,
        memory_latency: int = 2,
        predictor: str = "store-set",
        jobs: int = 1) -> HwCompare:
    """Time every benchmark under the four configurations per width.

    The timings are computed on *jobs* worker processes; results are
    the same for every ``jobs``.
    """
    pipeline = pipeline or Pipeline()
    names = list(names) if names is not None else benchmark_names()
    cells = [(name, get_benchmark(name).source, width)
             for name in names for width in widths]
    kinds = (Disambiguator.NAIVE, Disambiguator.SPEC)
    # the VLIW timings go first: they compute the views, so the hardware
    # jobs behind them read those views instead of recomputing them
    job_list = [TimingJob(name, source, kind, machine(width, memory_latency))
                for name, source, width in cells for kind in kinds]
    job_list += [HwTimingJob(name, source, kind,
                             hw_machine(width, memory_latency, predictor))
                 for name, source, width in cells for kind in kinds]
    artifacts = iter(pipeline.prefetch(job_list, jobs))
    vliw = [(naive.timing, spec.timing)
            for _, naive, spec in zip(cells, artifacts, artifacts)]

    table = HwCompare(predictor, memory_latency, tuple(widths))
    for (name, _, width), (naive, spec), hw_naive, hw_spec in zip(
            cells, vliw, artifacts, artifacts):
        hw_naive, hw_spec = hw_naive.timing, hw_spec.timing
        table.cycles.setdefault(name, {})[width] = {
            "no-disamb": naive.cycles,
            "spd": spec.cycles,
            "hw": hw_naive.cycles,
            "spd+hw": hw_spec.cycles,
        }
        table.squashes.setdefault(name, {})[width] = {
            "hw": hw_naive.stats["squashes"],
            "spd+hw": hw_spec.stats["squashes"],
        }
    return table
