"""Figure 6-4: code-size increase due to SpD (2-cycle memory).

Code size is measured in *operations*, not VLIW instruction words —
"this is more meaningful since it does not count no-ops" (and matches
superscalar code size).  Shape target: modest growth, well under the
MaxExpansion bound, with the cost/benefit ratio varying widely across
benchmarks (the paper's smooft 0.5% vs solvde 16% contrast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.suite import REPORTED, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..pipeline.core import Pipeline
from ..pipeline.executor import CompileJob, ViewJob
from .report import format_percent, format_table, round6

__all__ = ["Figure64", "run"]


@dataclass
class Figure64:
    memory_latency: int
    #: benchmark -> (base ops, spec ops, fractional growth)
    sizes: Dict[str, Tuple[int, int, float]] = field(default_factory=dict)

    def growth(self, name: str) -> float:
        return self.sizes[name][2]

    def rows(self) -> List[Tuple[str, int, int, str]]:
        return [(name, base, spec, format_percent(growth))
                for name, (base, spec, growth) in self.sizes.items()]

    def render(self) -> str:
        return format_table(
            f"Figure 6-4: Code size increase due to SpD "
            f"({self.memory_latency}-cycle memory)",
            ["Program", "Base ops", "SPEC ops", "Increase"], self.rows())

    def to_dict(self) -> dict:
        """Structured form: base/SPEC op counts and fractional growth."""
        return {
            "title": "Figure 6-4: Code size increase due to SpD",
            "memory_latency": self.memory_latency,
            "sizes": {
                name: {"base_ops": base, "spec_ops": spec,
                       "growth": round6(growth)}
                for name, (base, spec, growth) in self.sizes.items()
            },
        }


def run(pipeline: Optional[Pipeline] = None, names: List[str] = REPORTED,
        memory_latency: int = 2, jobs: int = 1) -> Figure64:
    """Regenerate Figure 6-4: SpD code growth per benchmark.

    The SPEC views are computed on *jobs* worker processes; the result
    is the same for every ``jobs``.
    """
    pipeline = pipeline or Pipeline()
    sources = [(name, get_benchmark(name).source) for name in names]
    # the views compile each program, so the compile jobs behind them
    # are store hits rather than parallel recomputes
    job_list = [ViewJob(name, source, Disambiguator.SPEC, memory_latency)
                for name, source in sources]
    job_list += [CompileJob(name, source) for name, source in sources]
    artifacts = iter(pipeline.prefetch(job_list, jobs))
    views = [next(artifacts) for _ in names]
    figure = Figure64(memory_latency)
    for name, view, compiled in zip(names, views, artifacts):
        base, spec = compiled.base_size, view.code_size()
        figure.sizes[name] = (base, spec, spec / base - 1.0)
    return figure
