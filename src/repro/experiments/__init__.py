"""Experiment harness: one module per paper table/figure + ablations."""

from ..bench.runner import BenchmarkRunner
from ..pipeline.core import Pipeline
from . import (ablation, figure6_2, figure6_3, figure6_4, hw_compare,
               table6_1, table6_2, table6_3)
from .report import format_percent, format_table

__all__ = ["ablation", "figure6_2", "figure6_3", "figure6_4",
           "format_percent", "format_table", "hw_compare", "runner_over",
           "table6_1", "table6_2", "table6_3"]


def runner_over(pipeline: Pipeline, jobs: int = 1) -> BenchmarkRunner:
    """A benchmark runner sharing *pipeline*'s toolchain and store that
    fans prefetches out over *jobs* worker processes."""
    return BenchmarkRunner(spd_config=pipeline.spd_config,
                           graft=pipeline.graft, jobs=jobs,
                           store=pipeline.store, passes=pipeline.passes,
                           guard_words=pipeline.guard_words,
                           engine=pipeline.engine)
