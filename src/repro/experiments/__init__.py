"""Experiment harness: one module per paper table/figure + ablations.

Every entry point takes the :class:`~repro.pipeline.core.Pipeline` it
runs on (default: a fresh ``Pipeline()``) and a ``jobs`` worker count
for its one :meth:`~repro.pipeline.core.Pipeline.prefetch` call.
"""

from . import (ablation, figure6_2, figure6_3, figure6_4, hw_compare,
               table6_1, table6_2, table6_3)
from .report import format_percent, format_table

__all__ = ["ablation", "figure6_2", "figure6_3", "figure6_4",
           "format_percent", "format_table", "hw_compare",
           "table6_1", "table6_2", "table6_3"]
