"""Performance lab: measurement, bench history and regression gating.

``repro.perf`` keeps the toolchain's *own* speed honest — no speed
work can claim a win without trustworthy wall-time accounting.  Three
pieces:

* :mod:`repro.perf.measure` — the canonical per-benchmark measurement
  (cold pipeline, best-of-3 warm replay, cleanup rebuild) and
  ``measure_benchmarks``, the one loop over named benchmarks that
  ``benchmarks/bench_spd.py`` and the regression gate both call;
* :mod:`repro.perf.history` — the append-only ``perf/history.jsonl``
  trajectory (schema ``repro.perf_history/1``), every line built by
  ``make_record``;
* :mod:`repro.perf.check` — ``repro perf check --against BASELINE``:
  re-measures, compares per-stage wall-times with each benchmark's
  newest baseline under a noise threshold and exits non-zero on
  regression (the CI perf gate).

See docs/observability.md ("Performance lab") for the workflow.
"""

from .check import CheckResult, StageDelta, compare, load_baseline, run_check
from .history import (HISTORY_SCHEMA, append_record, git_sha, host_info,
                      load_records, make_record)
from .measure import TRACKED_COUNTERS, measure_benchmark, measure_benchmarks

__all__ = [
    "measure_benchmark", "measure_benchmarks", "TRACKED_COUNTERS",
    "HISTORY_SCHEMA", "make_record", "append_record", "load_records",
    "git_sha", "host_info",
    "StageDelta", "CheckResult", "compare", "load_baseline", "run_check",
]
