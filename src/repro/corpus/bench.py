"""Corpus benchmarking: stream ~1000 programs through the pipeline.

:func:`run_corpus_bench` is the engine behind ``repro bench --corpus``.
For every selected manifest entry it regenerates the source from its
seed, submits the SPEC view, the NAIVE/SPEC timings and the SPEC
view's hardware-simulator timing to :meth:`Pipeline.stream`, and folds
the results into per-stratum aggregates as they arrive — the parent never
holds more than one in-flight entry's artifacts, which is what lets a
thousand-program corpus run in a bounded-memory process.

The payload (schema ``repro.bench_corpus/1``, written to
``BENCH_corpus.json``) splits into two determinism tiers:

* everything outside ``"lab"`` — per-stratum SpD application rates,
  cycle sums, geomean SPEC-vs-NAIVE speedups, code growth — is a pure
  function of the manifest and the pipeline configuration, byte-stable
  across reruns and across ``--jobs`` values;
* ``"lab"`` holds the run telemetry that is *inherently* host- and
  schedule-dependent: elapsed wall time, cache hit/miss counters and
  the per-stage wall-time reservoir summaries (p50/p95/p99).  Callers
  that need byte-identical output (the determinism tests, the CI
  jobs=1-vs-jobs=4 diff) pass ``stable=True`` and get ``"lab": null``.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional

from .. import obs
from ..disambig.pipeline import Disambiguator
from ..machine.description import LifeMachine
from ..machine.hw import hw_machine
from ..pipeline.artifacts import spd_count_names
from ..pipeline.core import Pipeline
from ..pipeline.executor import HwTimingJob, TimingJob, ViewJob
from .manifest import entry_source, select_bench_entries

__all__ = ["BENCH_CORPUS_SCHEMA", "run_corpus_bench", "history_benchmarks"]

BENCH_CORPUS_SCHEMA = "repro.bench_corpus/1"

#: Cache counters surfaced in the lab section (parent + workers merged).
#: ``shard_evictions`` only moves when the pipeline runs on an
#: :class:`~repro.pipeline.store.ArtifactStore` with a byte budget.
_CACHE_COUNTERS = (("hits_mem", "pipeline.cache_hits.mem"),
                   ("hits_disk", "pipeline.cache_hits.disk"),
                   ("misses", "pipeline.cache_misses"),
                   ("shard_evictions", "pipeline.shard.evictions"))


class _StratumAgg:
    """Streaming per-stratum accumulator (no artifacts retained)."""

    def __init__(self) -> None:
        self.programs = 0
        self.applications = {"raw": 0, "war": 0, "waw": 0}
        self.programs_applied = 0
        self.cycles_naive = 0
        self.cycles_spec = 0
        self.log_speedup_sum = 0.0
        self.growth_sum = 0.0
        self.hw_cycles_spec = 0

    def add(self, view, naive, spec, hw, base_ops: int) -> None:
        self.programs += 1
        counts = spd_count_names(view)
        for short, count in counts.items():
            self.applications[short] += count
        if sum(counts.values()):
            self.programs_applied += 1
        self.cycles_naive += naive.cycles
        self.cycles_spec += spec.cycles
        self.log_speedup_sum += math.log(naive.cycles / spec.cycles)
        self.growth_sum += view.code_size() / base_ops
        self.hw_cycles_spec += hw.cycles

    def summary(self) -> Dict[str, object]:
        return {
            "programs": self.programs,
            "spd": {
                "applications": dict(sorted(self.applications.items())),
                "programs_applied": self.programs_applied,
                "application_rate": round(
                    self.programs_applied / self.programs, 6),
            },
            "cycles": {"naive": self.cycles_naive,
                       "spec": self.cycles_spec},
            "geomean_speedup_spec_over_naive": round(
                math.exp(self.log_speedup_sum / self.programs), 6),
            "code_growth_mean": round(self.growth_sum / self.programs, 6),
            "hw": {"programs": self.programs,
                   "cycles_spec": self.hw_cycles_spec},
        }

    def merge(self, other: "_StratumAgg") -> None:
        self.programs += other.programs
        for key, count in other.applications.items():
            self.applications[key] += count
        self.programs_applied += other.programs_applied
        self.cycles_naive += other.cycles_naive
        self.cycles_spec += other.cycles_spec
        self.log_speedup_sum += other.log_speedup_sum
        self.growth_sum += other.growth_sum
        self.hw_cycles_spec += other.hw_cycles_spec


def run_corpus_bench(pipeline: Pipeline, manifest: Dict[str, object],
                     mach: LifeMachine, *,
                     stratum: Optional[str] = None,
                     jobs: int = 1,
                     stable: bool = False,
                     manifest_path: Optional[str] = None,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> Dict[str, object]:
    """Run the selected corpus slice and return the bench payload.

    Entries run in manifest order; results stream back per entry and
    fold into :class:`_StratumAgg` accumulators, so peak memory is a
    single entry's artifacts regardless of corpus size.  The hardware
    simulator times every SPEC view on a 4-unit machine with *mach*'s
    memory latency.
    """
    entries = select_bench_entries(manifest, stratum)
    memory_latency = mach.memory_latency
    hw = hw_machine(4, memory_latency)

    job_list: List[object] = []
    for entry in entries:
        source = entry_source(manifest, entry)
        job_list += [
            ViewJob(entry["id"], source, Disambiguator.SPEC, memory_latency),
            TimingJob(entry["id"], source, Disambiguator.NAIVE, mach),
            TimingJob(entry["id"], source, Disambiguator.SPEC, mach),
            HwTimingJob(entry["id"], source, Disambiguator.SPEC, hw),
        ]

    started = time.perf_counter()
    strata: Dict[str, _StratumAgg] = {}
    with obs.tracing() as tracer:
        results = pipeline.stream(job_list, jobs)
        for index, entry in enumerate(entries):
            view, naive, spec, hw_timing = (next(results) for _ in range(4))
            agg = strata.setdefault(entry["stratum"], _StratumAgg())
            agg.add(view, naive, spec, hw_timing, entry["ops"])
            if progress and (index + 1) % 100 == 0:
                progress(f"{index + 1}/{len(entries)} programs")
        metrics = tracer.metrics
    elapsed = time.perf_counter() - started

    totals = _StratumAgg()
    for agg in strata.values():
        totals.merge(agg)

    lab: Optional[Dict[str, object]] = None
    if not stable:
        snapshot = metrics.snapshot()
        lab = {
            "elapsed_s": round(elapsed, 3),
            "jobs": jobs,
            "cache": {short: int(snapshot["counters"].get(name, 0))
                      for short, name in _CACHE_COUNTERS},
            "wall_ms": {name[len("span."):]: summary
                        for name, summary in
                        snapshot["histograms"].items()
                        if name.startswith("span.pipeline.")},
        }

    return {
        "schema": BENCH_CORPUS_SCHEMA,
        "manifest": {
            "schema": manifest["schema"],
            "generator_version": manifest["generator_version"],
            "entries": len(manifest["entries"]),
            "path": manifest_path,
        },
        "selection": {
            "stratum": stratum,
            "programs": len(entries),
            "hw_sampled": len(entries),
            "jobs_submitted": len(job_list),
        },
        "machine": mach.to_dict(),
        "strata": {name: agg.summary()
                   for name, agg in sorted(strata.items())},
        "totals": totals.summary(),
        "lab": lab,
    }


def history_benchmarks(payload: Dict[str, object]) -> Dict[str, object]:
    """Shape a corpus bench payload into one ``perf/history.jsonl``
    pseudo-benchmark entry (schema ``repro.perf_history/1`` requires
    the wall_ms stage keys, so stage sums come from the lab section's
    reservoir totals; a ``stable`` payload has no timings to record).
    """
    lab = payload.get("lab")
    if not lab:
        raise ValueError("cannot record a --stable corpus run in the "
                         "perf history (lab telemetry was stripped)")
    wall = lab["wall_ms"]

    def total(*names: str) -> float:
        return round(sum(wall[name]["total"]
                         for name in names if name in wall), 2)

    stratum = payload["selection"]["stratum"] or "all"
    name = f"corpus:{stratum}"
    entry = {
        "wall_ms": {
            "compile_profile": total("pipeline.compile",
                                     "pipeline.profile"),
            "disambiguate": total("pipeline.disambiguate"),
            "timing": total("pipeline.timing", "pipeline.hw_timing"),
            "total": round(lab["elapsed_s"] * 1e3, 2),
            "warm_total": 0.0,
        },
        "counters": {
            "corpus.programs": payload["selection"]["programs"],
            "corpus.jobs": lab["jobs"],
            "pipeline.cache_hits.mem": lab["cache"]["hits_mem"],
            "pipeline.cache_hits.disk": lab["cache"]["hits_disk"],
            "pipeline.cache_misses": lab["cache"]["misses"],
        },
    }
    return {name: entry}
