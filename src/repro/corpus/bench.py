"""Corpus benchmarking: stream ~1000 programs through the pipeline.

:func:`run_corpus_bench` is the engine behind ``repro bench --corpus``.
For every selected manifest entry it regenerates the source from its
seed, submits the SPEC view plus NAIVE/SPEC timings (and an opt-in
hardware-simulation sample) to :meth:`Pipeline.stream`, and folds the
results into per-stratum aggregates as they arrive — the parent never
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
from ..machine.hw import HwMachine
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
        self.hw_programs = 0
        self.hw_cycles_spec = 0

    def add(self, view, naive, spec, base_ops: int) -> None:
        self.programs += 1
        counts = {kind.value: count
                  for kind, count in view.spd_counts().items()}
        applied = 0
        for short, key in (("raw", "mem_raw"), ("war", "mem_war"),
                           ("waw", "mem_waw")):
            count = int(counts.get(key, 0))
            self.applications[short] += count
            applied += count
        if applied:
            self.programs_applied += 1
        self.cycles_naive += naive.cycles
        self.cycles_spec += spec.cycles
        self.log_speedup_sum += math.log(naive.cycles / spec.cycles)
        self.growth_sum += view.code_size() / base_ops

    def add_hw(self, hw) -> None:
        self.hw_programs += 1
        self.hw_cycles_spec += hw.cycles

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
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
        }
        if self.hw_programs:
            out["hw"] = {"programs": self.hw_programs,
                         "cycles_spec": self.hw_cycles_spec}
        return out

    def merge(self, other: "_StratumAgg") -> None:
        self.programs += other.programs
        for key, count in other.applications.items():
            self.applications[key] += count
        self.programs_applied += other.programs_applied
        self.cycles_naive += other.cycles_naive
        self.cycles_spec += other.cycles_spec
        self.log_speedup_sum += other.log_speedup_sum
        self.growth_sum += other.growth_sum
        self.hw_programs += other.hw_programs
        self.hw_cycles_spec += other.hw_cycles_spec


def run_corpus_bench(pipeline: Pipeline, manifest: Dict[str, object],
                     mach: LifeMachine, *,
                     stratum: Optional[str] = None,
                     jobs: int = 1,
                     hw_machine: Optional[HwMachine] = None,
                     hw_sample: int = 0,
                     stable: bool = False,
                     manifest_path: Optional[str] = None,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> Dict[str, object]:
    """Run the selected corpus slice and return the bench payload.

    Entries run in manifest order; results stream back per entry and
    fold into :class:`_StratumAgg` accumulators, so peak memory is a
    single entry's artifacts regardless of corpus size.  When
    *hw_machine* is given, the ``hw_sample`` smallest entries of every
    stratum additionally run the SPEC view through the hardware
    simulator (hwsim is orders of magnitude slower than VLIW timing,
    so it is always a sampled sub-stratum, never the full corpus).
    """
    entries = select_bench_entries(manifest, stratum)
    hw_ids = _hw_sample_ids(entries, hw_sample if hw_machine else 0)

    plan: List[Dict[str, object]] = []
    job_list: List[object] = []
    memory_latency = mach.latencies.memory
    for entry in entries:
        source = entry_source(manifest, entry)
        entry_jobs: List[object] = [
            ViewJob(entry["id"], source, Disambiguator.SPEC, memory_latency),
            TimingJob(entry["id"], source, Disambiguator.NAIVE, mach),
            TimingJob(entry["id"], source, Disambiguator.SPEC, mach),
        ]
        if entry["id"] in hw_ids:
            entry_jobs.append(HwTimingJob(entry["id"], source,
                                          Disambiguator.SPEC, hw_machine))
        plan.append({"entry": entry, "jobs": len(entry_jobs)})
        job_list.extend(entry_jobs)

    started = time.perf_counter()
    strata: Dict[str, _StratumAgg] = {}
    with obs.tracing() as tracer:
        results = pipeline.stream(job_list, jobs)
        for index, item in enumerate(plan):
            entry = item["entry"]
            group = [next(results) for _ in range(item["jobs"])]
            view, naive, spec = group[0], group[1], group[2]
            agg = strata.setdefault(entry["stratum"], _StratumAgg())
            agg.add(view, naive, spec, entry["ops"])
            if len(group) == 4:
                agg.add_hw(group[3])
            if progress and (index + 1) % 100 == 0:
                progress(f"{index + 1}/{len(plan)} programs")
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
            "hw_sampled": len(hw_ids),
            "jobs_submitted": len(job_list),
        },
        "machine": {
            "name": mach.name,
            "num_fus": mach.num_fus,
            "memory_latency": memory_latency,
        },
        "strata": {name: agg.summary()
                   for name, agg in sorted(strata.items())},
        "totals": totals.summary(),
        "lab": lab,
    }


def _hw_sample_ids(entries, hw_sample: int) -> set:
    """Ids of the *hw_sample* smallest entries of every stratum."""
    if hw_sample <= 0:
        return set()
    by_stratum: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    sampled: set = set()
    for name in sorted(by_stratum):
        bucket = sorted(by_stratum[name],
                        key=lambda e: (e["ops"], e["id"]))
        sampled.update(entry["id"] for entry in bucket[:hw_sample])
    return sampled


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
