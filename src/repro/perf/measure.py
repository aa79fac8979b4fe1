"""The canonical per-benchmark performance measurement.

One benchmark's measurement runs the paper's full experimental flow
three times against an isolated artifact store:

1. **cold** — compile + profile, all four disambiguated views, all four
   list-scheduled timings into an empty store (per-stage wall-times
   recorded as ``compile_profile`` / ``disambiguate`` / ``timing`` /
   ``total``);
2. **warm** — fresh runners replay the same requests against the
   now-populated disk cache; ``warm_total`` is the best of
   :data:`WARM_REPLAYS`, so one GC pause cannot pass for a slow path;
3. **cleanup** — the SPEC view rebuilt with the default cleanup pass
   pipeline, recording post-DCE code size and per-pass op deltas.

:func:`measure_benchmarks` is the one loop over named benchmarks, and
``benchmarks/bench_spd.py`` and ``repro perf check`` both call it, so a
gate run and the baseline it is judged against measure the same thing.

Testing hook: ``REPRO_PERF_INJECT="stage:factor[,stage:factor...]"``
multiplies the named wall-time stages after measurement (e.g.
``disambiguate:2.0`` fakes a 2x slowdown).  The perf-gate tests use it
to prove the check trips; it has no effect on the measured pipeline
itself.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence

from .. import obs
from ..bench.runner import BenchmarkRunner
from ..bench.suite import SUITE
from ..disambig.pipeline import Disambiguator
from ..engines import DEFAULT_ENGINE
from ..machine.description import LifeMachine
from ..passes import DEFAULT_CLEANUP, PassPipelineConfig
from ..pipeline.artifacts import spd_count_names
from ..pipeline.store import ArtifactStore
from .history import machine_entry

__all__ = ["TRACKED_COUNTERS", "STAGE_SPANS", "WARM_REPLAYS",
           "measure_benchmark", "measure_benchmarks", "inject_env_slowdowns"]

#: Counters worth tracking release-over-release (work, not wall-time).
TRACKED_COUNTERS = (
    "depgraph.builds",
    "spd.gain_evaluations",
    "timing.infinite_evals",
    "sched.trees_scheduled",
    "sim.steps",
)

#: Span histograms surfaced as per-stage percentile summaries.
STAGE_SPANS = (
    "span.pipeline.compile",
    "span.pipeline.profile",
    "span.pipeline.disambiguate",
    "span.pipeline.timing",
)

#: Fresh-runner warm replays per benchmark; ``warm_total`` is the best.
WARM_REPLAYS = 3

#: Environment variable of the synthetic-slowdown testing hook.
INJECT_ENV = "REPRO_PERF_INJECT"


def inject_env_slowdowns(wall_ms: Dict[str, float]) -> Dict[str, float]:
    """Apply the ``REPRO_PERF_INJECT`` hook to a wall-time dict."""
    spec = os.environ.get(INJECT_ENV, "").strip()
    if not spec:
        return wall_ms
    for entry in spec.split(","):
        stage, _, factor = entry.partition(":")
        stage = stage.strip()
        if stage in wall_ms:
            wall_ms[stage] = wall_ms[stage] * float(factor or 1.0)
    return wall_ms


def _stage_percentiles(tracer: obs.Tracer) -> Dict[str, Dict[str, float]]:
    """p50/p95/p99 (+count/mean) of each pipeline-stage span series."""
    out: Dict[str, Dict[str, float]] = {}
    for span_name in STAGE_SPANS:
        summary = tracer.metrics.histograms.get(span_name)
        if summary is None or not summary.count:
            continue
        stats = summary.to_dict()
        out[span_name.rsplit(".", 1)[-1]] = {
            key: stats[key] for key in ("count", "mean", "p50", "p95", "p99")}
    return out


def _warm_replay_ms(name: str, mach: LifeMachine, cache_dir: str,
                    engine: str) -> float:
    """One fresh runner replaying every request from the disk store."""
    runner = BenchmarkRunner(store=ArtifactStore(cache_dir), engine=engine)
    t0 = time.perf_counter()
    runner.compiled(name)
    for kind in Disambiguator:
        runner.view(name, kind, mach.memory_latency)
        runner.timing(name, kind, mach)
    return (time.perf_counter() - t0) * 1e3


def measure_benchmark(name: str, mach: LifeMachine, cache_dir: str,
                      engine: str = DEFAULT_ENGINE) -> Dict[str, object]:
    """One benchmark's cycles, SpD stats, per-stage wall-times and
    stage-span percentiles on *mach* (see the module docstring for the
    cold/warm/cleanup passes)."""
    memory_latency = mach.memory_latency
    runner = BenchmarkRunner(store=ArtifactStore(cache_dir), engine=engine)
    wall_ms: Dict[str, float] = {}
    cycles: Dict[str, int] = {}

    with obs.tracing() as tracer:
        started = time.perf_counter()
        t0 = started
        compiled = runner.compiled(name)
        wall_ms["compile_profile"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        for kind in Disambiguator:
            runner.view(name, kind, memory_latency)
        wall_ms["disambiguate"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        for kind in Disambiguator:
            cycles[kind.value] = runner.timing(name, kind, mach).cycles
        wall_ms["timing"] = (time.perf_counter() - t0) * 1e3
        wall_ms["total"] = (time.perf_counter() - started) * 1e3

        spec = runner.view(name, Disambiguator.SPEC, memory_latency)
        counters = {key: tracer.metrics.counters[key]
                    for key in TRACKED_COUNTERS
                    if key in tracer.metrics.counters}
        stage_spans = _stage_percentiles(tracer)

    wall_ms["warm_total"] = min(
        _warm_replay_ms(name, mach, cache_dir, engine)
        for _ in range(WARM_REPLAYS))

    # cleanup pass: rebuild the SPEC view with the default cleanup
    # pipeline (same store, so compile/profile are cache hits) and
    # record the post-DCE code size plus per-pass op deltas
    clean_runner = BenchmarkRunner(
        store=ArtifactStore(cache_dir),
        passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP),
        engine=engine)
    spec_clean = clean_runner.view(name, Disambiguator.SPEC, memory_latency)
    cleanup = {
        "code_size": spec_clean.code_size(),
        "ops_removed": spec.code_size() - spec_clean.code_size(),
        "pass_deltas": {report["pass"]: report["delta"]
                        for report in spec_clean.pass_stats},
    }

    inject_env_slowdowns(wall_ms)

    naive = cycles[Disambiguator.NAIVE.value]
    return {
        "ops": compiled.base_size,
        "cycles": cycles,
        "speedup_over_naive": {
            kind.value: round(naive / cycles[kind.value] - 1.0, 6)
            for kind in Disambiguator if cycles[kind.value]
        },
        "spd_applications": spd_count_names(spec),
        "code_growth": round(runner.code_growth(name, memory_latency), 6),
        "spec_code_size": spec.code_size(),
        "cleanup": cleanup,
        "wall_ms": {stage: round(ms, 2) for stage, ms in wall_ms.items()},
        "stage_spans": stage_spans,
        "counters": counters,
    }


def measure_benchmarks(names: Sequence[str], mach: LifeMachine,
                       progress: Optional[Callable[[str], None]] = None,
                       engine: str = DEFAULT_ENGINE
                       ) -> Dict[str, Dict[str, object]]:
    """Measure each of *names* on *mach* in a throwaway store; raises
    ``ValueError`` before measuring for a name outside ``SUITE`` or the
    infinite machine."""
    unknown = [name for name in names if name not in SUITE]
    if unknown:
        raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
    machine_entry(mach)  # the history record's finite-machine rule
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        with tempfile.TemporaryDirectory(prefix="repro-perf-") as cache_dir:
            results[name] = measure_benchmark(name, mach, cache_dir,
                                              engine=engine)
        if progress is not None:
            wall = results[name]["wall_ms"]
            progress(f"{name}: {wall['total']:.0f}ms cold, "
                     f"{wall['warm_total']:.0f}ms warm")
    return results
