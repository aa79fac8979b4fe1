"""The four workloads of the end-to-end benchmark.

Every entry point has the signature ``(seed, seconds, work, expected,
traced=False, **sizes) -> Round``: it sets up several times
(``setup_s`` is the median; a traced round, which does not report it,
sets up once), measures for about *seconds*, checks each
operation's output against *expected* (the parsed ``expected.json``)
outside the timed call, and returns the round's end-to-end metrics or,
when *traced*, its per-layer metrics.  *work* is a scratch directory
inside the checkout; keyword *sizes* shrink the inputs for tests.

Every workload has a cold path, where the work is computed, and a warm
path, where it is served from a cache:

============  =========================  =================================
workload      cold operation             warm operation
============  =========================  =================================
paper-cold    one stage call (compile,   the same call replayed by a
              profile, one of 4 views    fresh ``Pipeline`` from the
              or 4 timings) into an      disk store
              empty disk store
corpus-cold   one stage call of the      the same call replayed from
              ``repro bench --corpus``   the disk store
              job triple
hw-sweep      one view on the hardware   one of its stage calls
              simulator                  (compile, profile, view, hw
                                         timing) replayed from the
                                         disk store
serve-mixed   a ``/v1/time`` request     a request the service answered
              for a never-seen program   before (same payload or label)
============  =========================  =================================
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.suite import SUITE
from repro.corpus.manifest import (DEFAULT_MANIFEST_PATH, entry_source,
                                   load_manifest)
from repro.disambig.pipeline import Disambiguator
from repro.engines.jit import clear_code_cache
from repro.machine.description import machine
from repro.machine.hw import hw_machine
from repro.pipeline.artifacts import (DisambiguationArtifact,
                                      ProfileArtifact, TimingArtifact)
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore
from repro.serve.loadgen import build_shapes

import hostspeed
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The paper's Section 6 machine: 5 universal FUs, memory latency 6.
MACHINE = machine(5, 6)
NAIVE, SPEC = Disambiguator.NAIVE, Disambiguator.SPEC
#: The hw-sweep machines: kernels on 4 FUs with memory latency 2, the
#: corpus smoke slice on 4 FUs with memory latency 6.
HW_KERNELS = hw_machine(4, 2)
HW_SMOKE = hw_machine(4, 6)

#: Percentiles reported for each path.
TAIL = 90

_now = time.perf_counter_ns


@dataclass
class Round:
    """One workload-round: metrics plus the operations it checked."""

    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: span tables for ``trace.json`` (traced rounds only)
    trace: Optional[Dict[str, object]] = None


class _Samples:
    """Start times and durations (ns) of one path's operations."""

    def __init__(self) -> None:
        self.starts = array("q")
        self.durations = array("q")

    def __len__(self) -> int:
        return len(self.starts)

    def add(self, start: int, duration: int) -> None:
        self.starts.append(start)
        self.durations.append(duration)

    def extend(self, other: "_Samples") -> None:
        self.starts.extend(other.starts)
        self.durations.extend(other.durations)

    def total_ms(self) -> float:
        """Summed durations as measured."""
        return sum(self.durations) / 1e6

    def ms(self, meter: Optional[hostspeed.Meter]) -> List[float]:
        """Each duration in ms, divided by the host's slowdown when it
        ran (as measured without a *meter*)."""
        if meter is None:
            return [ns / 1e6 for ns in self.durations]
        return [ns / 1e6 / meter.slowdown(start, start + ns)
                for start, ns in zip(self.starts, self.durations)]


class _Tally:
    """Operation samples and check outcomes of one round.  With a
    *meter*, it probes the host before each operation and every
    end-to-end time is normalised by it (see ``hostspeed.py``)."""

    def __init__(self, meter: Optional[hostspeed.Meter]) -> None:
        self.meter = meter
        self.cold = _Samples()
        self.warm = _Samples()
        self.cold_units = 0.0
        #: (cold samples, cold units) so far at the end of each pass
        self.passes: List[Tuple[int, float]] = []
        #: throughput samples, when not per pass (serve-mixed: one per
        #: second, already normalised)
        self.rates: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def timed(self, samples: _Samples, label: str, call: Callable):
        """Run one operation and record its latency; ``None`` if it
        raised, which counts as failed."""
        self.attempted += 1
        if self.meter is not None:
            self.meter.tick()
        start = _now()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 — a failed operation
            self.fail(f"{label}: {type(error).__name__}: {error}")
            return None
        samples.add(start, _now() - start)
        return result

    def check(self, label: str, problem: Optional[str]) -> None:
        if problem:
            self.fail(f"{label}: {problem}")

    def end_pass(self) -> None:
        self.passes.append((len(self.cold), self.cold_units))

    def _pass_rates(self, cold_ms: List[float]) -> List[float]:
        """Cold units per cold second of each pass."""
        rates, done, units = [], 0, 0.0
        for end, total in self.passes:
            cold_s = sum(cold_ms[done:end]) / 1e3
            if cold_s:
                rates.append((total - units) / cold_s)
            done, units = end, total
        return rates

    def metrics(self, setup_s: float, rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics.  Throughput is the median of the
        per-pass (or per-second) rates, so a burst of host interference
        during one pass does not move it."""
        cold = self.cold.ms(self.meter)
        warm = self.warm.ms(self.meter)
        rates = self.rates or self._pass_rates(cold)

        def pct(values, q):
            return stats.percentile(values, q) if values else 0.0
        return {
            "setup_s": setup_s,
            "throughput_per_s": statistics.median(rates) if rates else 0.0,
            "cold_p50_ms": pct(cold, 50),
            "cold_p90_ms": pct(cold, TAIL),
            "warm_p50_ms": pct(warm, 50),
            "warm_p90_ms": pct(warm, TAIL),
            "peak_rss_mb": rss_mb,
        }

    def round(self, metrics: Dict[str, float],
              trace: Optional[Dict[str, object]] = None) -> Round:
        return Round(metrics, {"cold": len(self.cold),
                               "warm": len(self.warm)},
                     self.attempted, self.failed, self.problems, trace)


def _setup(setup: Callable, repeats: int, meter: Optional[hostspeed.Meter],
           discard: Optional[Callable] = None):
    """Run *setup* *repeats* times; (median seconds, last result).
    *setup* gets a callback to call between its steps.  With a *meter*
    the callback probes the host, and so do bursts before and after
    each set-up; those probes normalise its time.  Earlier results go
    to *discard*.  Every set-up starts from a collected heap, as in a
    fresh process."""
    tick = meter.tick if meter is not None else (lambda: None)
    times, state = [], None
    for _ in range(repeats):
        if state is not None and discard is not None:
            discard(state)
        state = None
        gc.collect()
        if meter is not None:
            meter.burst()
        start = _now()
        state = setup(tick)
        end = _now()
        slowdown = 1.0
        if meter is not None:
            meter.burst()
            slowdown = meter.slowdown(start, end)
        times.append((end - start) / 1e9 / slowdown)
    return statistics.median(times), state


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- expected outputs -------------------------------------------------------------

def output_digest(reference) -> str:
    """sha256 of a run's printed output and return value."""
    data = json.dumps([reference.output, reference.return_value])
    return hashlib.sha256(data.encode()).hexdigest()


def facts(artifacts: list) -> Dict[str, object]:
    """What ``expected.json`` pins for one program, from the artifacts
    its flow returned: cycles of each timed view, the SPEC view's code
    size and SpD counts, and the profile run's output digest."""
    def of_type(kind: type) -> list:
        return [each for each in artifacts if isinstance(each, kind)]

    spec = next(view for view in of_type(DisambiguationArtifact)
                if view.kind is SPEC)
    return {
        "cycles": {timing.kind.value: timing.cycles
                   for timing in of_type(TimingArtifact)},
        "spec_code_size": spec.code_size(),
        "spd_counts": {kind.value: count
                       for kind, count in spec.spd_counts().items()},
        "output": output_digest(of_type(ProfileArtifact)[0].reference),
    }


def _mismatch(actual: Dict[str, object],
              pinned: Optional[Dict[str, object]]) -> Optional[str]:
    if pinned is None:
        return "not in expected.json"
    for key, value in pinned.items():
        if actual.get(key) != value:
            return f"{key} {actual.get(key)!r} != expected {value!r}"
    return None


def _paper_flow(pipe: Pipeline, label: str, source: str) -> List[Callable]:
    """The Section 6 flow for one kernel as its stage calls: compile,
    profile, the 4 views, the 4 timings on ``MACHINE``."""
    latency = MACHINE.memory_latency
    return ([partial(pipe.compiled, label, source),
             partial(pipe.profile, label, source)]
            + [partial(pipe.view, label, source, kind, latency)
               for kind in Disambiguator]
            + [partial(pipe.timing, label, source, kind, MACHINE)
               for kind in Disambiguator])


def _corpus_flow(pipe: Pipeline, label: str, source: str) -> List[Callable]:
    """The ``repro bench --corpus`` job triple for one program (SPEC
    view, NAIVE and SPEC timings) as its stage calls: compile, profile,
    the SPEC and NAIVE views, the two timings on ``MACHINE``."""
    latency = MACHINE.memory_latency
    return [partial(pipe.compiled, label, source),
            partial(pipe.profile, label, source),
            partial(pipe.view, label, source, SPEC, latency),
            partial(pipe.view, label, source, NAIVE, latency),
            partial(pipe.timing, label, source, NAIVE, MACHINE),
            partial(pipe.timing, label, source, SPEC, MACHINE)]


def _hw_flow(pipe: Pipeline, label: str, source: str, kind: Disambiguator,
             mach) -> List[Callable]:
    """One hw-sweep cell as its stage calls, ending in its hardware
    timing."""
    return [partial(pipe.compiled, label, source),
            partial(pipe.profile, label, source),
            partial(pipe.view, label, source, kind, mach.memory_latency),
            partial(pipe.hw_timing, label, source, kind, mach)]


def _hw_timing_only(pipe: Pipeline, label: str, source: str,
                    kind: Disambiguator, mach) -> List[Callable]:
    return [partial(pipe.hw_timing, label, source, kind, mach)]


def hw_key(label: str, kind: Disambiguator, mach) -> str:
    return f"{label}/{kind.value}/{mach.name}"


def hw_facts(artifact) -> Dict[str, int]:
    return {"cycles": artifact.cycles,
            "slots_used": artifact.timing.stats["slots_used"],
            "squashes": artifact.timing.stats["squashes"]}


def _manifest():
    return load_manifest(ROOT / DEFAULT_MANIFEST_PATH)


def hw_cells(manifest) -> List[Tuple[str, str, Disambiguator, object]]:
    """NAIVE and SPEC of every kernel on ``HW_KERNELS``, then SPEC of
    the corpus smoke slice on ``HW_SMOKE``."""
    cells = [(name, bench.source, kind, HW_KERNELS)
             for name, bench in SUITE.items() for kind in (NAIVE, SPEC)]
    cells += [(entry["id"], entry_source(manifest, entry), SPEC, HW_SMOKE)
              for entry in manifest["entries"] if entry.get("smoke")]
    return cells


def build_expected(work: Path, progress: Callable[[str], None]) -> dict:
    """Recompute every pinned value (``run.py --update-expected``).

    Cycles, code sizes and SpD counts come from the default engine;
    output digests from the reference interpreter (``engine="interp"``),
    so the check also holds the JIT to the interpreter.  The corpus is
    also ordered by each program's measured cold-flow time: workloads
    sample it by cost bins so that every seed draws the same mix of
    cheap and expensive programs.
    """
    def reference_digest(label: str, source: str) -> str:
        interp = Pipeline(store=ArtifactStore(None), engine="interp")
        return output_digest(interp.profile(label, source).reference)

    kernels = {}
    for name, bench in SUITE.items():
        pipe = Pipeline(store=ArtifactStore(None))
        kernels[name] = facts(
            [call() for call in _paper_flow(pipe, name, bench.source)])
        kernels[name]["output"] = reference_digest(name, bench.source)
    progress("kernels pinned")

    manifest = _manifest()
    corpus, cost = {}, {}
    root = _scratch(work)
    for index, entry in enumerate(manifest["entries"]):
        source = entry_source(manifest, entry)
        pipe = Pipeline(store=ArtifactStore(root))
        calls = _corpus_flow(pipe, entry["id"], source)
        start = _now()
        results = [call() for call in calls]
        cost[entry["id"]] = _now() - start
        corpus[entry["id"]] = facts(results)
        corpus[entry["id"]]["output"] = reference_digest(entry["id"], source)
        if (index + 1) % 100 == 0:
            progress(f"corpus {index + 1}/{len(manifest['entries'])}")
    shutil.rmtree(root)

    hw = {}
    pipe = Pipeline(store=ArtifactStore(None))
    for label, source, kind, mach in hw_cells(manifest):
        hw[hw_key(label, kind, mach)] = hw_facts(
            pipe.hw_timing(label, source, kind, mach))
    progress("hw cells pinned")
    return {"schema": "e2e-expected/1", "machine": MACHINE.name,
            "kernels": kernels, "corpus": corpus, "hw": hw,
            "corpus_by_cost": sorted(cost, key=lambda key: (cost[key], key))}


# -- seeded inputs ----------------------------------------------------------------

def _cost_bins(by_cost: List[str], count: int,
               rng: random.Random) -> List[List[str]]:
    """*by_cost* cut into *count* consecutive bins, each shuffled."""
    total = len(by_cost)
    bins = [by_cost[i * total // count:(i + 1) * total // count]
            for i in range(count)]
    for each in bins:
        rng.shuffle(each)
    return bins


def corpus_batches(by_cost: List[str], seed: int,
                   batch_size: int) -> List[List[str]]:
    """Seeded corpus batches: batch *j* takes the *j*-th pick of every
    one of *batch_size* cost bins, so each batch, and any run of whole
    batches, holds the same mix of cheap and expensive programs."""
    rng = random.Random(f"corpus-cold:{seed}")
    bins = _cost_bins(by_cost, batch_size, rng)
    batches = [[each[j] for each in bins]
               for j in range(min(len(each) for each in bins))]
    for batch in batches:
        rng.shuffle(batch)
    return batches


def serve_misses(by_cost: List[str], seed: int, count: int) -> List[str]:
    """*count* never-seen corpus programs, one from each cost bin of the
    cheaper :data:`MISS_POPULATION` programs, in seeded order."""
    rng = random.Random(f"serve-miss:{seed}")
    picks = [each[0] for each in
             _cost_bins(by_cost[:MISS_POPULATION], count, rng)]
    rng.shuffle(picks)
    return picks


# -- the pipeline workloads ------------------------------------------------------

def _facts_check(pinned: dict) -> Callable:
    return lambda key, results: _mismatch(facts(results), pinned.get(key))


def _cold_then_replays(tally: _Tally, root: Path, programs, flow: Callable,
                       check: Callable, replays: int, *,
                       cold_flow: Optional[Callable] = None,
                       units: Optional[Callable] = None,
                       memory=()) -> None:
    """One pass: every program's *flow* into the disk store at *root*,
    then *replays* fresh pipelines replaying the same calls from that
    store.  Each stage call is one operation: cold where it computes
    its stage, warm where it is replayed.  *programs* holds ``(key,
    flow arguments)`` pairs and *check* maps a key and its calls'
    results to a problem or ``None``.  *units* counts a program's cold
    work (default 1).  *cold_flow* replaces *flow* in the cold pipeline,
    which starts with the ``(stage, artifact)`` pairs of *memory* in its
    memory tier.  *root* is removed afterwards."""
    # the previous pass's replays leave garbage whose collection would
    # otherwise land on whichever cold operation comes first; a cold run
    # in a fresh process has none
    gc.collect()
    pipe = Pipeline(store=ArtifactStore(root))
    for stage, artifact in memory:
        pipe.store.put_memory(stage, artifact.fingerprint, artifact)
    for key, args in programs:
        results = [tally.timed(tally.cold, key, call)
                   for call in (cold_flow or flow)(pipe, *args)]
        if None not in results:
            tally.cold_units += units(results) if units else 1
            tally.check(key, check(key, results))
    for _ in range(replays):
        pipe = Pipeline(store=ArtifactStore(root))
        for key, args in programs:
            results = [tally.timed(tally.warm, key, call)
                       for call in flow(pipe, *args)]
            if None not in results:
                tally.check(key, check(key, results))
    shutil.rmtree(root)


def _pipeline_round(setup: Callable, measure: Callable[[_Tally], bool],
                    seconds: float, setup_repeats: int, traced: bool,
                    setup_result: Optional[list] = None) -> Round:
    """Set up, then run *measure* passes until *seconds* have passed
    and the cold path has enough samples for its tail percentile, or
    until a pass reports no work left.  A pass's rate is its cold units
    over the summed time of its cold operations.  An untraced round
    normalises its times by the host's speed."""
    recorder = tracing.Recorder() if traced else None
    cost_ns = tracing.span_cost_ns() if traced else 0.0
    if recorder is not None:
        tracing.install_pipeline(recorder)
    tally = _Tally(None if traced else hostspeed.Meter())
    try:
        setup_s, state = _setup(setup, 1 if traced else setup_repeats,
                                tally.meter)
        if setup_result is not None:
            setup_result.append(state)
        since = _now()
        deadline = since + seconds * 1e9
        more = True
        while more:
            more = measure(tally) and (
                _now() < deadline
                or not stats.supported(len(tally.cold), TAIL))
            tally.end_pass()
        if tally.meter is not None:
            # probes after the last operations, as before the first
            tally.meter.burst()
    finally:
        if recorder is not None:
            recorder.uninstall()
    metrics = tally.metrics(setup_s, _own_rss_mb())
    if recorder is None:
        return tally.round(metrics)
    until = _now()
    wall_ms = tally.cold.total_ms() + tally.warm.total_ms()
    layers = tracing.pipeline_layers([recorder.spans], since, until,
                                     wall_ms, cost_ns)
    return tally.round(layers, {"window_ns": [since, until],
                                "processes": {str(os.getpid()):
                                              recorder.spans.columns()}})


def _scratch(work: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=work))


def paper_cold(seed: int, seconds: float, work: Path, expected: dict,
               traced: bool = False, *, kernels=None, setup_repeats: int = 3,
               replays: int = 2) -> Round:
    """All 14 kernels through the Section 6 flow into an empty disk
    store, then *replays* fresh ``Pipeline`` replays from that store.
    The kernels are fixed inputs: *seed* changes nothing."""
    del seed
    programs = [(name, (name, SUITE[name].source))
                for name in (kernels or SUITE)]
    check = _facts_check(expected["kernels"])

    def setup(tick: Callable[[], None]) -> None:
        # the untimed pass warms the JIT, so every timed pass is alike
        clear_code_cache()
        pipe = Pipeline(store=ArtifactStore(None))
        for _, args in programs:
            for call in _paper_flow(pipe, *args):
                tick()
                call()

    def measure(tally: _Tally) -> bool:
        _cold_then_replays(tally, _scratch(work), programs, _paper_flow,
                           check, replays)
        return True

    return _pipeline_round(setup, measure, seconds, setup_repeats, traced)


def corpus_cold(seed: int, seconds: float, work: Path, expected: dict,
                traced: bool = False, *, batch_size: int = 50,
                population: Optional[int] = None, setup_repeats: int = 3,
                replays: int = 2) -> Round:
    """Seeded batches of corpus programs (one per cost bin) through the
    ``repro bench --corpus`` job triple into an empty disk store, each
    batch then replayed *replays* times.  *population* keeps only that
    many of the cheapest programs (for tests)."""
    by_cost = expected["corpus_by_cost"][:population]
    batches = corpus_batches(by_cost, seed, batch_size)
    check = _facts_check(expected["corpus"])
    queue: List[list] = []

    def setup(tick: Callable[[], None]) -> List[list]:
        manifest = _manifest()
        entries = {entry["id"]: entry for entry in manifest["entries"]}
        sources = []
        for batch in batches:
            tick()
            sources.append([(label, (label, entry_source(
                manifest, entries[label]))) for label in batch])
        return sources

    def measure(tally: _Tally) -> bool:
        _cold_then_replays(tally, _scratch(work), queue[0].pop(0),
                           _corpus_flow, check, replays)
        return bool(queue[0])

    return _pipeline_round(setup, measure, seconds, setup_repeats, traced,
                           setup_result=queue)


def hw_sweep(seed: int, seconds: float, work: Path, expected: dict,
             traced: bool = False, *, cells=None, setup_repeats: int = 3,
             replays: int = 2) -> Round:
    """Every hw-sweep cell through ``Pipeline.hw_timing`` with its
    compiled program, profile and view built during set-up, so the
    hardware simulator does the timed work.  Each pass starts with an
    empty JIT code cache (a cold ``repro hwcompare`` pays that code
    generation too) and a store holding only the set-up's artifacts,
    then replays every cell's stage calls *replays* times.  The cells
    are fixed inputs: *seed* changes nothing."""
    del seed
    pinned = expected["hw"]
    prebuilt: List[tuple] = []

    def check(key: str, results: list) -> Optional[str]:
        return _mismatch(hw_facts(results[-1]), pinned.get(key))

    def setup(tick: Callable[[], None]) -> tuple:
        clear_code_cache()
        chosen = cells if cells is not None else hw_cells(_manifest())
        root = _scratch(work)
        pipe = Pipeline(store=ArtifactStore(root))
        artifacts = {}
        for label, source, kind, mach in chosen:
            tick()
            for stage, artifact in (
                    ("compiled", pipe.compiled(label, source)),
                    ("profile", pipe.profile(label, source)),
                    ("view", pipe.view(label, source, kind,
                                       mach.memory_latency))):
                artifacts[artifact.fingerprint] = (stage, artifact)
        programs = [(hw_key(label, kind, mach), (label, source, kind, mach))
                    for label, source, kind, mach in chosen]
        return programs, list(artifacts.values()), root

    def measure(tally: _Tally) -> bool:
        programs, artifacts, seeded = prebuilt[0]
        clear_code_cache()
        root = _scratch(work)
        shutil.copytree(seeded, root, dirs_exist_ok=True)
        _cold_then_replays(
            tally, root, programs, _hw_flow, check, replays,
            cold_flow=_hw_timing_only,
            units=lambda results: results[-1].timing.stats["slots_used"],
            memory=artifacts)
        return True

    return _pipeline_round(setup, measure, seconds, setup_repeats, traced,
                           setup_result=prebuilt)


# -- serve-mixed -----------------------------------------------------------------

#: /v1/time misses draw from this many of the cheapest corpus programs,
#: so one miss stays well inside the gap between two misses.
MISS_POPULATION = 600
#: Length of each client's seeded (shape, exact-repeat) sequence; the
#: client cycles through it.
SEQUENCE = 4096
#: Closed-loop clients, one keep-alive connection each.
CLIENTS = 2


def _http_post(endpoint: str, body: bytes) -> bytes:
    return (b"POST /v1/%s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (endpoint.encode(), len(body))) + body


@dataclass
class ServePlan:
    """Every request of a serve-mixed round, encoded before it starts."""

    #: one request per shape: the warm-up, and the exact-repeat hit
    exact: List[bytes]
    #: per client, per shape: (head, tail) around a 9-digit counter that
    #: makes the label, and so the request, new
    relabel: List[List[Tuple[bytes, bytes]]]
    #: per client: cycled (shape index, exact repeat?) choices
    sequences: List[List[Tuple[int, bool]]]
    #: (corpus id, request) of every /v1/time miss
    misses: List[Tuple[str, bytes]]


def serve_plan(seed: int, by_cost: List[str], misses: int,
               manifest) -> ServePlan:
    """The seeded request mix: a seeded order over the hit shapes, half
    repeated exactly and half under a new label, and :func:`serve_misses`
    programs for the misses.

    The hit shapes are always ``build_shapes(0)``: the shape pool mixes
    endpoints whose costs differ tenfold, so a per-seed pool moved
    requests/s and set-up time by more than the bounds from one seed to
    the next."""
    shapes = build_shapes(0)
    exact, relabel = [], [[] for _ in range(CLIENTS)]
    for endpoint, payload in shapes:
        exact.append(_http_post(endpoint, json.dumps(payload).encode()))
        rest = json.dumps({key: value for key, value in payload.items()
                           if key != "label"}).encode()[1:]
        for client in range(CLIENTS):
            head = b'{"label":"e2e-%d-' % client
            tail = b'",' + rest
            request = _http_post(endpoint, head + b"0" * 9 + tail)
            split = request.index(head) + len(head)
            relabel[client].append((request[:split], request[split + 9:]))
    sequences = []
    for client in range(CLIENTS):
        rng = random.Random(f"serve-mixed:{seed}:{client}")
        sequences.append([(rng.randrange(len(shapes)), rng.random() < 0.5)
                          for _ in range(SEQUENCE)])
    entries = {entry["id"]: entry for entry in manifest["entries"]}
    miss_requests = []
    for label in serve_misses(by_cost, seed, misses):
        payload = {"label": f"e2e-miss/{label}",
                   "source": entry_source(manifest, entries[label]),
                   "kind": SPEC.value,
                   "machine": {"fus": MACHINE.num_fus,
                               "memory": MACHINE.memory_latency}}
        miss_requests.append(
            (label, _http_post("time", json.dumps(payload).encode())))
    return ServePlan(exact, relabel, sequences, miss_requests)


def _exchange(sock: socket.socket, request: bytes) -> Tuple[int, bytes]:
    """Send one request, read one response: (status, body)."""
    sock.sendall(request)
    data = b""
    while True:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    at = data.index(b"Content-Length: ", 0, head_end) + 16
    length = int(data[at:data.index(b"\r\n", at)])
    end = head_end + 4 + length
    while len(data) < end:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return int(data[9:12]), data[head_end + 4:end]


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=300)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Server:
    """One ``repro serve`` subprocess run by ``serve_host.py``."""

    def __init__(self, work: Path, trace_dir: Optional[Path]) -> None:
        self.dir = _scratch(work)
        command = [sys.executable, str(HERE / "serve_host.py"),
                   str(self.dir / "cache")]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        else:
            command += ["--speed", str(self.dir / "speed.json")]
        self.log = open(self.dir / "server.log", "w")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self.log, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"serve host did not start: {line!r}")
        self.port = int(match.group(1))

    def workers(self) -> List[int]:
        pid = self.process.pid
        pids: List[int] = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(child) for child in handle.read().split())
        return pids

    def cpu_ms(self) -> float:
        """User plus system CPU of the server process, all threads."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return ((int(fields[11]) + int(fields[12])) * 1e3
                / os.sysconf("SC_CLK_TCK"))

    def stop(self) -> "_Stopped":
        """SIGINT, then reap with ``wait4``.  Leftover workers are
        killed so the run leaves nothing behind.  Signals go through
        ``os.kill``: ``Popen.send_signal`` would reap the exited server
        and lose its resource usage."""
        pid = self.process.pid
        try:
            workers = self.workers()
        except OSError:
            workers = []
        os.kill(pid, signal.SIGINT)
        deadline = time.monotonic() + 60
        while True:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.01)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        leftovers = [worker for worker in workers if _still_running(worker)]
        for worker in leftovers:
            os.kill(worker, signal.SIGKILL)
        self.process.stdout.close()
        self.log.close()
        speed = self.dir / "speed.json"
        probes = json.loads(speed.read_text()) if speed.exists() else []
        shutil.rmtree(self.dir)
        return _Stopped(usage.ru_maxrss / 1024, self.process.returncode,
                        workers, leftovers, probes)


class _Stopped(NamedTuple):
    """What a stopped server leaves to check and measure."""

    #: peak RSS of the server process, MiB
    rss_mb: float
    #: its exit code (negative: the signal that ended it)
    code: int
    #: its pool workers, and those still alive after it exited
    workers: List[int]
    leftovers: List[int]
    #: the server's host-speed probe samples (untraced rounds)
    probes: List[Tuple[int, float]]


def _still_running(pid: int, timeout: float = 10.0) -> bool:
    """Whether *pid* is still alive (not gone, not a zombie) after
    waiting up to *timeout* seconds for it to exit."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state in ("Z", "X"):
            return False
        if time.monotonic() > deadline:
            return True
        time.sleep(0.02)


class _ClientLog:
    """One client thread's requests: latencies, completion times,
    bodies, CPU time, and its host-speed probes (untraced rounds)."""

    def __init__(self, meter: Optional[hostspeed.Meter]) -> None:
        self.meter = meter
        self.hits = _Samples()
        self.misses = _Samples()
        self.done_ns = array("q")
        self.miss_bodies: Dict[int, bytes] = {}
        self.cpu_ns = 0
        self.failures: List[str] = []
        #: requests sent, counting one that raised
        self.attempted = 0
        self.failed = 0


def _client(port: int, plan: ServePlan, client: int, deadline: int,
            miss_due: List[Tuple[int, int]], reference: List[bytes],
            log: _ClientLog) -> None:
    """Closed loop on one connection until *deadline*: each due miss
    (due time, miss index) goes first, otherwise the next hit."""
    sequence = plan.sequences[client]
    relabel = plan.relabel[client]
    counter = next_miss = 0
    cpu_start = time.thread_time_ns()
    sock = _connect(port)
    try:
        while True:
            now = _now()
            if next_miss < len(miss_due) and now >= miss_due[next_miss][0]:
                index = miss_due[next_miss][1]
                next_miss += 1
                request, shape = plan.misses[index][1], -1
            elif now >= deadline:
                break
            else:
                shape, exact = sequence[counter % SEQUENCE]
                if exact:
                    request = plan.exact[shape]
                else:
                    head, tail = relabel[shape]
                    request = head + b"%09d" % counter + tail
                counter += 1
            log.attempted += 1
            if log.meter is not None:
                log.meter.tick()
            start = _now()
            status, body = _exchange(sock, request)
            done = _now()
            log.done_ns.append(done)
            if shape < 0:
                log.misses.add(start, done - start)
                log.miss_bodies[index] = body
            else:
                log.hits.add(start, done - start)
            if status != 200 or (shape >= 0 and body != reference[shape]):
                log.failed += 1
                if len(log.failures) < 5:
                    log.failures.append(
                        f"client {client}: status {status}, body "
                        f"{body[:120]!r} differs from the first response")
    except (OSError, ValueError) as error:
        log.failed += 1
        log.failures.append(f"client {client}: {type(error).__name__}: "
                            f"{error}")
    finally:
        sock.close()
        log.cpu_ns = time.thread_time_ns() - cpu_start


def _get_json(port: int, path: str) -> dict:
    sock = _connect(port)
    try:
        sock.sendall(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                     % path.encode())
        status, body = _exchange(sock, b"")
    finally:
        sock.close()
    if status != 200:
        raise RuntimeError(f"GET {path}: status {status}")
    return json.loads(body)


def _stats_counters(port: int) -> Dict[str, float]:
    metrics = _get_json(port, "/v1/stats")["metrics"]
    counters = metrics["counters"]
    batch = metrics["histograms"].get("serve.batch_size", {})
    return {"requests": counters.get("serve.requests", 0),
            "response_hits": counters.get("serve.response_hits", 0),
            "batch_count": batch.get("count", 0),
            "batch_total": batch.get("total", 0.0)}


def serve_mixed(seed: int, seconds: float, work: Path, expected: dict,
                traced: bool = False, *, misses: int = 120,
                setup_repeats: int = 5) -> Round:
    """A fresh ``repro serve`` (2 workers, empty cache) under 2
    closed-loop raw-socket clients for *seconds*.  Set-up starts the
    server and requests every hit shape once; the measured loop then
    sends hits (half exact repeats, half new labels) and *misses*
    never-seen corpus programs to ``/v1/time``, spread evenly over the
    window.  Throughput is the median of the per-second request counts.
    The server is stopped with SIGINT and its pool workers must have
    exited.  An untraced round normalises its times and rates by the
    host speed that the clients and the server measure.

    Set-up time alone is not normalised.  Its work runs in the new
    server and its workers while this process waits, so probes here
    measure an idle core and not the one doing the work; normalising by
    them widened the spread.  It is the median of 5 set-ups, not 3,
    because one set-up is cheap and varies by about 10%."""
    manifest = _manifest()
    plan = serve_plan(seed, expected["corpus_by_cost"], misses, manifest)
    pinned = expected["corpus"]
    trace_dir = work / "serve-trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    tally = _Tally(None if traced else hostspeed.Meter())

    def setup(_: Callable[[], None]) -> tuple:
        server = _Server(work, trace_dir)
        try:
            sock = _connect(server.port)
            try:
                reference = []
                for request in plan.exact:
                    status, body = _exchange(sock, request)
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up request failed: {body!r}")
                    reference.append(body)
            finally:
                sock.close()
        except BaseException:
            server.stop()
            raise
        return server, reference

    def discard(state) -> None:
        _count_shutdown(tally, state[0].stop())

    cost_ns = tracing.span_cost_ns() if traced else 0.0
    setup_s, (server, reference) = _setup(
        setup, 1 if traced else setup_repeats, None, discard)
    try:
        before = _stats_counters(server.port) if traced else None
        cpu_before = server.cpu_ms()
        logs = [_ClientLog(None if traced else hostspeed.Meter())
                for _ in range(CLIENTS)]
        since = _now()
        window = seconds * 1e9
        due = [(int(since + (index + 0.5) * window / misses), index)
               for index in range(misses)]
        threads = [threading.Thread(
            target=_client, name=f"e2e-client-{client}",
            args=(server.port, plan, client, int(since + window),
                  due[client::CLIENTS], reference, logs[client]))
            for client in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        until = _now()
        server_cpu_ms = server.cpu_ms() - cpu_before
        delta = None
        if traced:
            after = _stats_counters(server.port)
            delta = {key: after[key] - before[key] for key in after}
    finally:
        stopped = server.stop()
    _count_shutdown(tally, stopped)

    for log in logs:
        tally.attempted += log.attempted
        tally.failed += log.failed
        tally.problems.extend(log.failures)
        tally.warm.extend(log.hits)
        tally.cold.extend(log.misses)
        if tally.meter is not None:
            tally.meter.merge(log.meter.samples())
        for index, body in log.miss_bodies.items():
            label = plan.misses[index][0]
            problem = _miss_problem(body, pinned[label])
            if problem:
                tally.fail(f"miss {label}: {problem}")
    sent = sum(len(log.miss_bodies) for log in logs)
    if sent != misses:
        tally.fail(f"only {sent} of {misses} misses were sent")
    if tally.meter is not None:
        tally.meter.merge(stopped.probes)
    requests = len(tally.warm) + len(tally.cold)
    tally.rates = _per_second([log.done_ns for log in logs], since, until,
                              tally.meter)
    if not traced:
        return tally.round(tally.metrics(setup_s, stopped.rss_mb))
    server_spans = tracing.Spans()
    dump = json.loads((trace_dir / "server.json").read_text())
    server_spans.extend(dump["spans"])
    workers = tracing.load_worker_spans(trace_dir)
    layers = tracing.serve_layers(
        server_spans, workers, since, until, requests=requests,
        latency_ms=tally.warm.total_ms() + tally.cold.total_ms(),
        server_cpu_ms=server_cpu_ms,
        client_cpu_ms=sum(log.cpu_ns for log in logs) / 1e6,
        stats_delta=delta, cost_ns=cost_ns)
    processes = {"server": server_spans.columns()}
    for index, spans in enumerate(workers):
        processes[f"worker-{index}"] = spans.columns()
    return tally.round(layers, {"window_ns": [since, until],
                                "processes": processes})


def _per_second(done: List[array], since: int, until: int,
                meter: Optional[hostspeed.Meter]) -> List[float]:
    """Requests completed in each whole second of [*since*, *until*],
    each count multiplied by the host's slowdown in its second when
    there is a *meter*; the mean rate when the window is shorter than a
    second."""
    seconds = int((until - since) // 1e9)
    if seconds == 0:
        rate = sum(map(len, done)) / ((until - since) / 1e9)
        return [rate * (meter.slowdown(since, until) if meter else 1.0)]
    counts = [0.0] * seconds
    for times in done:
        for end in times:
            second = int((end - since) // 1e9)
            if second < seconds:
                counts[second] += 1
    if meter is not None:
        counts = [count * meter.slowdown(int(since + second * 1e9),
                                         int(since + (second + 1) * 1e9))
                  for second, count in enumerate(counts)]
    return counts


def _count_shutdown(tally: _Tally, stopped: _Stopped) -> None:
    """Each pool worker is one checked operation: it must exit with
    the server."""
    tally.attempted += len(stopped.workers)
    for pid in stopped.leftovers:
        tally.fail(f"pool worker {pid} outlived the server (exit code "
                   f"{stopped.code})")


def _miss_problem(body: bytes, pinned: dict) -> Optional[str]:
    try:
        cycles = json.loads(body)["result"]["cycles"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable response {body[:120]!r}"
    if cycles != pinned["cycles"][SPEC.value]:
        return f"cycles {cycles} != expected {pinned['cycles']['spec']}"
    return None


WORKLOADS: Dict[str, Callable[..., Round]] = {
    "paper-cold": paper_cold,
    "corpus-cold": corpus_cold,
    "hw-sweep": hw_sweep,
    "serve-mixed": serve_mixed,
}
