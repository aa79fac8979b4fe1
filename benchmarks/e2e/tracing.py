"""Per-layer tracing from outside the program.

The traced run measures each layer by timing calls into its public
entry points; nothing under ``src/`` is edited and ``repro.obs`` stays
off.  Before any work, :func:`install_pipeline` swaps wrappers into

* the names :mod:`repro.pipeline.core` calls its layers through:
  ``compile_source`` (span ``frontend``), ``run_program``
  (``engines.profile`` when it collects a profile, ``engines.validate``
  when it re-runs a SPEC view without one), ``disambiguate``
  (``disambig.<kind>``), ``evaluate_program`` (``sim``) and
  ``simulate_program`` (``hwsim``);
* ``ArtifactStore.get``/``put`` (``store.get``/``store.put``) and the
  ``Pipeline`` stage methods (``pipeline.<method>``);

and :func:`install_serve` adds ``CompileService.handle``
(``serve.handle``) and the ``parse_request``/``make_plan`` names the
service module calls (``serve.parse``, ``serve.plan``).

A span is (name, start, end, parent, request id): times are
``perf_counter_ns`` readings, which on Linux all processes take from
one monotonic clock, so server, worker and client times line up.  The
request id is the ``label`` a request or stage call carries; child
spans inherit it.  Spans stay in memory in columnar arrays and are
written out when the run ends.  Processes forked from a traced serve
host (the pool workers) inherit the wrappers and append their spans to
one JSON-lines file per pid each time a top-level span ends.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

_now = time.perf_counter_ns

#: Every per-layer metric, in output order.  ``*.busy_ms`` is the
#: layer's summed span time in the measured window and ``*.share`` that
#: time over the workload's measured wall time.
PER_LAYER = (
    "frontend.busy_ms", "frontend.share", "frontend.calls",
    "engines.profile.busy_ms", "engines.profile.share",
    "engines.validate.busy_ms", "engines.validate.share",
    "disambig.busy_ms", "disambig.share",
    "disambig.spec.busy_ms", "disambig.spec.share",
    "disambig.spd_applications",
    "sim.busy_ms", "sim.share",
    "pipeline.store.get_ms", "pipeline.store.put_ms",
    "pipeline.store.hit_ratio", "pipeline.self_ms",
    "hwsim.busy_ms", "hwsim.share", "hwsim.memo_hit_ratio",
    "hwsim.slots", "hwsim.squashes",
    "serve.server.cpu_us", "serve.http.cpu_us", "serve.service.hit_us",
    "serve.plan.busy_us", "serve.response_hit_ratio",
    "serve.queue.wait_ms", "serve.worker.busy_ms", "serve.worker.share",
    "serve.batch_size_mean", "loadgen.client.cpu_us",
    "unattributed.share", "trace.overhead_pct",
)

_STAGES = ("compiled", "profile", "view", "timing", "hw_timing")


class Spans:
    """Columnar span storage: one entry per span, parents by index."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests: List[Optional[str]] = []
        self.extras: List[object] = []

    def __len__(self) -> int:
        return len(self.names)

    def columns(self, since: int = 0) -> Dict[str, list]:
        return {"names": self.names[since:],
                "starts": self.starts[since:].tolist(),
                "ends": self.ends[since:].tolist(),
                "parents": self.parents[since:].tolist(),
                "requests": self.requests[since:],
                "extras": self.extras[since:]}

    def extend(self, columns: Dict[str, list]) -> None:
        self.names.extend(columns["names"])
        self.starts.extend(columns["starts"])
        self.ends.extend(columns["ends"])
        self.parents.extend(columns["parents"])
        self.requests.extend(columns["requests"])
        self.extras.extend(columns["extras"])


class Recorder:
    """Records spans for the wrappers it hands out.

    With *sink_dir*, a process forked after installation starts with
    no spans and appends every finished top-level span tree to
    ``<sink_dir>/worker-<pid>.jsonl``.
    """

    def __init__(self, sink_dir: Optional[Path] = None) -> None:
        self.spans = Spans()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None)
        self._sink_dir = sink_dir
        self._sink: Optional[Path] = None
        self._flushed = 0
        self._undo: List[Callable[[], None]] = []
        if sink_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = Spans()
        self._current.set(None)
        self._flushed = 0
        self._sink = self._sink_dir / f"worker-{os.getpid()}.jsonl"

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str, request: Optional[str]):
        spans = self.spans
        parent = self._current.get()
        index = len(spans.names)
        if parent is None:
            spans.parents.append(-1)
        else:
            spans.parents.append(parent[0])
            if request is None:
                request = parent[1]
        spans.names.append(name)
        spans.requests.append(request)
        spans.extras.append(None)
        spans.ends.append(0)
        token = self._current.set((index, request))
        spans.starts.append(_now())
        return index, token

    def _close(self, index: int, token) -> None:
        spans = self.spans
        spans.ends[index] = _now()
        self._current.reset(token)
        if self._sink is not None and spans.parents[index] < 0:
            with open(self._sink, "a") as handle:
                handle.write(json.dumps(spans.columns(self._flushed)) + "\n")
            self._flushed = len(spans)

    def wrap(self, name, fn: Callable, request: Optional[Callable] = None,
             extra: Optional[Callable] = None) -> Callable:
        """*fn* recorded as a span.  *name* is a string or a function of
        ``(args, kwargs)``; *request* picks the request id from the
        arguments and *extra* a value to keep from the result."""
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            rid = request(args, kwargs) if request is not None else None
            index, token = self._open(span_name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, token)
            if extra is not None:
                self.spans.extras[index] = extra(result)
            return result
        return traced

    def wrap_async(self, name: str, fn: Callable, request: Callable,
                   extra: Callable) -> Callable:
        async def traced(*args, **kwargs):
            index, token = self._open(name, request(args, kwargs))
            try:
                result = await fn(*args, **kwargs)
            finally:
                self._close(index, token)
            self.spans.extras[index] = extra(result)
            return result
        return traced

    def patch(self, owner, attribute: str, wrapper: Callable) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, wrapper)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        """Put every patched name back."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path: Path) -> None:
        """Write this process's spans as JSON."""
        path.write_text(json.dumps({"spans": self.spans.columns()}))


# -- installation ---------------------------------------------------------------

def _engine_span(args, kwargs) -> str:
    collect = kwargs.get("collect_profile", args[2] if len(args) > 2 else True)
    return "engines.profile" if collect else "engines.validate"


def _disambig_span(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return f"disambig.{kind.value}"


def _stage_label(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["label"]


def _hw_stats(run) -> list:
    stats = run.timing.stats
    return [stats["slots_used"], stats["squashes"], stats["memo_hits"],
            stats["memo_misses"]]


def install_pipeline(recorder: Recorder) -> None:
    """Wrap the pipeline's layer entry points (see module docstring)."""
    from repro.pipeline import core
    from repro.pipeline.store import ArtifactStore

    wrap, patch = recorder.wrap, recorder.patch
    patch(core, "compile_source", wrap("frontend", core.compile_source))
    patch(core, "run_program", wrap(_engine_span, core.run_program))
    patch(core, "disambiguate",
          wrap(_disambig_span, core.disambiguate,
               extra=lambda result: sum(result.spd_counts().values())))
    patch(core, "evaluate_program", wrap("sim", core.evaluate_program))
    patch(core, "simulate_program",
          wrap("hwsim", core.simulate_program, extra=_hw_stats))
    patch(ArtifactStore, "get",
          wrap("store.get", ArtifactStore.get,
               extra=lambda artifact: artifact is not None))
    patch(ArtifactStore, "put", wrap("store.put", ArtifactStore.put))
    for stage in _STAGES:
        patch(core.Pipeline, stage,
              wrap(f"pipeline.{stage}", getattr(core.Pipeline, stage),
                   request=_stage_label))


def _payload_label(args, kwargs) -> Optional[str]:
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    return payload.get("label") if isinstance(payload, dict) else None


def install_serve(recorder: Recorder) -> None:
    """Wrap the pipeline plus the service's request entry points."""
    from repro.serve import service

    install_pipeline(recorder)
    recorder.patch(service.CompileService, "handle", recorder.wrap_async(
        "serve.handle", service.CompileService.handle,
        request=_payload_label, extra=lambda result: result[2]))
    recorder.patch(service, "parse_request",
                   recorder.wrap("serve.parse", service.parse_request))
    recorder.patch(service, "make_plan",
                   recorder.wrap("serve.plan", service.make_plan))


def span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of recording one span: a wrapped no-op call minus
    a bare one, in a throwaway recorder."""
    recorder = Recorder()

    def noop():
        return None

    traced = recorder.wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        start = _now()
        for _ in range(samples):
            noop()
        bare = _now() - start
        start = _now()
        for _ in range(samples):
            traced()
        best = min(best, (_now() - start - bare) / samples)
    return max(best, 0.0)


def load_worker_spans(sink_dir: Path) -> List[Spans]:
    """The spans every forked worker appended under *sink_dir*."""
    tables = []
    for path in sorted(sink_dir.glob("worker-*.jsonl")):
        spans = Spans()
        with open(path) as handle:
            for line in handle:
                spans.extend(json.loads(line))
        tables.append(spans)
    return tables


# -- layer metrics -------------------------------------------------------------

class _Totals:
    """Per-name span sums over the spans that start in a window."""

    def __init__(self, tables: Iterable[Spans], since: int, until: int):
        self.busy: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.stage_self = 0
        self.roots = 0
        self.spans = 0
        self.store_gets = self.store_hits = 0
        self.spd_applications = 0
        self.hw = [0, 0, 0, 0]
        for spans in tables:
            self._add(spans, since, until)

    def _add(self, spans: Spans, since: int, until: int) -> None:
        children = [0] * len(spans)
        for i, parent in enumerate(spans.parents):
            if parent >= 0:
                children[parent] += spans.ends[i] - spans.starts[i]
        for i, name in enumerate(spans.names):
            if not since <= spans.starts[i] <= until:
                continue
            duration = spans.ends[i] - spans.starts[i]
            self.spans += 1
            self.busy[name] = self.busy.get(name, 0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            if spans.parents[i] < 0:
                self.roots += duration
            extra = spans.extras[i]
            if name.startswith("pipeline."):
                self.stage_self += duration - children[i]
            elif name == "store.get":
                self.store_gets += 1
                self.store_hits += bool(extra)
            elif name == "disambig.spec" and extra:
                self.spd_applications += extra
            elif name == "hwsim" and extra:
                self.hw = [a + b for a, b in zip(self.hw, extra)]

    def ms(self, *names: str) -> float:
        return sum(self.busy.get(name, 0) for name in names) / 1e6

    def prefixed_ms(self, prefix: str) -> float:
        return sum(ns for name, ns in self.busy.items()
                   if name.startswith(prefix)) / 1e6


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pipeline_layers(tables: Iterable[Spans], since: int, until: int,
                    wall_ms: float, cost_ns: float) -> Dict[str, float]:
    """Every per-layer metric over the spans that start in
    [*since*, *until*]; *wall_ms* is the measured operations' summed
    wall time, the base of every share.  Serve-only metrics stay 0."""
    totals = _Totals(tables, since, until)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    busy = {
        "frontend": totals.ms("frontend"),
        "engines.profile": totals.ms("engines.profile"),
        "engines.validate": totals.ms("engines.validate"),
        "disambig": totals.prefixed_ms("disambig."),
        "disambig.spec": totals.ms("disambig.spec"),
        "sim": totals.ms("sim"),
        "hwsim": totals.ms("hwsim"),
    }
    for layer, ms in busy.items():
        metrics[f"{layer}.busy_ms"] = ms
        metrics[f"{layer}.share"] = _ratio(ms, wall_ms)
    slots, squashes, memo_hits, memo_misses = totals.hw
    metrics.update({
        "frontend.calls": totals.calls.get("frontend", 0),
        "disambig.spd_applications": totals.spd_applications,
        "pipeline.store.get_ms": totals.ms("store.get"),
        "pipeline.store.put_ms": totals.ms("store.put"),
        "pipeline.store.hit_ratio": _ratio(totals.store_hits,
                                           totals.store_gets),
        "pipeline.self_ms": totals.stage_self / 1e6,
        "hwsim.memo_hit_ratio": _ratio(memo_hits, memo_hits + memo_misses),
        "hwsim.slots": slots,
        "hwsim.squashes": squashes,
        "unattributed.share": max(0.0, 1 - _ratio(totals.roots / 1e6,
                                                  wall_ms)),
        "trace.overhead_pct": 100 * _ratio(totals.spans * cost_ns / 1e6,
                                           wall_ms),
    })
    return metrics


def serve_layers(server: Spans, workers: List[Spans], since: int,
                 until: int, *, requests: int, latency_ms: float,
                 server_cpu_ms: float, client_cpu_ms: float,
                 stats_delta: Dict[str, float],
                 cost_ns: float) -> Dict[str, float]:
    """Every per-layer metric of a serve window [*since*, *until*].

    *latency_ms* is the client-observed latency summed over the
    *requests* sent in the window; *stats_delta* holds the window's
    deltas of the service's own ``/v1/stats`` counters
    (``requests``, ``response_hits``, ``batch_count``, ``batch_total``).
    """
    wall_ms = (until - since) / 1e6
    metrics = pipeline_layers([server, *workers], since, until, wall_ms,
                              cost_ns)
    handle_ms = hit_ms = miss_cpu_ms = 0.0
    hits = plans = 0
    plan_ms = 0.0
    plan_end: Dict[str, int] = {}
    for i, name in enumerate(server.names):
        if not since <= server.starts[i] <= until:
            continue
        duration = (server.ends[i] - server.starts[i]) / 1e6
        if name == "serve.handle":
            handle_ms += duration
            if server.extras[i] == "hit":
                hits += 1
                hit_ms += duration
        elif name in ("serve.parse", "serve.plan"):
            parent = server.parents[i]
            if parent >= 0 and server.extras[parent] != "hit":
                miss_cpu_ms += duration
            if name == "serve.plan":
                plans += 1
                plan_ms += duration
                plan_end[server.requests[i]] = server.ends[i]
    # queue wait: from the end of a miss's plan in the server to the
    # start of its first stage span in a worker (same request id)
    waits = []
    worker_ms = 0.0
    for spans in workers:
        seen = set()
        for i, parent in enumerate(spans.parents):
            if parent >= 0 or not since <= spans.starts[i] <= until:
                continue
            worker_ms += (spans.ends[i] - spans.starts[i]) / 1e6
            rid = spans.requests[i]
            if rid in plan_end and rid not in seen:
                seen.add(rid)
                waits.append((spans.starts[i] - plan_end[rid]) / 1e6)
    # the service's on-CPU share of the server: every hit's handle span
    # plus the parse/plan of the rest (a miss's handle span is mostly
    # spent awaiting its worker)
    service_cpu_ms = hit_ms + miss_cpu_ms
    metrics.update({
        "serve.server.cpu_us": 1e3 * _ratio(server_cpu_ms, requests),
        "serve.http.cpu_us": 1e3 * _ratio(server_cpu_ms - service_cpu_ms,
                                          requests),
        "serve.service.hit_us": 1e3 * _ratio(hit_ms, hits),
        "serve.plan.busy_us": 1e3 * _ratio(plan_ms, plans),
        "serve.response_hit_ratio": _ratio(stats_delta["response_hits"],
                                           stats_delta["requests"]),
        "serve.queue.wait_ms": _ratio(sum(waits), len(waits)),
        "serve.worker.busy_ms": worker_ms,
        "serve.worker.share": _ratio(worker_ms, wall_ms),
        "serve.batch_size_mean": _ratio(stats_delta["batch_total"],
                                        stats_delta["batch_count"]),
        "loadgen.client.cpu_us": 1e3 * _ratio(client_cpu_ms, requests),
        # client-observed time no span covers: HTTP read/parse/write,
        # kernel transport and waiting behind the other connection
        "unattributed.share": max(0.0, 1 - _ratio(handle_ms, latency_ms)),
    })
    return metrics
