"""The compilation service: dedup, batching, bounded queue, faults.

:class:`CompileService` turns the cached pipeline into a concurrent
request processor.  A request's life:

1. **parse** — strict validation into a :class:`ServeRequest`
   (:mod:`repro.serve.schemas`);
2. **plan** — the request's content-addressed fingerprints are computed
   (:class:`~repro.pipeline.core.Pipeline` fingerprint methods), naming
   exactly which store artifacts the response needs;
3. **probe** — all artifacts present in the two-tier store ⇒ the warm
   path: render and return, sub-millisecond;
4. **coalesce** — a miss checks the in-flight table: another request
   already computing the same fingerprint means this one just awaits
   the shared future (``serve.dedup_hits``) — one computation, N
   waiters;
5. **batch** — a new computation enters a bounded queue
   (``queue_limit``, 503 ``queue_full`` beyond it).  The drain loop
   collects every queued item in the same event-loop tick into one
   batch (``serve.batch_size``) and dispatches the items onto the
   pipeline's worker pool (:func:`repro.pipeline.executor.run_chunk`);
6. **complete** — worker artifacts land in the shared on-disk cache
   *and* ship back into the server's memory tier; waiters re-probe and
   render byte-identical bodies.

Fault handling is structured, never a hang: a worker crash surfaces as
``BrokenProcessPool`` → every affected waiter gets a 500
``worker_crashed`` body and the pool is rebuilt; a per-request timeout
returns 504 ``timeout`` and, once a computation has no waiters left, it
is cancelled if it has not started (freeing its queue slot); compile
errors in the submitted source come back as 422 ``compile_error``.

Testing hook (mirrors ``REPRO_PERF_INJECT``): set
``REPRO_SERVE_INJECT="crash:<label-substring>"`` or
``"hang:<label-substring>:<seconds>"`` before the service starts and
workers crash / sleep when running a matching job.  The hook is read in
the worker (:data:`repro.pipeline.executor.INJECT_ENV`); it has no
effect on warm responses.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..disambig.pipeline import Disambiguator
from ..frontend.errors import CompileError
from ..ir.printer import format_program
from ..machine.hw import HwMachine
from ..obs.metrics import MetricsRegistry
from ..pipeline.artifacts import report_table, spd_count_names
from ..pipeline.core import Pipeline
from ..pipeline.executor import (INJECT_ENV, CompileJob, HwTimingJob,
                                 TimingJob, ViewJob, WorkerSpec, artifact_stage,
                                 run_chunk, worker_pool)
from ..pipeline.fingerprint import fingerprint as make_fingerprint
from ..pipeline.store import ArtifactStore, default_cache_dir
from .schemas import (SCHEMA, RequestError, ServeRequest, error_body,
                      parse_request, result_body)

__all__ = ["INJECT_ENV", "ServeConfig", "CompileService"]


@dataclass
class ServeConfig:
    """Service tunables (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: worker processes computing cache misses
    jobs: int = 2
    #: in-flight computation bound; beyond it requests get 503
    queue_limit: int = 256
    #: per-request wall-clock budget before a 504
    request_timeout: float = 120.0
    #: rendered 200 responses kept for the warm fast path (0 disables);
    #: keyed by the canonicalised request payload, so repeat requests
    #: skip parse/plan/render entirely
    response_cache_size: int = 4096
    #: artifact cache directory: ``None`` = ``$REPRO_CACHE_DIR`` /
    #: ``~/.cache/repro-spd``; empty string = memory-only
    cache_root: Optional[str] = None
    #: LRU size budget of the on-disk cache (None = unbounded); the
    #: workers that write the entries enforce it
    cache_budget_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")

    def resolve_cache_root(self) -> Optional[Path]:
        if self.cache_root is None:
            return default_cache_dir()
        return Path(self.cache_root) if self.cache_root else None


# -- request plans ------------------------------------------------------------

@dataclass
class _Plan:
    """What one request needs: its dedup fingerprint, the executor jobs
    that produce the artifacts, and a renderer over those artifacts."""

    request: ServeRequest
    fp: str
    jobs: Tuple[object, ...]
    #: name -> (store stage, fingerprint) of every artifact the
    #: renderer reads
    named: Dict[str, Tuple[str, str]]
    renderer: Callable[[Dict[str, object]], Dict[str, object]]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.request.endpoint, self.fp)


def _hw_machine_dict(mach: HwMachine) -> Dict[str, object]:
    return {"name": mach.name, "num_fus": mach.num_fus,
            "window": mach.window, "predictor": mach.predictor,
            "replay_penalty": mach.replay_penalty,
            "memory_latency": mach.memory_latency}


def make_plan(request: ServeRequest) -> _Plan:
    """Fingerprints + jobs + renderer for one validated request.

    The throwaway memory-only store here is never read or written — the
    pipeline instance exists purely for its fingerprint arithmetic."""
    pipeline = Pipeline(
        spd_config=request.spd_config, graft=request.graft,
        store=ArtifactStore(None), passes=request.passes,
        guard_words=request.guard_words, engine=request.engine)
    endpoint, label, source = request.endpoint, request.label, request.source
    kind, mach, hw = request.kind, request.machine, request.hw

    if endpoint == "compile":
        fp = pipeline.compile_fingerprint(source)

        def render(artifacts):
            compiled = artifacts["compiled"]
            return {"ops": compiled.program.size(),
                    "ir": format_program(compiled.program)}

        return _Plan(request, fp, (CompileJob(label, source),),
                     {"compiled": ("compiled", fp)}, render)

    if endpoint == "disambiguate":
        fp = pipeline.view_fingerprint(source, kind, mach.memory_latency)

        def render(artifacts):
            view = artifacts["view"]
            return {"kind": kind.value, "code_size": view.code_size(),
                    "spd_counts": spd_count_names(view),
                    "passes": view.result.pass_stats}

        return _Plan(request, fp,
                     (ViewJob(label, source, kind, mach.memory_latency),),
                     {"view": ("view", fp)}, render)

    if endpoint == "time":
        fp = pipeline.timing_fingerprint(source, kind, mach)

        def render(artifacts):
            timing = artifacts["timing"]
            return {"kind": kind.value, "machine": mach.to_dict(),
                    "cycles": timing.cycles}

        return _Plan(request, fp, (TimingJob(label, source, kind, mach),),
                     {"timing": ("timing", fp)}, render)

    if endpoint == "hwtime":
        fp = pipeline.hw_timing_fingerprint(source, kind, hw)

        def render(artifacts):
            artifact = artifacts["hwtime"]
            return {"kind": kind.value, "machine": _hw_machine_dict(hw),
                    "cycles": artifact.cycles,
                    "stats": dict(sorted(artifact.timing.stats.items()))}

        return _Plan(request, fp, (HwTimingJob(label, source, kind, hw),),
                     {"hwtime": ("hwtime", fp)}, render)

    # report: the per-disambiguator cycle table of `repro analyze`,
    # composed from one compile + the SPEC view + four timings
    named: Dict[str, Tuple[str, str]] = {
        "compiled": ("compiled", pipeline.compile_fingerprint(source)),
        "view_spec": ("view",
                      pipeline.view_fingerprint(source, Disambiguator.SPEC,
                                                mach.memory_latency)),
    }
    jobs: List[object] = [
        CompileJob(label, source),
        ViewJob(label, source, Disambiguator.SPEC, mach.memory_latency),
    ]
    for each in Disambiguator:
        named[f"timing.{each.value}"] = (
            "timing", pipeline.timing_fingerprint(source, each, mach))
        jobs.append(TimingJob(label, source, each, mach))
    fp = make_fingerprint({"stage": "serve.report",
                           "needed": sorted(fp for _, fp in named.values())})

    def render(artifacts):
        return report_table(
            mach, artifacts["compiled"], artifacts["view_spec"],
            {each: artifacts[f"timing.{each.value}"]
             for each in Disambiguator})

    return _Plan(request, fp, tuple(jobs), named, render)


# -- the service --------------------------------------------------------------

class _WorkItem:
    """One in-flight computation: a shared future its waiters await."""

    __slots__ = ("key", "spec", "jobs", "future", "waiters",
                 "dispatch_future")

    def __init__(self, key: Tuple[str, str], spec: WorkerSpec,
                 jobs: Tuple[object, ...],
                 loop: asyncio.AbstractEventLoop):
        self.key = key
        self.spec = spec
        self.jobs = jobs
        self.future: asyncio.Future = loop.create_future()
        self.waiters = 0
        self.dispatch_future: Optional[asyncio.Future] = None


class CompileService:
    """Async coordinator between HTTP handlers, the artifact store and
    the multiprocessing executor.  Single-threaded (one event loop);
    every state transition between ``await`` points is atomic."""

    def __init__(self, config: ServeConfig = ServeConfig()):
        self.config = config
        budget = (None if config.cache_budget_mb is None
                  else int(config.cache_budget_mb * 1024 * 1024))
        self.store = ArtifactStore(config.resolve_cache_root(),
                                   size_budget_bytes=budget)
        self.metrics = MetricsRegistry()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = None
        self._executor_generation = 0
        self._inflight: Dict[Tuple[str, str], _WorkItem] = {}
        #: canonicalised (endpoint, payload) -> rendered 200 body
        self._responses: "OrderedDict[Tuple[str, str], Dict[str, object]]" \
            = OrderedDict()
        self._pending: List[_WorkItem] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._queue_depth = 0
        self._started_at = time.monotonic()
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self._make_executor()

    async def stop(self) -> None:
        self._stopping = True
        if self._drain_task is not None:
            self._drain_task.cancel()
        for item in list(self._inflight.values()):
            self._finish(item, error=RequestError(
                "shutting_down", "the service is shutting down", 503))
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _make_executor(self) -> None:
        self._executor = worker_pool(self.config.jobs)
        self._executor_generation += 1
        self.metrics.set_gauge("serve.executor_generation",
                               self._executor_generation)

    def _rebuild_executor(self, generation: int) -> None:
        """Replace a broken pool exactly once per breakage."""
        if self._stopping or generation != self._executor_generation:
            return
        broken = self._executor
        self._make_executor()
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)

    # -- metrics helpers -----------------------------------------------------

    def _incr(self, name: str, amount: float = 1) -> None:
        self.metrics.incr(name, amount)
        obs.incr(name, amount)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        obs.observe(name, value)

    # -- request handling ----------------------------------------------------

    async def handle(self, endpoint: str, payload: object
                     ) -> Tuple[int, Dict[str, object], str]:
        """One request → ``(http_status, body, cache_state)`` where the
        cache state is ``hit``/``miss``/``dedup``/``error``."""
        started = time.perf_counter()
        self._incr("serve.requests")
        self._incr(f"serve.requests.{endpoint}")
        response_key = self._response_key(endpoint, payload)
        if response_key is not None:
            body = self._responses.get(response_key)
            if body is not None:
                # the warm fast path: the exact payload was answered
                # before, so skip parse/plan/render entirely.  Bodies
                # are rendered from content-addressed artifacts, so the
                # cached bytes equal a recomputation's.
                self._responses.move_to_end(response_key)
                self._incr("serve.cache_hits")
                self._incr("serve.response_hits")
                elapsed_ms = (time.perf_counter() - started) * 1e3
                self._observe("serve.latency_ms", elapsed_ms)
                self._observe("serve.latency_ms.hit", elapsed_ms)
                return 200, body, "hit"
        try:
            status, body, cache = await self._handle(endpoint, payload)
            if status == 200 and response_key is not None:
                self._responses[response_key] = body
                while len(self._responses) > self.config.response_cache_size:
                    self._responses.popitem(last=False)
        except RequestError as error:
            self._incr("serve.errors")
            self._incr(f"serve.errors.{error.code}")
            status = error.status
            body = error_body(endpoint, error.code, error.message)
            cache = "error"
        except Exception as error:  # noqa: BLE001 — never hang a client
            self._incr("serve.errors")
            self._incr("serve.errors.internal_error")
            status = 500
            body = error_body(endpoint, "internal_error",
                              f"{type(error).__name__}: {error}")
            cache = "error"
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self._observe("serve.latency_ms", elapsed_ms)
        self._observe(f"serve.latency_ms.{cache}", elapsed_ms)
        return status, body, cache

    def _response_key(self, endpoint: str,
                      payload: object) -> Optional[Tuple[str, str]]:
        if self.config.response_cache_size <= 0:
            return None
        try:
            return (endpoint, json.dumps(payload, sort_keys=True,
                                         separators=(",", ":")))
        except (TypeError, ValueError):
            return None

    async def _handle(self, endpoint: str, payload: object
                      ) -> Tuple[int, Dict[str, object], str]:
        request = parse_request(endpoint, payload)
        plan = make_plan(request)
        with obs.span("serve.request", endpoint=endpoint,
                      fingerprint=plan.fp):
            artifacts = self._probe(plan)
            if artifacts is not None:
                self._incr("serve.cache_hits")
                return (200, result_body(endpoint, plan.fp,
                                         plan.renderer(artifacts)), "hit")
            item, cache = self._coalesce(plan)
            await self._await_item(item)
            artifacts = self._probe(plan)
            if artifacts is None:
                raise RequestError(
                    "internal_error",
                    "computation finished but its artifacts are missing "
                    "from the store", status=500)
            return (200, result_body(endpoint, plan.fp,
                                     plan.renderer(artifacts)), cache)

    def _coalesce(self, plan: _Plan) -> Tuple[_WorkItem, str]:
        """Join the in-flight computation for this fingerprint, or
        become its leader (enqueueing the work)."""
        item = self._inflight.get(plan.key)
        if item is not None:
            self._incr("serve.dedup_hits")
            return item, "dedup"
        if self._queue_depth >= self.config.queue_limit:
            self._incr("serve.rejected")
            raise RequestError(
                "queue_full",
                f"in-flight queue limit ({self.config.queue_limit}) "
                f"reached; retry later", status=503)
        self._incr("serve.cache_misses")
        request = plan.request
        spec = WorkerSpec(
            spd_config=request.spd_config, graft=request.graft,
            cache_root=(str(self.store.root)
                        if self.store.root is not None else None),
            passes=request.passes, guard_words=request.guard_words,
            engine=request.engine,
            size_budget_bytes=self.store.size_budget_bytes)
        item = _WorkItem(plan.key, spec, plan.jobs, self._loop)
        self._inflight[plan.key] = item
        self._queue_depth += 1
        self.metrics.set_gauge("serve.queue_depth", self._queue_depth)
        self._pending.append(item)
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = self._loop.create_task(self._drain())
        return item, "miss"

    async def _await_item(self, item: _WorkItem) -> None:
        item.waiters += 1
        try:
            await asyncio.wait_for(asyncio.shield(item.future),
                                   self.config.request_timeout)
            return
        except asyncio.TimeoutError:
            pass
        except asyncio.CancelledError:
            # the computation itself was cancelled from under us
            raise RequestError("timeout",
                               "the shared computation was cancelled",
                               status=504)
        finally:
            item.waiters -= 1
        self._incr("serve.timeouts")
        self._maybe_cancel(item)
        raise RequestError(
            "timeout",
            f"request timed out after {self.config.request_timeout}s",
            status=504)

    def _maybe_cancel(self, item: _WorkItem) -> None:
        """A computation every waiter abandoned: cancel it if it has not
        started, freeing its queue slot immediately."""
        if item.waiters > 0 or item.future.done():
            return
        if item.dispatch_future is None:
            # still queued for dispatch — drop it from the batch
            if item in self._pending:
                self._pending.remove(item)
            self._incr("serve.cancelled")
            self._finish(item, cancelled=True)
        elif item.dispatch_future.cancel():
            # the _complete task observes the CancelledError and cleans
            # up accounting
            pass
        # already running in a worker: let it finish and warm the cache

    # -- dispatch / completion -----------------------------------------------

    async def _drain(self) -> None:
        """Dispatch every queued miss, each as its own worker task; the
        misses drained together count as one batch."""
        await asyncio.sleep(0)  # let same-tick arrivals coalesce
        batch, self._pending = self._pending, []
        if not batch:
            return
        self._incr("serve.batches")
        self._observe("serve.batch_size", len(batch))
        generation = self._executor_generation
        for item in batch:
            item.dispatch_future = self._loop.create_task(
                run_chunk(self._executor, item.spec, item.jobs))
            self._loop.create_task(self._complete(item, generation))

    async def _complete(self, item: _WorkItem, generation: int) -> None:
        try:
            results = await item.dispatch_future
        except asyncio.CancelledError:
            self._incr("serve.cancelled")
            self._finish(item, cancelled=True)
            return
        except BrokenProcessPool:
            self._incr("serve.worker_crashes")
            self._rebuild_executor(generation)
            self._finish(item, error=RequestError(
                "worker_crashed",
                "a pipeline worker died while computing this request; "
                "the worker pool has been rebuilt", status=500))
            return
        except Exception as error:  # noqa: BLE001
            self._finish(item, error=RequestError(
                "internal_error", f"{type(error).__name__}: {error}",
                status=500))
            return
        self._incr("serve.executions")
        error: Optional[RequestError] = None
        for result in results:
            if not isinstance(result, Exception):
                self.store.put_memory(artifact_stage(result),
                                      result.fingerprint, result)
            elif error is None:
                error = (RequestError("compile_error", str(result), 422)
                         if isinstance(result, CompileError) else
                         RequestError("internal_error",
                                      f"{type(result).__name__}: {result}",
                                      500))
        self._finish(item, error=error)

    def _finish(self, item: _WorkItem, error: Optional[RequestError] = None,
                cancelled: bool = False) -> None:
        self._inflight.pop(item.key, None)
        self._queue_depth -= 1
        self.metrics.set_gauge("serve.queue_depth", self._queue_depth)
        if item.future.done():
            return
        if cancelled or (error is not None and item.waiters == 0):
            # nobody is listening: avoid an un-retrieved exception
            item.future.cancel()
        elif error is not None:
            item.future.set_exception(error)
        else:
            item.future.set_result(None)

    def _probe(self, plan: _Plan) -> Optional[Dict[str, object]]:
        """Every artifact the renderer needs, or ``None`` on any miss."""
        artifacts: Dict[str, object] = {}
        for name, (stage, fp) in plan.named.items():
            artifact = self.store.get(stage, fp)
            if artifact is None:
                return None
            artifacts[name] = artifact
        return artifacts

    # -- introspection bodies ------------------------------------------------

    def stats_body(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "endpoint": "stats",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self._queue_depth,
            "inflight": len(self._inflight),
            "jobs": self.config.jobs,
            "metrics": self.metrics.snapshot(),
            "store": self.store.shard_stats(),
        }

    def health_body(self) -> Dict[str, object]:
        return {"schema": SCHEMA, "endpoint": "health", "status": "ok"}
