"""Parallel job executor: the one place that starts worker processes.

The experiment harness is an embarrassingly parallel matrix of
(program × disambiguator × machine) jobs.  :func:`stream_jobs` executes
a batch of picklable job specs either serially (``num_jobs <= 1`` — the
default, and byte-identical to the historical behaviour) or on a worker
pool, yielding results in job order; :func:`run_jobs` is the same
stream collected into a list, with the results also inserted into the
parent's in-memory tier.  ``repro serve`` submits its cache misses to a
long-lived pool of the same kind through :func:`run_chunk`.

Every pool is a :func:`worker_pool`: a ``concurrent.futures``
process pool, ``fork`` preferred (cheap, inherits the loaded package;
platforms without it fall back to ``spawn``, which only requires the
job/config dataclasses to pickle).  Its workers have one entry point,
which runs a chunk of jobs against a :class:`Pipeline` rebuilt from a
:class:`WorkerSpec` and cached in the worker (an LRU of
:data:`_WORKER_PIPELINE_CAP` specs, so a worker running many jobs with
the same knobs reuses its memory tier), and returns each job's artifact
or the exception it raised.

Determinism is preserved in both modes:

* results are returned in job order, independent of worker scheduling;
* every stage is itself deterministic, so a worker computes exactly the
  artifact the parent would have;
* workers share the parent's *disk* store (atomic write-rename makes
  concurrent writes safe, and the parent's byte budget travels with the
  spec), so intermediate artifacts — compiled programs, profiles,
  views — are visible to the parent afterwards.

A worker that dies mid-job (killed, ``os._exit``) breaks the pool: the
parent raises :class:`~concurrent.futures.process.BrokenProcessPool`
instead of waiting for a result that never comes.

When the parent runs under a tracer, workers record each job under a
tracer of their own and ship the resulting ``pipeline.worker_job`` span
subtree (stamped with the worker's OS pid) and metrics registry back
with the artifact.  The registries fold into the parent's as results
arrive; :func:`run_jobs` also grafts the spans under its
``pipeline.parallel`` span in job order, so a ``--jobs N`` run produces
one coherent trace — Chrome-trace exports lay worker spans out on
per-pid lanes (see :mod:`repro.obs.export`) and merged counters equal a
serial run's.  :func:`stream_jobs` drops the span subtrees at the
source: at corpus scale they would dominate the shipped payload.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

from .. import obs
from ..disambig.pipeline import Disambiguator
from ..disambig.spd_heuristic import SpDConfig
from ..frontend.grafting import GraftConfig
from ..passes import PassPipelineConfig
from ..machine.description import LifeMachine
from ..machine.hw import HwMachine
from .artifacts import CompiledArtifact, HwTimingArtifact, TimingArtifact
from .core import Pipeline
from .store import ArtifactStore

__all__ = ["CompileJob", "ViewJob", "TimingJob", "HwTimingJob", "INJECT_ENV",
           "WorkerSpec", "run_chunk", "run_jobs", "stream_jobs",
           "worker_pool", "artifact_stage"]

#: Fault-injection hook read by pool workers before each job:
#: ``crash:<label-substring>`` hard-exits the worker, and
#: ``hang:<label-substring>:<seconds>`` sleeps before computing.
INJECT_ENV = "REPRO_SERVE_INJECT"


@dataclass(frozen=True)
class CompileJob:
    """Compile (and graft) one source into its tree program (stage 1)."""

    label: str
    source: str


@dataclass(frozen=True)
class ViewJob:
    """Compute one disambiguated view (stage 3)."""

    label: str
    source: str
    kind: Disambiguator
    memory_latency: int = 2


@dataclass(frozen=True)
class TimingJob:
    """Compute one whole-program timing (stage 4, pulls in 1-3)."""

    label: str
    source: str
    kind: Disambiguator
    machine: LifeMachine


@dataclass(frozen=True)
class HwTimingJob:
    """Compute one hardware-simulation timing (stage 4', pulls in 1-3)."""

    label: str
    source: str
    kind: Disambiguator
    machine: HwMachine


Job = Union[CompileJob, ViewJob, TimingJob, HwTimingJob]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild a pipeline (hashable: it
    keys the worker's pipeline cache)."""

    spd_config: SpDConfig
    graft: Optional[GraftConfig]
    validate_spec_output: bool
    cache_root: Optional[str]
    passes: PassPipelineConfig = PassPipelineConfig()
    guard_words: int = 0
    engine: str = "jit"
    size_budget_bytes: Optional[int] = None

    @classmethod
    def of(cls, pipeline: Pipeline) -> "WorkerSpec":
        """The spec that rebuilds *pipeline* over its disk store."""
        store = pipeline.store
        return cls(spd_config=pipeline.spd_config, graft=pipeline.graft,
                   validate_spec_output=pipeline.validate_spec_output,
                   cache_root=(str(store.root)
                               if store.root is not None else None),
                   passes=pipeline.passes, guard_words=pipeline.guard_words,
                   engine=pipeline.engine,
                   size_budget_bytes=store.size_budget_bytes)


@dataclass(frozen=True)
class _Trace:
    """How a traced parent wants its workers to record each job."""

    keep_spans: bool
    profile_top_n: Optional[int]


@dataclass
class _WorkerResult:
    """One job's artifact (or exception) plus the worker-side
    observability capture.

    ``span`` is the worker's job span subtree (``None`` when the parent
    ran untraced or dropped spans) and ``metrics`` the registry the job
    accumulated; both travel back so the parent can merge a parallel
    run into one coherent trace."""

    artifact: object = None
    error: Optional[BaseException] = None
    span: Optional[obs.Span] = None
    metrics: Optional[obs.MetricsRegistry] = None


# -- worker side --------------------------------------------------------------

#: Per-worker pipelines by spec, so a worker running many jobs with the
#: same knobs reuses its memory tier.
_worker_pipelines: "OrderedDict[WorkerSpec, Pipeline]" = OrderedDict()
_WORKER_PIPELINE_CAP = 8


def _worker_init() -> None:
    # a forked parent tracer would record into a dead copy
    obs.disable()
    obs.disable_profiling()
    # a server's SIGTERM handler would wake the parent's event loop
    # through the inherited wakeup fd instead of ending this worker
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


def _worker_pipeline(spec: WorkerSpec) -> Pipeline:
    pipeline = _worker_pipelines.get(spec)
    if pipeline is None:
        pipeline = Pipeline(
            spd_config=spec.spd_config, graft=spec.graft,
            validate_spec_output=spec.validate_spec_output,
            store=ArtifactStore(spec.cache_root,
                                size_budget_bytes=spec.size_budget_bytes),
            passes=spec.passes, guard_words=spec.guard_words,
            engine=spec.engine)
        _worker_pipelines[spec] = pipeline
        while len(_worker_pipelines) > _WORKER_PIPELINE_CAP:
            _worker_pipelines.popitem(last=False)
    else:
        _worker_pipelines.move_to_end(spec)
    return pipeline


def _maybe_inject(job: Job) -> None:
    """Apply the :data:`INJECT_ENV` fault hook to a matching job."""
    spec = os.environ.get(INJECT_ENV, "").strip()
    if not spec:
        return
    for entry in spec.split(","):
        parts = entry.split(":")
        action = parts[0].strip()
        needle = parts[1] if len(parts) > 1 else ""
        if needle and needle not in job.label:
            continue
        if action == "crash":
            os._exit(3)
        if action == "hang":
            time.sleep(float(parts[2]) if len(parts) > 2 else 30.0)


def _run_safely(pipeline: Pipeline, job: Job) -> _WorkerResult:
    try:
        _maybe_inject(job)
        return _WorkerResult(_run_on(pipeline, job))
    except Exception as error:  # noqa: BLE001 — ship it, don't crash
        return _WorkerResult(error=error)


def _run_chunk(spec: WorkerSpec, jobs: Sequence[Job],
               trace: Optional[_Trace] = None) -> List[_WorkerResult]:
    """The worker entry point: run *jobs* in order, isolating errors."""
    pipeline = _worker_pipeline(spec)
    if trace is None:
        return [_run_safely(pipeline, job) for job in jobs]
    if trace.profile_top_n is not None:
        obs.enable_profiling(trace.profile_top_n)
    results = []
    for job in jobs:
        # record this job under its own tracer; the job span (with the
        # worker's pid stamped on it) ships back for the parent to graft
        with obs.tracing() as tracer:
            with obs.span("pipeline.worker_job", job=job.label,
                          worker_pid=os.getpid()) as job_span:
                result = _run_safely(pipeline, job)
        if trace.keep_spans:
            result.span = job_span
        result.metrics = tracer.metrics
        results.append(result)
    obs.disable_profiling()
    return results


def _run_on(pipeline: Pipeline, job: Job):
    if isinstance(job, CompileJob):
        return pipeline.compiled(job.label, job.source)
    if isinstance(job, TimingJob):
        return pipeline.timing(job.label, job.source, job.kind, job.machine)
    if isinstance(job, HwTimingJob):
        return pipeline.hw_timing(job.label, job.source, job.kind,
                                  job.machine)
    return pipeline.view(job.label, job.source, job.kind, job.memory_latency)


# -- parent side --------------------------------------------------------------

def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of *workers* (``fork`` preferred) whose workers
    run untraced and die on SIGTERM."""
    methods = multiprocessing.get_all_start_methods()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"),
        initializer=_worker_init)


async def run_chunk(pool: ProcessPoolExecutor, spec: WorkerSpec,
                    jobs: Sequence[Job]) -> List[object]:
    """Run *jobs* on one worker of *pool*; each job's artifact, or the
    exception it raised.  A dead worker raises ``BrokenProcessPool``."""
    results = await asyncio.get_running_loop().run_in_executor(
        pool, _run_chunk, spec, tuple(jobs))
    return [result.artifact if result.error is None else result.error
            for result in results]


def _parallel(pipeline: Pipeline, jobs: List[Job], workers: int,
              chunksize: int, keep_spans: bool) -> Iterator[_WorkerResult]:
    """Every job's worker result in job order, from a fresh pool; worker
    metrics merge into the parent tracer as results arrive, and a job's
    exception is re-raised here."""
    tracer = obs.current_tracer()
    trace = None
    if tracer is not None:
        trace = _Trace(keep_spans, obs.profile.DEFAULT_TOP_N
                       if obs.is_profiling() else None)
    spec = WorkerSpec.of(pipeline)
    obs.set_gauge("pipeline.jobs", workers)
    obs.incr("pipeline.parallel_tasks", len(jobs))
    pool = worker_pool(workers)
    try:
        pending = deque(pool.submit(_run_chunk, spec, jobs[i:i + chunksize],
                                    trace)
                        for i in range(0, len(jobs), chunksize))
        while pending:
            for result in pending.popleft().result():
                if tracer is not None and result.metrics is not None:
                    tracer.metrics.merge(result.metrics)
                if result.error is not None:
                    raise result.error
                yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def stream_jobs(pipeline: Pipeline, jobs: Sequence[Job], num_jobs: int = 1,
                chunksize: int = 4):
    """Yield job results in job order without accumulating them.

    Artifacts are yielded one at a time and are **not** inserted into
    the parent's in-memory tier, so a thousand-program run holds O(1)
    artifacts in the parent regardless of corpus size — the shared disk
    tier still ends up fully populated by the workers.  Worker metrics
    registries are merged into the parent tracer as results arrive, but
    span subtrees are dropped at the source: at this scale the counters
    and stage-duration histograms are the signal.
    """
    jobs = list(jobs)
    if num_jobs <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield _run_on(pipeline, job)
        return
    workers = min(num_jobs, len(jobs))
    with obs.span("pipeline.stream", jobs=workers, tasks=len(jobs)):
        for result in _parallel(pipeline, jobs, workers, chunksize,
                                keep_spans=False):
            yield result.artifact


def run_jobs(pipeline: Pipeline, jobs: Sequence[Job],
             num_jobs: int = 1) -> List[object]:
    """Execute *jobs* against *pipeline*; results in job order.

    ``num_jobs <= 1`` runs in-process.  Otherwise the jobs stream
    through a worker pool; each result artifact is inserted into the
    parent store's memory tier (workers already wrote the shared disk
    tier, if any) and, under a tracer, each worker's job span is grafted
    under ``pipeline.parallel``.
    """
    jobs = list(jobs)
    if num_jobs <= 1 or len(jobs) <= 1:
        return [_run_on(pipeline, job) for job in jobs]
    workers = min(num_jobs, len(jobs))
    # about four chunks per worker, as multiprocessing.Pool.map picks
    chunksize = -(-len(jobs) // (4 * workers))
    with obs.span("pipeline.parallel", jobs=workers,
                  tasks=len(jobs)) as parallel_span:
        results = list(_parallel(pipeline, jobs, workers, chunksize,
                                 keep_spans=True))
        # graft the worker-side spans into this trace, in job order:
        # each job span keeps its worker_pid annotation so exporters
        # can lay subprocess spans out on their own pid lanes
        for result in results:
            if result.span is not None:
                parallel_span.children.append(result.span)
    for result in results:
        artifact = result.artifact
        pipeline.store.put_memory(artifact_stage(artifact),
                                  artifact.fingerprint, artifact)
    return [result.artifact for result in results]


def artifact_stage(artifact) -> str:
    """The store stage a job-result artifact belongs to."""
    if isinstance(artifact, TimingArtifact):
        return "timing"
    if isinstance(artifact, HwTimingArtifact):
        return "hwtime"
    if isinstance(artifact, CompiledArtifact):
        return "compiled"
    return "view"
