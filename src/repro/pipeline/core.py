"""The compile → profile → disambiguate → time pipeline.

:class:`Pipeline` is the paper's Section 6.1 experimental flow as four
explicit, individually cached stages.  Each stage method computes its
content-addressed fingerprint, consults the two-tier
:class:`~repro.pipeline.store.ArtifactStore`, and only rebuilds on a
miss; a second ``repro report`` or pytest run served from the disk tier
therefore skips compilation, profiling and disambiguation entirely.

The pipeline is deliberately *source-addressed*: stages take the tinyc
source text (plus a display label), not a benchmark name, so the layer
knows nothing about :mod:`repro.bench`; callers resolve a benchmark
name with ``repro.bench.suite.get_benchmark(name).source``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .. import obs
from ..disambig.pipeline import Disambiguator, disambiguate
from ..disambig.spd_heuristic import SpDConfig
from ..engines import DEFAULT_ENGINE, get_engine
from ..frontend.driver import compile_source
from ..frontend.grafting import GraftConfig, graft_program
from ..hwsim.core import simulate_program
from ..machine.description import LifeMachine, machine
from ..machine.hw import HwMachine
from ..passes import PassPipelineConfig
from ..sim.evaluate import evaluate_program
from ..sim.interpreter import run_program
from .artifacts import (CompiledArtifact, DisambiguationArtifact,
                        HwTimingArtifact, ProfileArtifact, TimingArtifact)
from .fingerprint import (fingerprint, graft_config_key, hw_machine_key,
                          latency_key, machine_key, pass_pipeline_key,
                          spd_config_key)
from .store import ArtifactStore

__all__ = ["Pipeline"]


class Pipeline:
    """Cached, parallelisable pipeline over one toolchain configuration."""

    def __init__(self, spd_config: SpDConfig = SpDConfig(),
                 graft: Optional[GraftConfig] = None,
                 store: Optional[ArtifactStore] = None,
                 passes: Optional[PassPipelineConfig] = None,
                 guard_words: int = 0,
                 engine: str = DEFAULT_ENGINE):
        self.spd_config = spd_config
        self.graft = graft
        self.store = store if store is not None else ArtifactStore()
        self.passes = (passes if passes is not None
                       else PassPipelineConfig()).validated()
        self.guard_words = guard_words
        #: views computed under ``--dump-after``, which the store never
        #: sees (see :meth:`view`)
        self._dumped_views: Dict[str, DisambiguationArtifact] = {}
        # fail fast on unknown names; stages key their fingerprints on
        # the engine, so every registered engine gets its own cache rows
        get_engine(engine)
        self.engine = engine

    # -- fingerprints --------------------------------------------------------

    def compile_fingerprint(self, source: str) -> str:
        return fingerprint({"stage": "compiled", "source": source,
                            "graft": graft_config_key(self.graft),
                            "guard_words": self.guard_words})

    def profile_fingerprint(self, source: str) -> str:
        return fingerprint({"stage": "profile",
                            "compiled": self.compile_fingerprint(source),
                            "engine": self.engine})

    def view_fingerprint(self, source: str, kind: Disambiguator,
                         memory_latency: int = 2) -> str:
        payload = {"stage": "view",
                   "compiled": self.compile_fingerprint(source),
                   "kind": kind.value,
                   # the profiling run and SPEC's validation re-run go
                   # through the configured engine; engines are verified
                   # equivalent, but a miscompile must never poison
                   # entries the reference engine computed
                   "engine": self.engine,
                   # the cleanup pass list runs on every view, so every
                   # view's fingerprint must see it (a changed pass list
                   # or pass option is a cache miss)
                   "passes": pass_pipeline_key(self.passes)}
        if kind is Disambiguator.SPEC:
            # only SPEC's Gain() estimates see the latency table and the
            # heuristic knobs; the other views share one entry per source
            payload["spd_config"] = spd_config_key(self.spd_config)
            payload["latencies"] = latency_key(machine(None, memory_latency))
        return fingerprint(payload)

    def timing_fingerprint(self, source: str, kind: Disambiguator,
                           mach: LifeMachine) -> str:
        return fingerprint({
            "stage": "timing",
            "view": self.view_fingerprint(source, kind, mach.memory_latency),
            "machine": machine_key(mach),
        })

    def hw_timing_fingerprint(self, source: str, kind: Disambiguator,
                              mach: HwMachine) -> str:
        return fingerprint({
            "stage": "hwtime",
            "view": self.view_fingerprint(source, kind, mach.memory_latency),
            "machine": hw_machine_key(mach),
        })

    # -- stages --------------------------------------------------------------

    def compiled(self, label: str, source: str) -> CompiledArtifact:
        fp = self.compile_fingerprint(source)
        artifact = self.store.get("compiled", fp)
        if artifact is None:
            with obs.profile_span("pipeline.compile", program=label):
                program = compile_source(source,
                                         guard_words=self.guard_words)
                if self.graft is not None:
                    # grafting changes the tree structure, so every later
                    # stage runs against the grafted program
                    program, _stats = graft_program(program, self.graft)
            artifact = CompiledArtifact(fp, label, program)
            self.store.put("compiled", fp, artifact)
        return artifact

    def profile(self, label: str, source: str) -> ProfileArtifact:
        fp = self.profile_fingerprint(source)
        artifact = self.store.get("profile", fp)
        if artifact is None:
            compiled = self.compiled(label, source)
            with obs.profile_span("pipeline.profile", program=label):
                reference = run_program(compiled.program,
                                        engine=self.engine)
            artifact = ProfileArtifact(fp, label, reference)
            self.store.put("profile", fp, artifact)
        return artifact

    def view(self, label: str, source: str, kind: Disambiguator,
             memory_latency: int = 2) -> DisambiguationArtifact:
        fp = self.view_fingerprint(source, kind, memory_latency)
        # --dump-after is observational (excluded from the fingerprint),
        # so a requested dump must bypass the store: neither serve a hit
        # (no passes would run, no dump would happen) nor poison it with
        # an entry other configs would then share.  This pipeline keeps
        # the view instead, so each view dumps once and is then reused.
        dumping = bool(self.passes.dump_after)
        artifact = (self._dumped_views.get(fp) if dumping
                    else self.store.get("view", fp))
        if artifact is None:
            compiled = self.compiled(label, source)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.disambiguate", program=label,
                          kind=kind.value, memory_latency=memory_latency):
                result = disambiguate(
                    compiled.program, kind, profile=profiled.profile,
                    machine=machine(None, memory_latency),
                    spd_config=self.spd_config, passes=self.passes)
                if kind is Disambiguator.SPEC:
                    transformed = run_program(result.program.copy(),
                                              collect_profile=False,
                                              engine=self.engine)
                    if not profiled.reference.output_equal(transformed):
                        raise AssertionError(
                            f"SpD changed the output of program {label!r}")
            artifact = DisambiguationArtifact(fp, label, result)
            if dumping:
                self._dumped_views[fp] = artifact
            else:
                self.store.put("view", fp, artifact)
        return artifact

    def timing(self, label: str, source: str, kind: Disambiguator,
               mach: LifeMachine) -> TimingArtifact:
        fp = self.timing_fingerprint(source, kind, mach)
        artifact = self.store.get("timing", fp)
        if artifact is None:
            view = self.view(label, source, kind, mach.memory_latency)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.timing", program=label,
                          kind=kind.value, machine=mach.name):
                timing = evaluate_program(view.program, view.graphs, mach,
                                          profiled.profile)
            artifact = TimingArtifact(fp, label, kind, timing)
            self.store.put("timing", fp, artifact)
        return artifact

    def hw_timing(self, label: str, source: str, kind: Disambiguator,
                  mach: HwMachine) -> HwTimingArtifact:
        """Stage 4': cycle count of one view on a dynamically scheduled
        machine — the same cached-artifact discipline as :meth:`timing`,
        but the cycles come from executing the program through
        :class:`~repro.hwsim.core.HwSimulator` rather than evaluating
        static schedules against a profile."""
        fp = self.hw_timing_fingerprint(source, kind, mach)
        artifact = self.store.get("hwtime", fp)
        if artifact is None:
            view = self.view(label, source, kind, mach.memory_latency)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.hw_timing", program=label,
                          kind=kind.value, machine=mach.name):
                # simulate a copy: the simulator may lay out memory on a
                # program the store also serves to other callers
                run = simulate_program(
                    view.program.copy(), mach, view.graphs,
                    tree_counts=profiled.profile.tree_counts)
                if not profiled.reference.output_equal(run):
                    raise AssertionError(
                        f"hardware simulation diverged from the reference "
                        f"interpreter on program {label!r} ({mach.name})")
            artifact = HwTimingArtifact(fp, label, kind, run.timing)
            self.store.put("hwtime", fp, artifact)
        return artifact

    # -- parallel fan-out ----------------------------------------------------

    def prefetch(self, jobs: Sequence, num_jobs: int = 1) -> list:
        """Compute a batch of :class:`~repro.pipeline.executor.ViewJob` /
        :class:`~repro.pipeline.executor.TimingJob` specs — fanned out
        over *num_jobs* worker processes when ``num_jobs > 1`` — and
        land the results in this pipeline's store.  Results come back in
        job order regardless of worker scheduling."""
        from .executor import run_jobs
        return run_jobs(self, jobs, num_jobs)

    def stream(self, jobs: Sequence, num_jobs: int = 1, chunksize: int = 4):
        """Like :meth:`prefetch` but yields results one at a time and
        never accumulates artifacts in this pipeline's memory tier —
        the corpus-scale path: a consumer can fold a thousand-program
        run into aggregates while holding O(1) artifacts."""
        from .executor import stream_jobs
        return stream_jobs(self, jobs, num_jobs, chunksize=chunksize)
