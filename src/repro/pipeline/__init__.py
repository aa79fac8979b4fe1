"""``repro.pipeline`` — artifact-store compilation pipeline.

The paper's experimental flow (compile → profile → disambiguate → time,
Section 6.1) as four explicitly cached stages:

* :mod:`repro.pipeline.fingerprint` — content-addressed artifact
  identity (source + SpD knobs + grafting + machine + version salt);
* :mod:`repro.pipeline.artifacts` — picklable inter-stage values;
* :mod:`repro.pipeline.store` — in-memory LRU over an on-disk cache
  (``$REPRO_CACHE_DIR`` / ``~/.cache/repro-spd``) with per-shard locks
  and an optional LRU byte budget;
* :mod:`repro.pipeline.core` — the :class:`Pipeline` stage driver;
* :mod:`repro.pipeline.executor` — the one worker pool: fan-out of the
  (program × disambiguator × machine) job matrix, shared by the
  compilation service (:mod:`repro.serve`).

See ``docs/architecture.md`` for the full design, including cache
layout and invalidation rules.
"""

from .artifacts import (CompiledArtifact, DisambiguationArtifact,
                        ProfileArtifact, TimingArtifact)
from .core import Pipeline
from .executor import CompileJob, HwTimingJob, TimingJob, ViewJob, run_jobs
from .fingerprint import PIPELINE_VERSION, fingerprint
from .store import ArtifactStore, default_cache_dir

__all__ = [
    "ArtifactStore", "CompileJob", "CompiledArtifact",
    "DisambiguationArtifact", "HwTimingJob", "Pipeline", "PIPELINE_VERSION",
    "ProfileArtifact", "TimingArtifact", "TimingJob",
    "ViewJob", "default_cache_dir", "fingerprint", "run_jobs",
]
