"""The ``hwtime`` pipeline stage: caching, fingerprints, parallel jobs.

Mirrors ``tests/pipeline/test_pipeline.py`` for the hardware-simulation
stage added alongside the static-schedule ``timing`` stage.
"""

import pytest

from repro import obs
from repro.disambig.pipeline import Disambiguator
from repro.machine import hw_machine
from repro.pipeline.core import Pipeline
from repro.pipeline.executor import HwTimingJob, run_jobs
from repro.pipeline.store import ArtifactStore

SOURCE = """
float a[300];
float y[300];

int main() {
    int i;
    for (i = 1; i <= 100; i = i + 1) {
        a[2*i] = i * 1.0;
        y[i] = a[i+4] * 2.0 + 1.0;
    }
    print(y[3]);
    print(y[50]);
    return 0;
}
"""

MACH = hw_machine(2, predictor="store-set", window=8)


class TestCachedStage:
    def test_disk_round_trip_equals_in_memory(self, tmp_path):
        cold = Pipeline(store=ArtifactStore(tmp_path))
        first = cold.hw_timing("ex", SOURCE, Disambiguator.SPEC, MACH)
        warm = Pipeline(store=ArtifactStore(tmp_path))
        with obs.tracing() as tracer:
            second = warm.hw_timing("ex", SOURCE, Disambiguator.SPEC, MACH)
        counters = tracer.metrics.counters
        assert counters.get("pipeline.cache_hits.disk", 0) == 1
        assert counters.get("pipeline.cache_misses", 0) == 0
        assert second.fingerprint == first.fingerprint
        assert second.cycles == first.cycles
        assert second.timing == first.timing

    def test_memory_hit_on_same_pipeline(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        pipe.hw_timing("ex", SOURCE, Disambiguator.NAIVE, MACH)
        with obs.tracing() as tracer:
            pipe.hw_timing("ex", SOURCE, Disambiguator.NAIVE, MACH)
        assert tracer.metrics.counters["pipeline.cache_hits.mem"] == 1


class TestFingerprints:
    def _fp(self, pipe, mach, kind=Disambiguator.SPEC):
        return pipe.hw_timing_fingerprint(SOURCE, kind, mach)

    def test_every_machine_knob_is_load_bearing(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        base = self._fp(pipe, MACH)
        variants = [
            hw_machine(4, predictor="store-set", window=8),
            hw_machine(2, predictor="always", window=8),
            hw_machine(2, predictor="store-set", window=16),
            hw_machine(2, predictor="store-set", window=8,
                       replay_penalty=7),
            hw_machine(2, predictor="store-set", window=8,
                       memory_latency=6),
        ]
        fps = [self._fp(pipe, mach) for mach in variants]
        assert base not in fps
        assert len(set(fps)) == len(fps)

    def test_view_kind_is_load_bearing(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        assert (self._fp(pipe, MACH, Disambiguator.SPEC)
                != self._fp(pipe, MACH, Disambiguator.NAIVE))

    def test_distinct_from_static_timing_stage(self, tmp_path):
        from repro.machine.description import machine
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        static = pipe.timing_fingerprint(SOURCE, Disambiguator.SPEC,
                                         machine(5, 2))
        assert self._fp(pipe, MACH) != static


class TestParallelJobs:
    def _jobs(self):
        return [
            HwTimingJob("ex", SOURCE, kind, mach)
            for kind in (Disambiguator.NAIVE, Disambiguator.SPEC)
            for mach in (hw_machine(1, window=8), MACH)
        ]

    def test_serial_executor(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        results = run_jobs(pipe, self._jobs(), 1)
        assert len(results) == 4
        assert all(r.cycles > 0 for r in results)

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        """jobs=4 must be indistinguishable from jobs=1 — same cycles,
        same squash counts, same fingerprints."""
        serial = run_jobs(Pipeline(store=ArtifactStore(tmp_path / "a")),
                          self._jobs(), 1)
        parallel = run_jobs(Pipeline(store=ArtifactStore(tmp_path / "b")),
                            self._jobs(), 4)
        for left, right in zip(serial, parallel):
            assert left.fingerprint == right.fingerprint
            assert left.cycles == right.cycles
            assert left.timing == right.timing


class TestDivergenceGuard:
    def test_functional_divergence_raises(self, tmp_path, monkeypatch):
        """If the simulator ever disagrees with the interpreter, the
        stage must fail loudly rather than cache a wrong cycle count."""
        import repro.pipeline.core as core

        class _Liar:
            cycles = 1
            timing = None
            output = ("not", "the", "real", "output")

        monkeypatch.setattr(core, "simulate_program",
                            lambda program, mach, graphs: _Liar())
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        with pytest.raises(AssertionError, match="diverged"):
            pipe.hw_timing("ex", SOURCE, Disambiguator.NAIVE, MACH)
