"""End-to-end cache correctness for :class:`repro.pipeline.core.Pipeline`.

Disk round-trips must reproduce the in-memory result exactly, damaged
cache entries must be rebuilt transparently, and the parallel executor
must be indistinguishable from the serial path.
"""

import pytest

from repro import obs
from repro.disambig.pipeline import Disambiguator
from repro.experiments import figure6_2
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.executor import TimingJob, ViewJob, run_jobs
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


class TestCachedStages:
    def test_disk_round_trip_equals_in_memory(self, tmp_path):
        mach = machine(5, 2)
        cold = Pipeline(store=ArtifactStore(tmp_path))
        first = cold.timing("ex", SOURCE, Disambiguator.SPEC, mach)
        # a fresh pipeline on the same disk store must not recompute
        warm = Pipeline(store=ArtifactStore(tmp_path))
        with obs.tracing() as tracer:
            second = warm.timing("ex", SOURCE, Disambiguator.SPEC, mach)
        counters = tracer.metrics.counters
        assert counters.get("pipeline.cache_hits.disk", 0) == 1
        assert counters.get("pipeline.cache_misses", 0) == 0
        assert second.fingerprint == first.fingerprint
        assert second.cycles == first.cycles
        assert (set(second.timing.tree_reports)
                == set(first.timing.tree_reports))

    def test_view_round_trip(self, tmp_path):
        cold = Pipeline(store=ArtifactStore(tmp_path))
        first = cold.view("ex", SOURCE, Disambiguator.SPEC, 2)
        warm = Pipeline(store=ArtifactStore(tmp_path))
        second = warm.view("ex", SOURCE, Disambiguator.SPEC, 2)
        assert second.code_size() == first.code_size()
        assert second.spd_counts() == first.spd_counts()

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipe = Pipeline(store=store)
        baseline = pipe.compiled("ex", SOURCE)
        path = store._path("compiled", baseline.fingerprint)
        path.write_bytes(b"truncated")
        rebuilt = Pipeline(store=ArtifactStore(tmp_path)).compiled("ex", SOURCE)
        assert rebuilt.program.size() == baseline.program.size()
        # the rebuild overwrote the damaged file with a loadable entry
        assert ArtifactStore(tmp_path).get(
            "compiled", baseline.fingerprint) is not None

    def test_memory_only_pipeline_recomputes_per_instance(self):
        a = Pipeline(store=ArtifactStore(root=None))
        b = Pipeline(store=ArtifactStore(root=None))
        assert (a.compiled("ex", SOURCE).fingerprint
                == b.compiled("ex", SOURCE).fingerprint)


class TestExecutor:
    def test_serial_jobs_in_order(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        jobs = [ViewJob("ex", SOURCE, Disambiguator.STATIC),
                TimingJob("ex", SOURCE, Disambiguator.NAIVE, machine(5, 2))]
        results = run_jobs(pipe, jobs, num_jobs=1)
        assert results[0].kind == Disambiguator.STATIC
        assert results[1].kind == Disambiguator.NAIVE

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        mach = machine(5, 2)
        jobs = [TimingJob("ex", SOURCE, kind, mach) for kind in Disambiguator]
        serial = run_jobs(Pipeline(store=ArtifactStore(tmp_path / "serial")),
                          jobs, num_jobs=1)
        parallel = run_jobs(
            Pipeline(store=ArtifactStore(tmp_path / "parallel")),
            jobs, num_jobs=4)
        assert [a.fingerprint for a in parallel] == \
            [a.fingerprint for a in serial]
        assert [a.cycles for a in parallel] == [a.cycles for a in serial]

    @pytest.mark.slow
    def test_parallel_lands_results_in_parent_store(self, tmp_path):
        pipe = Pipeline(store=ArtifactStore(tmp_path))
        mach = machine(5, 2)
        jobs = [TimingJob("ex", SOURCE, kind, mach)
                for kind in (Disambiguator.NAIVE, Disambiguator.STATIC)]
        run_jobs(pipe, jobs, num_jobs=2)
        with obs.tracing() as tracer:
            pipe.timing("ex", SOURCE, Disambiguator.NAIVE, mach)
        assert tracer.metrics.counters["pipeline.cache_hits.mem"] == 1


class TestWorkerTraceMerge:
    """jobs=N runs must fold worker spans and metrics into the parent
    tracer so one coherent trace covers the whole fan-out."""

    @pytest.mark.slow
    def test_jobs4_counters_equal_serial(self, tmp_path):
        mach = machine(5, 2)
        jobs = [TimingJob("ex", SOURCE, kind, mach) for kind in Disambiguator]

        with obs.tracing() as serial_tracer:
            run_jobs(Pipeline(store=ArtifactStore(tmp_path / "serial")),
                     jobs, num_jobs=1)
        with obs.tracing() as parallel_tracer:
            run_jobs(Pipeline(store=ArtifactStore(tmp_path / "parallel")),
                     jobs, num_jobs=4)

        serial = serial_tracer.metrics.counters
        parallel = parallel_tracer.metrics.counters
        # per-job work counters must agree exactly
        for key in ("depgraph.builds", "timing.infinite_evals",
                    "sched.trees_scheduled"):
            assert parallel[key] == serial[key], key
        # shared-stage work (the profile simulation) may be duplicated
        # by workers racing on a cold cache, but is never lost
        assert parallel["sim.steps"] >= serial["sim.steps"]

    @pytest.mark.slow
    def test_jobs2_grafts_worker_spans(self, tmp_path):
        from repro.obs.export import to_chrome_trace, worker_pid_of

        mach = machine(5, 2)
        jobs = [TimingJob("ex", SOURCE, kind, mach) for kind in Disambiguator]
        with obs.tracing() as tracer:
            run_jobs(Pipeline(store=ArtifactStore(tmp_path)), jobs,
                     num_jobs=2)
        root = tracer.finish()

        worker_spans = [span for span in root.walk()
                        if span.name == "pipeline.worker_job"]
        assert len(worker_spans) == len(jobs)
        pids = {worker_pid_of(span) for span in worker_spans}
        assert None not in pids
        # every worker job subtree recorded real pipeline stages
        for span in worker_spans:
            names = {child.name for child in span.walk()}
            assert "pipeline.timing" in names

        # and the merged tree exports to one multi-pid chrome trace
        trace = to_chrome_trace(root)
        lanes = {event["pid"] for event in trace["traceEvents"]}
        assert len(lanes) >= 2

    @pytest.mark.slow
    def test_jobs2_merges_worker_histograms(self, tmp_path):
        mach = machine(5, 2)
        jobs = [TimingJob("ex", SOURCE, kind, mach) for kind in Disambiguator]
        with obs.tracing() as tracer:
            run_jobs(Pipeline(store=ArtifactStore(tmp_path)), jobs,
                     num_jobs=2)
        histograms = tracer.metrics.histograms
        assert histograms["span.pipeline.timing"].count == len(jobs)
        assert histograms["span.pipeline.timing"].percentile(50) is not None


class TestParallelExperimentEquivalence:
    @pytest.mark.slow
    def test_figure6_2_jobs4_equals_jobs1(self, tmp_path):
        names = ["bcuint", "tree"]
        serial_pipeline = Pipeline(store=ArtifactStore(tmp_path / "serial"))
        parallel_pipeline = Pipeline(
            store=ArtifactStore(tmp_path / "parallel"))
        serial = figure6_2.run(serial_pipeline, names=names, jobs=1)
        parallel = figure6_2.run(parallel_pipeline, names=names, jobs=4)
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.render() == serial.render()
