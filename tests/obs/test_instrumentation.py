"""End-to-end checks that the pipeline reports spans and metrics.

These drive the real toolchain (compile -> profile -> disambiguate ->
time) under an installed tracer and assert the observability contract:
every stage shows up in the span tree, the simulator publishes op
histograms and guard tallies, and nothing at all is recorded when
tracing is disabled.
"""

import pytest

from repro import (Disambiguator, compile_source, disambiguate,
                   evaluate_program, machine, obs, run_program)
from repro.bench import get_benchmark
from repro.frontend.grafting import graft_program
from repro.pipeline import ArtifactStore, Pipeline

SOURCE = """
int a[8];
int main() {
    int i;
    for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
    print(a[5]);
    return 0;
}
"""


def span_names(span):
    names = {span.name}
    for child in span.children:
        names |= span_names(child)
    return names


@pytest.fixture
def traced_pipeline():
    with obs.tracing() as tracer:
        program = compile_source(SOURCE)
        reference = run_program(program)
        mach = machine(4, 6)
        view = disambiguate(program, Disambiguator.SPEC,
                            profile=reference.profile, machine=mach)
        evaluate_program(view.program, view.graphs, mach, reference.profile)
    return tracer


class TestPipelineSpans:
    def test_every_stage_appears(self, traced_pipeline):
        names = span_names(traced_pipeline.finish())
        for expected in ("frontend.compile", "frontend.parse",
                         "frontend.semantic", "frontend.lower",
                         "frontend.treegen", "passes.lower",
                         "passes.validate", "sim.run", "disambig.spec",
                         "passes.spd", "disambig.spd_transform",
                         "disambig.build_graphs", "timing.evaluate"):
            assert expected in names, expected

    def test_work_counters_recorded(self, traced_pipeline):
        counters = traced_pipeline.metrics.counters
        assert counters["depgraph.builds"] > 0
        assert counters["timing.infinite_evals"] > 0
        assert counters["sched.trees_scheduled"] > 0
        assert counters["sim.steps"] > 0

    def test_grafting_span(self):
        program = compile_source(SOURCE)
        with obs.tracing() as tracer:
            graft_program(program)
        root = tracer.finish()
        assert "frontend.graft" in span_names(root)


class TestSimulatorMetrics:
    def test_op_histogram_and_tree_counts(self):
        program = compile_source(SOURCE)
        with obs.tracing() as tracer:
            run_program(program)
        counters = tracer.metrics.counters
        # the loop body stores 8 times and multiplies 8+ times
        assert counters["sim.ops.STORE"] == 8
        assert counters["sim.ops.PRINT"] == 1
        assert counters["sim.tree_executions"] >= 9
        tree_counters = [k for k in counters if k.startswith("sim.tree.")]
        assert tree_counters, "per-tree execution counts missing"

    def test_guard_tallies_are_consistent(self):
        # if-conversion produces guarded ops in the else/then arms
        source = """
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
    }
    print(acc);
    return 0;
}
"""
        program = compile_source(source)
        with obs.tracing() as tracer:
            run_program(program)
        counters = tracer.metrics.counters
        assert counters["sim.guard_committed"] > 0
        assert counters["sim.guard_squashed"] > 0

    def test_histogram_matches_untraced_semantics(self):
        program = compile_source(SOURCE)
        plain = run_program(program)
        with obs.tracing():
            traced = run_program(compile_source(SOURCE))
        assert plain.output == traced.output
        assert plain.steps == traced.steps


class TestDisabledIsInert:
    def test_no_tracer_no_recording(self):
        program = compile_source(SOURCE)
        reference = run_program(program)
        mach = machine(4, 6)
        view = disambiguate(program, Disambiguator.SPEC,
                            profile=reference.profile, machine=mach)
        timing = evaluate_program(view.program, view.graphs, mach,
                                  reference.profile)
        assert not obs.is_enabled()
        assert timing.cycles > 0

    def test_results_identical_with_and_without_tracing(self):
        # each run gets its own memory-only store, so the traced run
        # recomputes every stage instead of reading the plain run's
        mach = machine(5, 6)
        source = get_benchmark("perm").source

        def spec_cycles():
            pipeline = Pipeline(store=ArtifactStore(None))
            return pipeline.timing("perm", source, Disambiguator.SPEC,
                                   mach).cycles

        cycles_plain = spec_cycles()
        with obs.tracing() as tracer:
            cycles_traced = spec_cycles()
        assert cycles_plain == cycles_traced
        assert "pipeline.timing" in span_names(tracer.root)
