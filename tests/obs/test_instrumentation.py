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
from repro.bench import SUITE, get_benchmark
from repro.frontend.grafting import graft_program
from repro.passes import DEFAULT_CLEANUP, PassPipelineConfig
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
                         "frontend.treegen", "frontend.validate",
                         "sim.run", "disambig.spec",
                         "passes.spd", "disambig.spd_transform",
                         "disambig.build_graphs", "timing.evaluate"):
            assert expected in names, expected

    def test_changing_passes_are_validated(self):
        program = compile_source(get_benchmark("perm").source)
        with obs.tracing() as tracer:
            view = disambiguate(program, Disambiguator.NAIVE,
                                passes=PassPipelineConfig(
                                    cleanup=DEFAULT_CLEANUP))
        validated = [span.attributes["after"]
                     for span in tracer.finish().walk()
                     if span.name == "passes.validate"]
        changed = [report["pass"] for report in view.pass_stats
                   if report["changed"]]
        assert validated == changed and changed

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


class TestGraphReuse:
    """``disambig.build_graphs`` counts the graphs it took over from
    the ``spd`` pass as ``reused`` next to its ``trees``."""

    def build_graphs_span(self, name, passes=None):
        program = compile_source(get_benchmark(name).source)
        profile = run_program(program).profile
        with obs.tracing() as tracer:
            view = disambiguate(program, Disambiguator.SPEC,
                                profile=profile, machine=machine(None, 6),
                                passes=passes)
        never_ran = sum(1 for f, tree in view.program.all_trees()
                        if profile.executed((f, tree.name)) == 0)
        span = next(each for each in tracer.finish().walk()
                    if each.name == "disambig.build_graphs")
        return span, never_ran

    @pytest.mark.parametrize("name", ["perm", "fft"])
    def test_only_trees_spd_skipped_are_built(self, name):
        span, never_ran = self.build_graphs_span(name)
        counters = span.counters
        assert counters["trees"] - counters["reused"] == never_ran
        assert counters["reused"] > 0

    def test_changing_cleanup_drops_spd_graphs(self):
        span, _never_ran = self.build_graphs_span(
            "perm", PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        assert span.counters["trees"] > 0
        assert span.counters["reused"] == 0

    def test_the_four_views_share_one_skeleton_per_tree(self):
        """The Section 6 flow builds the 4 views of a kernel from one
        compiled program: NAIVE builds each tree's skeleton, STATIC,
        PERFECT and SpD's first graph reuse it, and every later SpD
        graph comes with a skeleton of its own."""
        pipe = Pipeline(store=ArtifactStore(root=None))
        trees = 0
        with obs.tracing() as tracer:
            for name in SUITE:
                source = get_benchmark(name).source
                trees += len(list(pipe.compiled(name, source)
                                  .program.all_trees()))
                for kind in Disambiguator:
                    pipe.view(name, source, kind, 6)
        counters = tracer.metrics.counters
        assert (counters["depgraph.builds"] - counters["depgraph.skeletons"]
                == 3 * trees)


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
