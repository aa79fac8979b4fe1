"""Unit tests for the Figure 5-1 guidance heuristic."""

import pytest

from repro.bench import get_benchmark
from repro.disambig import (SpDConfig, SpDNotApplicable, make_static_oracle,
                            speculative_disambiguation)
from repro.disambig import spd_heuristic
from repro.disambig.spd_heuristic import _candidate_gains
from repro.frontend import compile_source
from repro.ir import ArcKind, build_dependence_graph, naive_oracle
from repro.machine import machine
from repro.sim import run_program

from ..conftest import build_raw_tree_program, graph_rows
from ..ir.reference_depgraph import build_dependence_graph as reference


def loop_tree_and_probs(program, profile):
    func, tree = next((f, t) for f, t in program.all_trees()
                      if "for" in t.name)
    probs = profile.path_probabilities((func, tree.name), len(tree.exits))
    return tree, probs


class TestCandidateGains:
    def test_critical_alias_has_positive_gain(self, example22_program):
        profile = run_program(example22_program).profile
        tree, probs = loop_tree_and_probs(example22_program, profile)
        from repro.disambig import make_static_oracle
        graph = build_dependence_graph(tree, make_static_oracle(tree))
        gains = _candidate_gains(graph, machine(None, 6), probs)
        assert gains
        assert all(g > 0 for g, _arc in gains)

    def test_off_critical_path_arcs_excluded(self, raw_tree_program):
        """An ambiguous arc whose removal cannot shorten any path has
        zero gain and is not a candidate."""
        tree = raw_tree_program.functions["main"].trees["t0"].copy()
        # make the load chain non-critical by adding a long serial chain
        graph = build_dependence_graph(tree)
        gains = _candidate_gains(graph, machine(None, 2), [1.0])
        # with 2-cycle memory the store->load chain still dominates, so
        # there IS gain; with div chains it may not be. Just check the
        # returned arcs are all ambiguous.
        assert all(arc.ambiguous for _g, arc in gains)


class TestHeuristicLoop:
    def run_heuristic(self, config=SpDConfig(), memory_latency=6):
        program = build_raw_tree_program(3, 5)
        tree = program.functions["main"].trees["t0"]
        result, _graph = speculative_disambiguation(
            tree, naive_oracle, machine(None, memory_latency),
            config=config)
        return program, tree, result

    def test_applies_profitable_raw(self):
        _program, _tree, result = self.run_heuristic()
        assert result.applications
        assert result.count_by_kind()[ArcKind.MEM_RAW] >= 1
        assert result.predicted_gain > 0

    def test_max_expansion_bounds_growth(self):
        program = build_raw_tree_program(3, 5)
        tree = program.functions["main"].trees["t0"]
        base = tree.size()
        config = SpDConfig(max_expansion=1.05, min_gain=0.1)
        speculative_disambiguation(tree, naive_oracle, machine(None, 6),
                                   config=config)
        assert tree.size() <= int(base * 4)  # sanity: never runaway

    def test_min_gain_gate(self):
        """An absurdly high MinGain prevents any application."""
        _program, tree, result = self.run_heuristic(
            SpDConfig(min_gain=10_000.0))
        assert not result.applications
        assert result.ops_added == 0

    def test_semantics_preserved_after_heuristic(self):
        program = build_raw_tree_program(3, 3)
        before = run_program(program.copy())
        tree = program.functions["main"].trees["t0"]
        speculative_disambiguation(tree, naive_oracle, machine(None, 6))
        after = run_program(program)
        assert before.output_equal(after)

    def test_rollback_on_regression(self):
        """With memory latency 2 and a trivial cone, the overhead can
        exceed the benefit; whatever the heuristic decides, the tree
        must never get slower on the infinite machine."""
        from repro.sim import infinite_machine_timing
        for mem in (2, 6):
            program = build_raw_tree_program(3, 5)
            tree = program.functions["main"].trees["t0"]
            mach = machine(None, mem)
            before = infinite_machine_timing(
                build_dependence_graph(tree, naive_oracle), mach).path_times
            speculative_disambiguation(tree, naive_oracle, mach)
            after = infinite_machine_timing(
                build_dependence_graph(tree, naive_oracle), mach).path_times
            assert after[0] <= before[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpDConfig(max_expansion=0.5)
        with pytest.raises(ValueError):
            SpDConfig(min_gain=-1)
        with pytest.raises(ValueError):
            SpDConfig(assumed_alias_probability=1.5)


class TestCarriedGraph:
    """The loop carries each tree state's dependence graph instead of
    rebuilding it; every graph it scores must still be the tree's."""

    def test_hoist_then_reject_rebuilds_the_graph(self, monkeypatch):
        """moment.b4_for at 6-cycle memory: twice a WAW application
        hoists S2's address chain and then refuses (a load sits between
        the stores), so the tree changes although nothing was applied."""
        program = compile_source(get_benchmark("moment").source)
        profile = run_program(program).profile
        func, tree = next((f, t) for f, t in program.all_trees()
                          if t.name == "moment.b4_for")
        probs = profile.path_probabilities((func, tree.name),
                                           len(tree.exits))
        oracle = make_static_oracle(tree)

        def fresh_rows():
            # the kept one-pass builder: the library's own would reuse
            # the very skeleton under test
            return graph_rows(reference(tree, oracle))

        hoisted_rejections = []
        real_apply_spd = spd_heuristic.apply_spd

        def apply_spd(tree_, arc):
            ops_before = tree_.ops
            try:
                return real_apply_spd(tree_, arc)
            except SpDNotApplicable:
                if tree_.ops is not ops_before:
                    hoisted_rejections.append(arc.key)
                raise

        def candidate_gains(graph, mach, path_probs):
            assert graph.tree is tree
            assert graph_rows(graph) == fresh_rows()
            return _candidate_gains(graph, mach, path_probs)

        monkeypatch.setattr(spd_heuristic, "apply_spd", apply_spd)
        monkeypatch.setattr(spd_heuristic, "_candidate_gains",
                            candidate_gains)
        result, graph = speculative_disambiguation(
            tree, oracle, machine(None, 6), probs)
        assert len(hoisted_rejections) == 2
        assert result.applications
        assert graph.tree is tree
        assert graph_rows(graph) == fresh_rows()

    def test_final_graph_keeps_no_timing_evaluator(self):
        """The SPEC view keeps the final graph; the evaluator compiled
        for the Gain() loop must not live on with it."""
        from repro.sim import timing
        tree = build_raw_tree_program(3, 5).functions["main"].trees["t0"]
        result, graph = speculative_disambiguation(tree, naive_oracle,
                                                   machine(None, 6))
        assert result.applications
        assert graph not in timing._compiled_timing
