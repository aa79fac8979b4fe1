"""Unit tests for the per-tree cycle engine.

The fixture tree (``build_raw_tree_program``) has the paper's
Figure 4-4 shape::

    0 ADD    (store address)
    1 ADD    (load address)
    2 FADD   (stored value)
    3 STORE
    4 LOAD
    5 FMUL   (consumes the load)
    6 PRINT
    7 <halt exit>

so the store is event 0 and the load event 1, with one decision bit:
may the load bypass the store while its address is unknown?
"""

import pytest

from ..conftest import build_raw_tree_program
from repro.hwsim import MemEvent, TreeContext, simulate_tree
from repro.ir.depgraph import build_dependence_graph
from repro.machine import HW_ORACLE_INFINITE, HwMachine, hw_machine

STORE_NODE, LOAD_NODE, EXIT_NODE = 3, 4, 7


@pytest.fixture(scope="module")
def tree():
    return build_raw_tree_program(3, 3).functions["main"].trees["t0"]


def ctx_for(tree, mach):
    return TreeContext(build_dependence_graph(tree), mach)


def alias_events():
    return [MemEvent(STORE_NODE, True, 0), MemEvent(LOAD_NODE, False, 0)]


def disjoint_events():
    return [MemEvent(STORE_NODE, True, 0), MemEvent(LOAD_NODE, False, 1)]


class TestContext:
    def test_nodes_and_latencies(self, tree):
        mach = hw_machine(4)
        ctx = ctx_for(tree, mach)
        assert ctx.num_ops == 7
        assert ctx.num_nodes == 8
        assert ctx.latency[STORE_NODE] == mach.latencies.memory
        assert ctx.latency[EXIT_NODE] == mach.latencies.branch

    def test_renaming_drops_war_waw_keeps_raw(self, tree):
        ctx = ctx_for(tree, hw_machine(4))
        # the FMUL truly depends on the LOAD's completion
        assert any(src == LOAD_NODE for src, _rule in ctx.issue_preds[5])
        # the graph's memory arcs are skipped: the LSQ handles them
        for node in range(ctx.num_nodes):
            assert all(src != STORE_NODE or node == EXIT_NODE
                       for src, _rule in ctx.issue_preds[node]) or \
                node != LOAD_NODE


class TestBypassAndViolation:
    def test_waiting_load_never_violates(self, tree):
        ctx = ctx_for(tree, hw_machine(4))
        result = simulate_tree(ctx, hw_machine(4), alias_events(),
                               {(0, 1): False})
        assert result.violations == ()
        assert result.squashes == 0
        # forwarding happens at store completion: the load cannot have
        # issued before the store completed
        assert result.final_issue[1] >= result.mem_completion[0]

    def test_bypassing_aliased_load_squashes_and_replays(self, tree):
        mach = hw_machine(4)
        ctx = ctx_for(tree, mach)
        waited = simulate_tree(ctx, mach, alias_events(), {(0, 1): False})
        violated = simulate_tree(ctx, mach, alias_events(), {(0, 1): True})
        assert violated.violations == ((LOAD_NODE, STORE_NODE),)
        assert violated.squashes == 1
        # the replay costs an extra issue slot and the penalty
        assert violated.slots_used == waited.slots_used + 1
        assert (violated.mem_completion[1]
                >= waited.mem_completion[1] + mach.replay_penalty)

    def test_bypassing_disjoint_load_is_free_speculation(self, tree):
        mach = hw_machine(4)
        ctx = ctx_for(tree, mach)
        result = simulate_tree(ctx, mach, disjoint_events(), {(0, 1): True})
        assert result.violations == ()
        assert result.spec_issues == 1
        waited = simulate_tree(ctx, mach, disjoint_events(), {(0, 1): False})
        assert result.path_times[0] <= waited.path_times[0]

    def test_violation_propagates_to_consumers(self, tree):
        """The FMUL that consumes the squashed load finishes later, so
        the whole path does."""
        mach = hw_machine(4)
        ctx = ctx_for(tree, mach)
        waited = simulate_tree(ctx, mach, alias_events(), {(0, 1): False})
        violated = simulate_tree(ctx, mach, alias_events(), {(0, 1): True})
        assert violated.path_times[0] > waited.path_times[0]


class TestResourceBounds:
    def test_single_fu_serialises(self, tree):
        ctx1 = ctx_for(tree, hw_machine(1))
        result = simulate_tree(ctx1, hw_machine(1), alias_events(),
                               {(0, 1): False})
        # 8 nodes, one issue per cycle: the last completion is at least
        # issue-cycle 7 plus its latency
        assert max(result.path_times) >= 8

    def test_infinite_machine_is_lower_bound(self, tree):
        events = alias_events()
        infinite = HW_ORACLE_INFINITE
        bound = simulate_tree(ctx_for(tree, infinite), infinite, events,
                              {(0, 1): False})
        for fus in (1, 2, 4):
            for window in (2, 8, None):
                mach = HwMachine(num_fus=fus, window=window,
                                 predictor="never")
                result = simulate_tree(ctx_for(tree, mach), mach, events,
                                       {(0, 1): False})
                assert result.path_times[0] >= bound.path_times[0], (
                    fus, window)

    def test_tight_window_slows_issue(self, tree):
        """A 1-entry window forces program order: cycles can only grow
        versus the unbounded window."""
        narrow = HwMachine(num_fus=4, window=1, predictor="never")
        wide = HwMachine(num_fus=4, window=None, predictor="never")
        narrow_result = simulate_tree(ctx_for(tree, narrow), narrow,
                                      alias_events(), {(0, 1): False})
        wide_result = simulate_tree(ctx_for(tree, wide), wide,
                                    alias_events(), {(0, 1): False})
        assert narrow_result.path_times[0] >= wide_result.path_times[0]

    def test_empty_event_list_still_times_all_nodes(self, tree):
        """Guard-false memory ops fall back to plain slots."""
        mach = hw_machine(2)
        result = simulate_tree(ctx_for(tree, mach), mach, [], {})
        assert len(result.path_times) == 1
        assert result.path_times[0] > 0
        assert result.violations == ()

    def test_deterministic(self, tree):
        mach = hw_machine(2)
        first = simulate_tree(ctx_for(tree, mach), mach, alias_events(),
                              {(0, 1): True})
        second = simulate_tree(ctx_for(tree, mach), mach, alias_events(),
                               {(0, 1): True})
        assert first == second
