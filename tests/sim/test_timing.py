"""Unit tests for the infinite-machine timing model."""

import pytest

from repro.ir import (Guard, Opcode, Register, TreeBuilder,
                      build_dependence_graph)
from repro.ir.depgraph import Arc, ArcKind
from repro.machine import machine
from repro.sim import average_time, infinite_machine_timing
from repro.sim.timing import (AFTER_COMPLETION, AFTER_ISSUE,
                              AFTER_ISSUE_PLUS1, GUARD_FLOOR, UNTIMED,
                              arc_rule, issue_constraint)


def timing_of(build, memory_latency=6):
    b = TreeBuilder("t")
    build(b)
    b.halt()
    graph = build_dependence_graph(b.tree)
    return b.tree, graph, infinite_machine_timing(
        graph, machine(None, memory_latency))


class TestDataflowChains:
    def test_serial_chain_sums_latencies(self):
        def build(b):
            x = b.value(Opcode.ADD, [1, 2])          # completes @1
            y = b.value(Opcode.MUL, [x, 3])          # @1+3=4
            b.value(Opcode.ADD, [y, 1])              # @5
        _tree, _graph, timing = timing_of(build)
        assert timing.completion[0] == 1
        assert timing.completion[1] == 4
        assert timing.completion[2] == 5

    def test_independent_ops_run_in_parallel(self):
        def build(b):
            b.value(Opcode.ADD, [1, 2])
            b.value(Opcode.ADD, [3, 4])
        _tree, _graph, timing = timing_of(build)
        assert timing.issue[0] == timing.issue[1] == 0

    def test_store_load_chain_costs_two_memory_latencies(self):
        """The cost SpD attacks: an ambiguous store->load chain."""
        def build(b):
            v = b.value(Opcode.ADD, [1, 2])
            b.store(v, 100)
            b.load(100, "float")
        for mem in (2, 6):
            _t, _g, timing = timing_of(
                lambda b: build(b), memory_latency=mem)
            # store issues @1, completes @1+mem; load issues then
            assert timing.issue[2] == 1 + mem
            assert timing.completion[2] == 1 + 2 * mem


class TestGuardRule:
    def test_guarded_op_completion_waits_for_guard(self):
        def build(b):
            slow = b.value(Opcode.DIV, [10, 3])              # completes @7
            cond = b.value(Opcode.CMP_GT, [slow, 0])         # @8
            b.emit(Opcode.MOV, [1], dest=Register("v.x"),
                   guard=Guard(cond))
        _t, _g, timing = timing_of(build)
        # the guarded MOV may issue immediately (conditional execution)
        assert timing.issue[2] == 0
        # but cannot complete before one cycle after the guard value
        assert timing.completion[2] == 9

    def test_unguarded_op_not_delayed(self):
        def build(b):
            b.value(Opcode.DIV, [10, 3])
            b.emit(Opcode.MOV, [1], dest=Register("v.x"))
        _t, _g, timing = timing_of(build)
        assert timing.completion[1] == 1


class TestPathTimes:
    def test_exit_waits_for_committing_store(self):
        def build(b):
            v = b.value(Opcode.FADD, [1.0, 2.0])  # completes @3
            b.store(v, 100)                       # issues @3
        _t, graph, timing = timing_of(build, memory_latency=6)
        # exit issue >= store issue (COMMIT), completes branch-lat later
        store_issue = timing.issue[1]
        assert timing.path_times[0] >= store_issue + 2

    def test_exit_does_not_wait_for_pure_temps(self):
        def build(b):
            b.value(Opcode.DIV, [10, 3])  # slow pure op, result unused
        _t, _g, timing = timing_of(build)
        assert timing.path_times[0] == 2  # just the branch

    def test_ignore_keys_relaxes_arcs(self, raw_tree_program):
        tree = raw_tree_program.functions["main"].trees["t0"]
        graph = build_dependence_graph(tree)
        mach = machine(None, 6)
        full = infinite_machine_timing(graph, mach)
        amb = graph.ambiguous_arcs()[0]
        relaxed = infinite_machine_timing(
            graph, mach, ignore_keys=frozenset({amb.key}))
        assert relaxed.path_times[0] < full.path_times[0]


class TestAverageTime:
    def test_weighted_average(self):
        assert average_time([10, 20], [0.25, 0.75]) == pytest.approx(17.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            average_time([10], [0.5, 0.5])


class TestArcRules:
    """:func:`arc_rule` codes the rules :func:`issue_constraint` states."""

    ISSUE = [5, 0, 0]
    COMPLETION = [9, 0, 0]

    def apply(self, rule):
        # the rule's issue floor and completion floor for node 0 -> 1
        return {AFTER_COMPLETION: (self.COMPLETION[0], 0),
                AFTER_ISSUE: (self.ISSUE[0], 0),
                AFTER_ISSUE_PLUS1: (self.ISSUE[0] + 1, 0),
                GUARD_FLOOR: (0, self.COMPLETION[0] + 1),
                UNTIMED: (0, 0)}[rule]

    @pytest.mark.parametrize("kind", list(ArcKind))
    @pytest.mark.parametrize("via_guard", (False, True))
    @pytest.mark.parametrize("into_op", (False, True))
    def test_rule_matches_issue_constraint(self, kind, via_guard, into_op):
        arc = Arc(0, 1, kind, via_guard=via_guard)
        rule = arc_rule(arc, num_ops=2 if into_op else 1)
        issue_floor, completion_floor = self.apply(rule)
        assert issue_floor == issue_constraint(arc, self.ISSUE,
                                               self.COMPLETION)
        guard = kind is ArcKind.REG_RAW and via_guard
        assert completion_floor == (self.COMPLETION[0] + 1
                                    if guard and into_op else 0)
