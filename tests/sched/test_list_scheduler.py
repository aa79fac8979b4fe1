"""Unit tests for the resource-constrained list scheduler."""

import pytest

from repro import obs
from repro.bench import SUITE, get_benchmark
from repro.disambig import Disambiguator
from repro.ir import Opcode, TreeBuilder, build_dependence_graph
from repro.machine import machine
from repro.sched import list_schedule, schedule_tree
from repro.sim import infinite_machine_timing
from repro.sim.evaluate import evaluate_program


def wide_tree(num_independent=8):
    b = TreeBuilder("t")
    for i in range(num_independent):
        b.value(Opcode.ADD, [i, 1])
    b.halt()
    return b.tree


class TestResourceLimits:
    def test_slot_capacity_respected(self):
        tree = wide_tree(8)
        graph = build_dependence_graph(tree)
        for width in (1, 2, 4):
            schedule = list_schedule(graph, machine(width, 2))
            for _cycle, nodes in schedule.slots.items():
                assert len(nodes) <= width

    def test_narrow_machine_serialises(self):
        tree = wide_tree(8)
        graph = build_dependence_graph(tree)
        one = list_schedule(graph, machine(1, 2))
        eight = list_schedule(graph, machine(8, 2))
        # 8 adds + 1 exit on a 1-wide machine: 9 issue cycles
        assert max(one.issue) == 8
        assert max(eight.issue) <= 2

    def test_all_nodes_scheduled(self):
        tree = wide_tree(5)
        graph = build_dependence_graph(tree)
        schedule = list_schedule(graph, machine(2, 2))
        assert all(c >= 0 for c in schedule.issue)
        assert all(c >= 0 for c in schedule.completion)

    def test_infinite_machine_rejected(self):
        graph = build_dependence_graph(wide_tree(2))
        with pytest.raises(ValueError):
            list_schedule(graph, machine(None, 2))


class TestConstraintSatisfaction:
    def check_constraints(self, graph, schedule):
        from repro.sim.timing import issue_constraint
        for arc in graph.arcs:
            earliest = issue_constraint(arc, schedule.issue,
                                        schedule.completion)
            assert schedule.issue[arc.dst] >= earliest, arc

    def test_constraints_hold_on_compiled_trees(self, example22_program):
        for _f, tree in example22_program.all_trees():
            graph = build_dependence_graph(tree)
            for width in (1, 3):
                schedule = list_schedule(graph, machine(width, 6))
                self.check_constraints(graph, schedule)

    def test_schedule_never_beats_infinite_machine(self, example22_program):
        for _f, tree in example22_program.all_trees():
            graph = build_dependence_graph(tree)
            for mem in (2, 6):
                mach = machine(None, mem)
                ideal = infinite_machine_timing(graph, mach)
                for width in (1, 2, 5):
                    schedule = list_schedule(graph, machine(width, mem))
                    for ideal_t, real_t in zip(ideal.path_times,
                                               schedule.path_times):
                        assert real_t >= ideal_t

    def test_wide_machine_converges_to_infinite(self, example22_program):
        for _f, tree in example22_program.all_trees():
            graph = build_dependence_graph(tree)
            mach = machine(None, 2)
            ideal = infinite_machine_timing(graph, mach)
            schedule = list_schedule(graph, machine(64, 2))
            assert schedule.path_times == ideal.path_times


class TestScheduleMetrics:
    def test_utilization_bounds(self):
        tree = wide_tree(6)
        graph = build_dependence_graph(tree)
        schedule = list_schedule(graph, machine(2, 2))
        assert 0 < schedule.utilization() <= 1

    def test_words_ordered_by_cycle(self):
        tree = wide_tree(6)
        graph = build_dependence_graph(tree)
        schedule = list_schedule(graph, machine(2, 2))
        cycles = [cycle for cycle, _nodes in schedule.words()]
        assert cycles == sorted(cycles)


class TestScheduleTreeDispatch:
    def test_infinite_goes_to_dataflow_model(self):
        graph = build_dependence_graph(wide_tree(3))
        timing = schedule_tree(graph, machine(None, 2))
        assert timing.path_times == infinite_machine_timing(
            graph, machine(None, 2)).path_times

    def test_finite_goes_to_list_scheduler(self):
        graph = build_dependence_graph(wide_tree(3))
        timing = schedule_tree(graph, machine(1, 2))
        assert max(timing.issue) >= 3  # serialised


#: (sched.trees_scheduled, sched.ops_scheduled, sched.cycles_filled) for
#: each kernel's four views timed on life-5fu-mem6, as the original
#: cycle-scan scheduler counted them; trees_scheduled is also
#: BENCH_spd.json's counter.
PINNED_COUNTERS = {
    "adi": (84, 958, 1134),
    "bcuint": (72, 690, 920),
    "fft": (48, 801, 841),
    "moment": (28, 540, 969),
    "smooft": (72, 1277, 1417),
    "solvde": (64, 859, 1272),
    "perm": (56, 225, 298),
    "queen": (48, 379, 412),
    "quick": (76, 427, 546),
    "tree": (104, 496, 762),
    "towers": (60, 248, 391),
    "intmm": (56, 340, 420),
    "bubble": (48, 340, 388),
    "espresso": (172, 1482, 1570),
}


class TestWorkCounters:
    def test_pinned_kernel_counters(self, pipeline):
        assert sorted(PINNED_COUNTERS) == sorted(SUITE)
        mach = machine(5, 6)
        assert mach.name == "life-5fu-mem6"
        for name, pinned in PINNED_COUNTERS.items():
            source = get_benchmark(name).source
            profile = pipeline.profile(name, source).profile
            views = [pipeline.view(name, source, kind, 6)
                     for kind in Disambiguator]
            with obs.tracing() as tracer:
                for view in views:
                    evaluate_program(view.program, view.graphs, mach,
                                     profile)
            counters = tracer.metrics.counters
            assert (counters["sched.trees_scheduled"],
                    counters["sched.ops_scheduled"],
                    counters["sched.cycles_filled"]) == pinned, name

    def test_idle_cycles_still_count_as_filled(self):
        # a load then its consumer: the consumer waits out the memory
        # latency, and the skipped idle cycles still count as filled
        b = TreeBuilder("t")
        loaded = b.load(3, "int")
        b.value(Opcode.ADD, [loaded, 1], type_="int")
        b.halt()
        graph = build_dependence_graph(b.tree)
        with obs.tracing() as tracer:
            schedule = list_schedule(graph, machine(2, 6))
        assert len(schedule.slots) < max(schedule.issue) + 1
        assert (tracer.metrics.counters["sched.cycles_filled"]
                == max(schedule.issue) + 1)
