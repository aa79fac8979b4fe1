"""Property-based tests of the list scheduler on random trees, including
a differential against the reference scheduler."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import (Constant, Guard, Opcode, Register, TreeBuilder,
                      build_dependence_graph)
from repro.machine import machine
from repro.sched import list_schedule
from repro.sim import infinite_machine_timing
from repro.sim.timing import issue_constraint

from ..sched.reference_scheduler import schedule_diff

_VALUE_OPCODES = [Opcode.ADD, Opcode.MUL, Opcode.FADD, Opcode.DIV,
                  Opcode.SUB, Opcode.FMUL]


@st.composite
def random_trees(draw):
    """A random DAG-shaped tree: value ops reading earlier results,
    interleaved with stores/loads at small constant addresses."""
    builder = TreeBuilder("t")
    values = [builder.value(Opcode.ADD, [draw(st.integers(0, 5)), 1])]
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            addr = draw(st.integers(0, 7))
            builder.store(draw(st.sampled_from(values)), addr)
        elif kind == 1:
            addr = draw(st.integers(0, 7))
            values.append(builder.load(addr, "int"))
        else:
            opcode = draw(st.sampled_from(_VALUE_OPCODES))
            left = draw(st.sampled_from(values))
            right = draw(st.sampled_from(values + [Constant(2)]))
            values.append(builder.value(opcode, [left, right], type_="int"))
    builder.emit(Opcode.PRINT, [values[-1]])
    builder.halt()
    return builder.tree


@st.composite
def guarded_trees(draw):
    """Like :func:`random_trees`, plus variable registers that are read
    and rewritten (REG_WAR, REG_WAW), compares whose results guard
    writes and stores (guard RAW into operations) and a guarded early
    exit (guard RAW into an exit, EXIT_ORDER)."""
    builder = TreeBuilder("t")
    variables = [Register(f"v.{name}") for name in "abc"]
    values = [builder.value(Opcode.ADD, [draw(st.integers(0, 5)), 1])]
    guards = []
    for _ in range(draw(st.integers(2, 14))):
        kind = draw(st.integers(0, 5))
        guard = draw(st.sampled_from([None] + guards))
        operand = draw(st.sampled_from(values + variables))
        if kind == 0:
            builder.store(operand, draw(st.integers(0, 7)), guard=guard)
        elif kind == 1:
            values.append(builder.load(draw(st.integers(0, 7)), "int"))
        elif kind == 2:
            builder.emit(Opcode.MOV, [operand],
                         dest=draw(st.sampled_from(variables)), guard=guard)
        elif kind == 3:
            compare = builder.value(Opcode.CMP_GT, [operand, 2])
            guards.append(Guard(compare, negate=draw(st.booleans())))
        else:
            opcode = draw(st.sampled_from(_VALUE_OPCODES))
            right = draw(st.sampled_from(values + variables + [Constant(2)]))
            values.append(builder.value(opcode, [operand, right],
                                        type_="int"))
    if guards:
        builder.goto("t", guard=draw(st.sampled_from(guards)))
    builder.halt()
    return builder.tree


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(tree=st.one_of(random_trees(), guarded_trees()))
def test_each_arc_is_generated_once(tree):
    idents = [(arc.src, arc.dst, arc.kind, arc.via_guard)
              for arc in build_dependence_graph(tree).arcs]
    assert len(idents) == len(set(idents))


@_SETTINGS
@given(tree=random_trees(), width=st.integers(1, 6),
       mem=st.sampled_from([2, 6]))
def test_schedule_respects_capacity_and_constraints(tree, width, mem):
    graph = build_dependence_graph(tree)
    schedule = list_schedule(graph, machine(width, mem))
    for _cycle, nodes in schedule.slots.items():
        assert len(nodes) <= width
    for arc in graph.arcs:
        assert schedule.issue[arc.dst] >= issue_constraint(
            arc, schedule.issue, schedule.completion), arc


@_SETTINGS
@given(tree=random_trees(), width=st.integers(1, 6),
       mem=st.sampled_from([2, 6]))
def test_schedule_never_beats_dataflow_bound(tree, width, mem):
    graph = build_dependence_graph(tree)
    mach = machine(None, mem)
    ideal = infinite_machine_timing(graph, mach)
    schedule = list_schedule(graph, machine(width, mem))
    for ideal_t, real_t in zip(ideal.path_times, schedule.path_times):
        assert real_t >= ideal_t


@_SETTINGS
@given(tree=random_trees(), mem=st.sampled_from([2, 6]))
def test_wide_machine_matches_dataflow_bound(tree, mem):
    graph = build_dependence_graph(tree)
    ideal = infinite_machine_timing(graph, machine(None, mem))
    schedule = list_schedule(graph, machine(32, mem))
    assert schedule.path_times == ideal.path_times


@_SETTINGS
@given(tree=random_trees(), mem=st.sampled_from([2, 6]))
def test_more_width_never_slower(tree, mem):
    graph = build_dependence_graph(tree)
    previous = None
    for width in (1, 2, 4, 8):
        length = list_schedule(graph, machine(width, mem)).path_times[0]
        if previous is not None:
            assert length <= previous
        previous = length


@_SETTINGS
@given(tree=st.one_of(random_trees(), guarded_trees()),
       width=st.integers(1, 8), mem=st.sampled_from([2, 6]))
def test_schedule_matches_reference(tree, width, mem):
    graph = build_dependence_graph(tree)
    mach = machine(width, mem)
    diff = schedule_diff(graph, mach, list_schedule(graph, mach))
    assert not diff, diff
