"""The shared-skeleton dependence builder against the kept reference.

:func:`repro.ir.build_dependence_graph` builds each tree state's
oracle-independent skeleton once and assembles every graph from it;
``tests/ir/reference_depgraph.py`` keeps the one-pass builder it
replaced.  On random trees, under the naive oracle, the static oracle
and a seeded random YES/NO/MAYBE oracle, with and without
SpD-resolved pairs, the two must give the same arcs field by field and
in the same order, whichever oracle builds first.  A tree, its copy
and an SpD-changed copy must each still match after the others built.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.disambig import SpDNotApplicable, apply_spd, make_static_oracle
from repro.ir import AliasAnswer, build_dependence_graph, naive_oracle

from ..ir.reference_depgraph import build_dependence_graph as reference
from ..ir.reference_depgraph import graph_diff
from .test_sched_props import guarded_trees, random_trees
from .test_spd_props import mem_trees

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def random_oracle(seed):
    """A YES/NO/MAYBE oracle whose answer is a function of the pair's
    op ids and *seed*, so every builder hears the same answers."""
    answers = (AliasAnswer.YES, AliasAnswer.NO, AliasAnswer.MAYBE)

    def oracle(op_a, op_b):
        return random.Random(f"{seed}:{op_a.op_id}:{op_b.op_id}").choice(
            answers)
    return oracle


def oracles(tree, seed):
    return [naive_oracle, make_static_oracle(tree), random_oracle(seed)]


def memory_pairs(tree):
    """Every (earlier, later) op-id pair of memory operations."""
    memory = [op.op_id for op in tree.ops if op.is_memory]
    return [(a, b) for index, a in enumerate(memory)
            for b in memory[index + 1:]]


def assert_matches_reference(tree, oracle):
    graph = build_dependence_graph(tree, oracle)
    assert graph.tree is tree
    assert graph_diff(graph, reference(tree, oracle)) == ""


@st.composite
def trees_with_resolved(draw):
    """A random or guarded tree, with a random subset of its memory
    pairs marked resolved by SpD."""
    tree = draw(st.one_of(random_trees(), guarded_trees()))
    pairs = memory_pairs(tree)
    if pairs:
        tree.spd_resolved = draw(st.sets(st.sampled_from(pairs)))
    return tree


@_SETTINGS
@given(tree=st.one_of(random_trees(), guarded_trees()),
       seed=st.integers(0, 2**16), order=st.permutations(range(3)))
def test_graphs_equal_the_reference_under_every_oracle(tree, seed, order):
    candidates = oracles(tree, seed)
    for index in order:
        assert_matches_reference(tree, candidates[index])


@_SETTINGS
@given(tree=trees_with_resolved(), seed=st.integers(0, 2**16))
def test_resolved_pairs_are_dropped_as_the_reference_drops_them(tree, seed):
    for oracle in oracles(tree, seed):
        assert_matches_reference(tree, oracle)
    # the skeleton holds every pair: resolving none afterwards brings
    # their arcs back
    tree.spd_resolved = set()
    for oracle in oracles(tree, seed):
        assert_matches_reference(tree, oracle)


@_SETTINGS
@given(tree=st.one_of(random_trees(), guarded_trees()),
       seed=st.integers(0, 2**16))
def test_a_copy_shares_the_skeleton(tree, seed):
    with obs.tracing() as tracer:
        build_dependence_graph(tree)
        clone = tree.copy()
        for oracle in oracles(clone, seed):
            assert_matches_reference(clone, oracle)
    counters = tracer.metrics.counters
    assert counters["depgraph.skeletons"] == 1
    assert counters["depgraph.builds"] == 4


@_SETTINGS
@given(program=mem_trees(), arc_pick=st.integers(0, 100),
       seed=st.integers(0, 2**16))
def test_graphs_stay_fresh_after_spd_changes_a_copy(program, arc_pick,
                                                    seed):
    """Build on a tree, copy it, apply SpD to the copy, then build on
    both: the original keeps its state's skeleton and the copy gets one
    for its own."""
    tree = program.functions["main"].trees["t0"]
    graph = build_dependence_graph(tree)
    changed = tree.copy()
    ambiguous = graph.ambiguous_arcs()
    if ambiguous:
        try:
            apply_spd(changed, ambiguous[arc_pick % len(ambiguous)])
        except SpDNotApplicable:
            pass
    for each in (changed, tree, changed):
        for oracle in oracles(each, seed):
            assert_matches_reference(each, oracle)


@_SETTINGS
@given(tree=random_trees())
def test_an_appended_operation_makes_a_new_skeleton(tree):
    """The frontend appends to ``ops`` in place: a graph built after the
    append must see the new operation."""
    build_dependence_graph(tree)
    tree.append(tree.ops[0].with_id(tree.fresh_op_id()))
    assert_matches_reference(tree, naive_oracle)
