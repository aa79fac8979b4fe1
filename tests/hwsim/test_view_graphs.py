"""hwsim times each tree from the dependence graph its view carries.

The contexts built from every tree of every kernel view (NAIVE,
STATIC, SPEC and PERFECT at memory latency 2 and 6) must equal those
of an all-NO build (:mod:`.graph_parity`), and a graph that does not
fit its tree is refused.
"""

import pytest

from repro.bench import SUITE
from repro.disambig import Disambiguator
from repro.hwsim import HwSimulator
from repro.machine import hw_machine

from ..conftest import build_raw_tree_program, naive_graphs
from .graph_parity import context_diff


@pytest.mark.parametrize("memory_latency", (2, 6))
@pytest.mark.parametrize("kind", list(Disambiguator),
                         ids=[kind.value for kind in Disambiguator])
def test_view_graph_contexts_equal_all_no_builds(pipeline, kind,
                                                 memory_latency):
    mach = hw_machine(4, memory_latency)
    trees = 0
    for name, bench in sorted(SUITE.items()):
        view = pipeline.view(name, bench.source, kind, memory_latency)
        for key, graph in sorted(view.graphs.items()):
            assert context_diff(graph, mach) == "", (name, key)
            trees += 1
    assert trees == 247


def test_graph_of_another_tree_is_refused():
    program = build_raw_tree_program(3, 3)
    other = build_raw_tree_program(3, 3)
    other.functions["main"].trees["t0"].ops.pop()
    graphs = naive_graphs(other)
    with pytest.raises(ValueError, match="main.t0"):
        HwSimulator(program, hw_machine(4), graphs).run()


def test_missing_graph_is_refused():
    program = build_raw_tree_program(3, 3)
    with pytest.raises(ValueError, match="main.t0"):
        HwSimulator(program, hw_machine(4), {}).run()
