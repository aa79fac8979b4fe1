"""Views replayed from the disk store time exactly like fresh ones.

A pickled dependence graph carries its arcs but not its per-node
adjacency, which is rebuilt on the first ``preds``/``succs`` call; these
tests pin that the rebuilt adjacency and the cycles it yields match the
in-process view of every kernel.
"""

import pickle

import pytest

from repro.bench.suite import SUITE
from repro.disambig.pipeline import Disambiguator
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore
from repro.sim.evaluate import evaluate_program

LATENCIES = (2, 6)
CASES = [(name, latency) for name in SUITE for latency in LATENCIES]


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """A cold pipeline writing to a disk store, and a fresh one on the
    same store that can only replay it."""
    root = tmp_path_factory.mktemp("views")
    return Pipeline(store=ArtifactStore(root)), Pipeline(
        store=ArtifactStore(root))


def _adjacency(graph):
    return ([graph.preds(node) for node in range(graph.num_nodes)],
            [graph.succs(node) for node in range(graph.num_nodes)])


@pytest.mark.slow
@pytest.mark.parametrize("name,latency", CASES,
                         ids=[f"{n}-mem{m}" for n, m in CASES])
def test_replayed_view_matches_the_in_process_view(pipelines, name,
                                                   latency):
    cold, warm = pipelines
    source = SUITE[name].source
    fresh = cold.view(name, source, Disambiguator.SPEC, latency)
    replayed = warm.view(name, source, Disambiguator.SPEC, latency)
    assert replayed is not fresh
    assert replayed.graphs.keys() == fresh.graphs.keys()
    for key, graph in replayed.graphs.items():
        assert graph._preds is None and graph._succs is None
        assert _adjacency(graph) == _adjacency(fresh.graphs[key])
    mach = machine(5, latency)
    profile = cold.profile(name, source).profile
    assert (evaluate_program(replayed.program, replayed.graphs, mach,
                             profile).cycles
            == evaluate_program(fresh.program, fresh.graphs, mach,
                                profile).cycles)


def test_pickled_graph_state_holds_no_adjacency(pipelines):
    cold, _ = pipelines
    view = cold.view("perm", SUITE["perm"].source, Disambiguator.SPEC, 2)
    for graph in view.graphs.values():
        graph.preds(0)  # built in process
        state = graph.__getstate__()
        assert state["_preds"] is None and state["_succs"] is None
        assert state["arcs"] == graph.arcs
        loaded = pickle.loads(pickle.dumps(graph))
        assert loaded._preds is None and loaded._succs is None
        assert _adjacency(loaded) == _adjacency(graph)
