"""Views replayed from the disk store time exactly like fresh ones.

A pickled dependence graph carries its arcs as one packed int tuple,
decoded on the first ``arcs`` read, and a pickled decision tree its
fields as one flat tuple, decoded on the first read of any of them;
these tests pin that the decoded arcs, in order, the decoded trees and
the cycles they yield match the in-process view of every kernel.
"""

import pickle

import pytest

from repro import obs
from repro.bench.suite import SUITE
from repro.disambig.pipeline import Disambiguator
from repro.ir.depgraph import _unpack_arcs
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore
from repro.sim.evaluate import evaluate_program

LATENCIES = (2, 6)
CASES = [(name, latency) for name in SUITE for latency in LATENCIES]
TREE_FIELDS = ("ops", "exits", "spd_resolved", "next_op_id", "next_temp_id")


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """A cold pipeline writing to a disk store, and a fresh one on the
    same store that can only replay it."""
    root = tmp_path_factory.mktemp("views")
    return Pipeline(store=ArtifactStore(root)), Pipeline(
        store=ArtifactStore(root))


def _replay(cold, name, latency):
    """(the in-process SPEC view, the same view read back from disk by a
    pipeline with an empty memory tier)."""
    source = SUITE[name].source
    fresh = cold.view(name, source, Disambiguator.SPEC, latency)
    replayed = Pipeline(store=ArtifactStore(cold.store.root)).view(
        name, source, Disambiguator.SPEC, latency)
    assert replayed is not fresh
    return fresh, replayed


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
        assert graph.arcs == fresh.graphs[key].arcs
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
        state = graph.__getstate__()
        assert state.keys() == {"tree", "num_ops", "num_nodes", "packed"}
        assert _unpack_arcs(state["packed"]) == graph.arcs
        assert pickle.loads(pickle.dumps(graph)).arcs == graph.arcs


@pytest.mark.parametrize("name,latency", CASES,
                         ids=[f"{n}-mem{m}" for n, m in CASES])
def test_replayed_graphs_stay_packed_until_read(pipelines, name, latency):
    fresh, replayed = _replay(pipelines[0], name, latency)
    assert replayed.graphs.keys() == fresh.graphs.keys()
    for graph in replayed.graphs.values():
        assert graph._arcs is None and graph._packed is not None
    with obs.tracing() as tracer:
        for key, graph in replayed.graphs.items():
            assert graph.arcs == fresh.graphs[key].arcs
            assert graph._packed is None
            assert graph.arcs is graph.arcs  # decoded once
    assert (tracer.metrics.counters["depgraph.arcs_decoded"]
            == len(replayed.graphs))


def test_undecoded_graph_pickles_like_its_decoded_twin(pipelines):
    _, replayed = _replay(pipelines[0], "perm", 2)
    for graph in replayed.graphs.values():
        data = pickle.dumps(graph)
        packed, twin = pickle.loads(data), pickle.loads(data)
        assert twin.arcs == graph.arcs
        assert packed._arcs is None
        assert pickle.dumps(packed) == pickle.dumps(twin)
        assert packed._arcs is None  # re-pickling decoded nothing


@pytest.mark.parametrize("name,latency", CASES,
                         ids=[f"{n}-mem{m}" for n, m in CASES])
def test_pickled_views_load_their_trees_packed(pipelines, name, latency):
    """Every tree of every view round-trips, stays packed until read
    (``size()`` answers from the header), is decoded once per read tree,
    and is the very object its graph holds."""
    cold, _ = pipelines
    for kind in Disambiguator:
        view = cold.view(name, SUITE[name].source, kind, latency)
        loaded = pickle.loads(pickle.dumps(view))
        trees = [((function, tree.name), tree,
                  loaded.program.functions[function].trees[tree.name])
                 for function, tree in view.program.all_trees()]
        for key, tree, packed in trees:
            assert loaded.graphs[key].tree is packed
            assert "_packed" in vars(packed)
            assert packed.size() == tree.size()
        assert loaded.code_size() == view.code_size()
        read = trees[::2]
        with obs.tracing() as tracer:
            for _, tree, packed in read:
                for field in TREE_FIELDS:
                    assert getattr(packed, field) == getattr(tree, field)
                assert packed.size() == tree.size()
        assert (tracer.metrics.counters["ir.trees_decoded"]
                == len(read)), kind
        for _, _, packed in trees[1::2]:
            assert "_packed" in vars(packed)
