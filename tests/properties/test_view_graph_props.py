"""Every SPEC view's dependence graphs equal fresh builds.

The ``spd`` pass carries each tree state's graph through the Gain()
loop and hands the final one to ``disambiguate``, which then builds
only the graphs it was not handed.  Whatever the path, a view's graph
must be indistinguishable from the kept reference builder
(``tests/ir/reference_depgraph.py``, which shares no skeleton) run
afresh on the view's tree under the static oracle: the same op count,
the same arcs field by field and in the same order, and built on the
view program's own tree object.  Checked over the paper's kernels at both
memory latencies, the corpus smoke slice, and a pipeline whose cleanup
passes drop the carried graphs.  A graph's pickle round trip (packed
arcs, decoded on first read) is checked on random programs.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench import SUITE, get_benchmark
from repro.corpus import DEFAULT_MANIFEST_PATH, entry_source, load_manifest
from repro.disambig import Disambiguator, disambiguate, make_static_oracle
from repro.frontend import compile_source
from repro.machine import machine
from repro.passes import DEFAULT_CLEANUP, PassPipelineConfig
from repro.pipeline import ArtifactStore, Pipeline
from repro.sim import run_program

from ..conftest import graph_rows
from ..ir.reference_depgraph import build_dependence_graph as reference
from .gen import tinyc_programs

_MANIFEST = load_manifest(DEFAULT_MANIFEST_PATH)
_SMOKE = [entry for entry in _MANIFEST["entries"] if entry["smoke"]]


def assert_graphs_are_fresh(view):
    trees = list(view.program.all_trees())
    assert sorted(view.graphs) == sorted((f, t.name) for f, t in trees)
    for function_name, tree in trees:
        graph = view.graphs[(function_name, tree.name)]
        assert graph.tree is tree, (function_name, tree.name)
        fresh = reference(tree, make_static_oracle(tree))
        assert graph_rows(graph) == graph_rows(fresh), (function_name,
                                                        tree.name)


@pytest.fixture(scope="module")
def cleanup_pipeline():
    """A ``--passes default`` pipeline on a memory-only store."""
    return Pipeline(store=ArtifactStore(root=None),
                    passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))


@pytest.fixture(scope="module")
def smoke_pipeline():
    return Pipeline(store=ArtifactStore(root=None))


@pytest.mark.parametrize("memory_latency", (2, 6))
@pytest.mark.parametrize("name", SUITE)
def test_kernel_spec_graphs_are_fresh(pipeline, name, memory_latency):
    assert_graphs_are_fresh(pipeline.view(
        name, get_benchmark(name).source, Disambiguator.SPEC,
        memory_latency))


@pytest.mark.parametrize("entry", _SMOKE, ids=lambda entry: entry["id"])
def test_smoke_spec_graphs_are_fresh(smoke_pipeline, entry):
    assert_graphs_are_fresh(smoke_pipeline.view(
        entry["id"], entry_source(_MANIFEST, entry), Disambiguator.SPEC, 6))


@pytest.mark.parametrize("name", SUITE)
def test_cleaned_spec_graphs_are_fresh(cleanup_pipeline, name):
    assert_graphs_are_fresh(cleanup_pipeline.view(
        name, get_benchmark(name).source, Disambiguator.SPEC, 6))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=tinyc_programs())
def test_spec_graphs_round_trip_through_pickle(source):
    """A loaded graph stays packed until read, then equals the original
    arc for arc; re-pickling it undecoded gives its decoded twin's
    bytes."""
    program = compile_source(source)
    profile = run_program(program, max_steps=2_000_000).profile
    view = disambiguate(program, Disambiguator.SPEC, profile=profile,
                        machine=machine(None, 6))
    for graph in view.graphs.values():
        data = pickle.dumps(graph)
        loaded, twin = pickle.loads(data), pickle.loads(data)
        assert graph_rows(twin) == graph_rows(graph)
        assert loaded._arcs is None
        assert pickle.dumps(loaded) == pickle.dumps(twin)
        assert loaded._arcs is None
