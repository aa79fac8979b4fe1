"""A profile's tree counts are hwsim's per-tree executions.

``Pipeline.hw_timing`` hands the profile's ``tree_counts`` to the
simulator, which compiles on entry each tree whose count will spend its
tier budget.  That is exact only if the profile of the compiled program
counts, tree by tree, the executions the simulator makes of the view:
the disambiguators rewrite operations inside trees and keep every tree
and exit.  Checked on the 14 kernels' NAIVE and SPEC views and on the
corpus smoke slice's.
"""

from collections import Counter

import pytest

from repro.bench.suite import benchmark_names, get_benchmark
from repro.corpus import DEFAULT_MANIFEST_PATH, entry_source, load_manifest
from repro.disambig import Disambiguator
from repro.hwsim import HwSimulator
from repro.machine import hw_machine
from repro.pipeline import ArtifactStore, Pipeline

_MANIFEST = load_manifest(DEFAULT_MANIFEST_PATH)
_SMOKE = [entry for entry in _MANIFEST["entries"] if entry["smoke"]]


class _Counting(HwSimulator):
    """The simulator, counting its executions of each tree."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executions = Counter()

    def _execute_tree(self, frame):
        self.executions[(frame.function, frame.tree)] += 1
        return super()._execute_tree(frame)


def assert_counts_match(pipe, label, source, memory_latency):
    counts = pipe.profile(label, source).profile.tree_counts
    for kind in (Disambiguator.NAIVE, Disambiguator.SPEC):
        view = pipe.view(label, source, kind, memory_latency)
        sim = _Counting(view.program.copy(), hw_machine(4, memory_latency),
                        view.graphs, tree_counts=counts)
        sim.run()
        assert dict(sim.executions) == counts, (label, kind)


@pytest.fixture(scope="module")
def smoke_pipeline():
    return Pipeline(store=ArtifactStore(root=None))


@pytest.mark.parametrize("name", benchmark_names())
def test_kernel_counts_are_executions(pipeline, name):
    assert_counts_match(pipeline, name, get_benchmark(name).source, 2)


@pytest.mark.parametrize("entry", _SMOKE, ids=lambda entry: entry["id"])
def test_smoke_counts_are_executions(smoke_pipeline, entry):
    assert_counts_match(smoke_pipeline, entry["id"],
                        entry_source(_MANIFEST, entry), 6)
