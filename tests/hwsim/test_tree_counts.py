"""A profile's tree counts are hwsim's per-tree executions.

``Pipeline.hw_timing`` hands the profile's ``tree_counts`` to the
simulator, which sums them per function into the function's steps and
compiles on entry each function whose steps will spend its tier
budget.  That is exact only if the profile of the compiled program
counts, tree by tree, the executions the simulator makes of the view:
the disambiguators rewrite operations inside trees and keep every tree
and exit.  Checked on the 14 kernels' NAIVE and SPEC views and on the
corpus smoke slice's, under a tracer, where every tree execution
reaches the timing sink; each function must then be compiled exactly
when its counted steps reach its budget, and a function left
interpreted must have spent exactly its counted steps.
"""

from collections import Counter

import pytest

from repro import obs
from repro.bench.suite import benchmark_names, get_benchmark
from repro.corpus import DEFAULT_MANIFEST_PATH, entry_source, load_manifest
from repro.disambig import Disambiguator
from repro.engines.jit import clear_code_cache
from repro.hwsim import HwSimulator
from repro.machine import hw_machine
from repro.pipeline import ArtifactStore, Pipeline

_MANIFEST = load_manifest(DEFAULT_MANIFEST_PATH)
_SMOKE = [entry for entry in _MANIFEST["entries"] if entry["smoke"]]


class _Counting(HwSimulator):
    """The simulator, counting the executions its sink times."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executions = Counter()

    def _time(self, key, exit_index, trace):
        self.executions[key] += 1
        super()._time(key, exit_index, trace)


def assert_counts_match(pipe, label, source, memory_latency):
    counts = pipe.profile(label, source).profile.tree_counts
    for kind in (Disambiguator.NAIVE, Disambiguator.SPEC):
        view = pipe.view(label, source, kind, memory_latency)
        # a function compiled by an earlier run would enter compiled
        clear_code_cache()
        with obs.tracing():
            sim = _Counting(view.program.copy(),
                            hw_machine(4, memory_latency), view.graphs,
                            tree_counts=counts)
            sim.run()
        assert dict(sim.executions) == counts, (label, kind)
        for name, tier in sim._tiers.items():
            trees = view.program.functions[name].trees
            steps = sum(counts.get((name, tname), 0) * (len(tree.ops) + 1)
                        for tname, tree in trees.items())
            assert (tier.fn is not None) == (steps >= tier.budget), (
                label, kind, name)
            if tier.fn is None:
                assert tier.steps == steps, (label, kind, name)


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
