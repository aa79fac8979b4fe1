"""A tracer changes what hwsim reports, never what it times.

Untraced, compiled code times a tree without memory operations from
its exit counts once the run ends; under a tracer every tree reaches
the timing sink on every execution, so ``hwsim.tree_cycles`` observes
each one in order.  Both runs of each kernel's NAIVE view must give the
same cycles and counters, and the histogram must hold one sample per
tree execution, adding up to the cycles.
"""

import pytest

from repro import obs
from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator
from repro.engines.jit import clear_code_cache
from repro.hwsim import HwSimulator
from repro.machine import hw_machine


@pytest.mark.parametrize("name", benchmark_names())
def test_traced_run_times_like_untraced(pipeline, name):
    source = get_benchmark(name).source
    view = pipeline.view(name, source, Disambiguator.NAIVE, 2)
    counts = pipeline.profile(name, source).profile.tree_counts
    clear_code_cache()
    plain, traced = (HwSimulator(view.program.copy(), hw_machine(4, 2),
                                 view.graphs, tree_counts=counts)
                     for _ in range(2))
    plain.run()
    with obs.tracing() as tracer:
        traced.run()
    assert traced.cycles == plain.cycles
    assert traced.stats == plain.stats
    assert traced.output == plain.output
    samples = tracer.metrics.histograms["hwsim.tree_cycles"]
    assert samples.count == plain.stats.tree_executions
    assert samples.total == plain.cycles
