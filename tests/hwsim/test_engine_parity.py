"""The ready-list hwsim engine returns the reference engine's results.

:mod:`tests.hwsim.reference_engine` keeps the original polling engine.
Every :class:`~repro.hwsim.EngineResult` here must equal it field by
field.  Checked on every memo miss of the 14 kernels' NAIVE and SPEC
views at memory 2 and 6, at widths 1, 2, 4 and unbounded, on a machine
with a finite window and store-set prediction and on one with an
unbounded window and oracle prediction; and on the property suite's
random trees with random events and random bypass maps.
``benchmarks/hw_engine_parity.py`` extends the check to the whole
corpus.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator
from repro.hwsim import (MemEvent, TreeContext, core, simulate_program,
                         simulate_tree)
from repro.ir import Opcode, build_dependence_graph
from repro.machine import hw_machine

from ..properties.test_sched_props import guarded_trees, random_trees
from .reference_engine import (ParityEngine, ReferenceContext, result_diff,
                               simulate_tree as reference_simulate_tree)

WIDTHS = (1, 2, 4, None)


def _machines(memory_latency):
    for width in WIDTHS:
        yield hw_machine(width, memory_latency)
        yield hw_machine(width, memory_latency, "oracle", window=None)


@pytest.mark.parametrize("memory_latency", (2, 6))
@pytest.mark.parametrize("name", benchmark_names())
def test_kernel_memo_misses_match_reference(pipeline, monkeypatch, name,
                                            memory_latency):
    source = get_benchmark(name).source
    misses = 0
    for kind in (Disambiguator.NAIVE, Disambiguator.SPEC):
        view = pipeline.view(name, source, kind, memory_latency)
        for mach in _machines(memory_latency):
            parity = ParityEngine(view.graphs, simulate_tree)
            monkeypatch.setattr(core, "simulate_tree", parity)
            simulate_program(view.program.copy(), mach, view.graphs)
            assert not parity.mismatches, parity.mismatches[:3]
            misses += parity.calls
    assert misses


@st.composite
def executions(draw):
    """A random tree, the guard-true subset of its memory operations as
    events with random address classes, a random bypass decision per
    (earlier store, load) event pair, and a random machine."""
    tree = draw(st.one_of(random_trees(), guarded_trees()))
    events = []
    for node, op in enumerate(tree.ops):
        if op.opcode in (Opcode.LOAD, Opcode.STORE) and draw(st.booleans()):
            events.append(MemEvent(node, op.opcode is Opcode.STORE,
                                   draw(st.integers(0, 2))))
    bypass = {(s, i): draw(st.booleans())
              for i, load in enumerate(events) if not load.is_store
              for s in range(i) if events[s].is_store}
    mach = hw_machine(draw(st.sampled_from(WIDTHS)),
                      draw(st.sampled_from((2, 6))),
                      window=draw(st.sampled_from((None, 1, 2, 4, 8))),
                      replay_penalty=draw(st.integers(0, 4)))
    return tree, tuple(events), bypass, mach


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(execution=executions())
def test_random_executions_match_reference(execution):
    tree, events, bypass, mach = execution
    graph = build_dependence_graph(tree)
    ours = simulate_tree(TreeContext(graph, mach), mach, events, bypass)
    reference = reference_simulate_tree(ReferenceContext(graph, mach), mach,
                                        events, bypass)
    assert not result_diff(ours, reference)
