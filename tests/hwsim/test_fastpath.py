"""The one-pass tree execution, its commit fallback and the timing memo.

hwsim runs each tree once (the compiled ``hw_resolve`` pass) and
re-executes it through the LSQ-ordered ``hw_commit`` pass only when the
engine's timing would forward some load a value other than the one
sequential execution reads.  These tests hold the result to the
reference interpreter, pin the counters, and check that a timing bug
still reaches the commit pass and shows up as a wrong output.
"""

import dataclasses

import pytest

from repro import obs
from repro.engines import get_engine
from repro.engines.codegen import generate_tree_source
from repro.engines.jit import clear_code_cache
from repro.hwsim import HwSimulator, MemEvent, core
from repro.machine.hw import HwMachine, hw_machine

PREDICTORS = ("always", "never", "store-set", "oracle")

#: ``HwStats.to_dict()`` plus cycles on ``_mach(predictor)``, as the
#: three-pass simulator (resolve, time, commit on every execution)
#: counted them: the one-pass path must reproduce every counter.
PINNED = {
    "example22": {
        "always": (1428, 102, 2126, 300, 3, 3, 96, 6),
        "never": (1823, 102, 2123, 0, 0, 0, 96, 6),
        "store-set": (1814, 102, 2126, 11, 3, 3, 95, 7),
        "oracle": (1425, 102, 2123, 297, 0, 0, 96, 6),
    },
    "pointer": {
        "always": (200, 27, 196, 2, 0, 0, 19, 8),
        "never": (209, 27, 196, 0, 0, 0, 19, 8),
        "store-set": (200, 27, 196, 2, 0, 0, 19, 8),
        "oracle": (200, 27, 196, 2, 0, 0, 19, 8),
    },
}


def _mach(predictor="store-set", fus=2, **kwargs):
    return dataclasses.replace(
        hw_machine(fus, predictor=predictor, window=8), **kwargs)


def _simulate(program, mach):
    sim = HwSimulator(program.copy(), mach, trace_stores=True)
    result = sim.run()
    return sim, result


def _interpret(program):
    interp = get_engine("interp").executor(program.copy(), trace_stores=True)
    result = interp.run()
    return interp, result


class TestFastPathEquivalence:
    """The compiled one-pass path against the slow path, which is now
    the reference interpreter itself (``engine="interp"``): function
    must match it exactly, and the counters must match the pins."""

    def _check(self, program, name, predictor):
        ref, ref_result = _interpret(program)
        sim, result = _simulate(program, _mach(predictor))
        assert sim.output == ref.output
        assert result.return_value == ref_result.return_value
        assert result.steps == ref_result.steps
        assert sim.memory == ref.memory
        assert sim.store_trace == ref.store_trace
        (cycles, executions, slots, spec, violations, squashes, hits,
         misses) = PINNED[name][predictor]
        assert sim.cycles == cycles
        assert sim.stats.to_dict() == {
            "tree_executions": executions, "slots_used": slots,
            "spec_issues": spec, "violations": violations,
            "squashes": squashes, "replays": squashes,
            "memo_hits": hits, "memo_misses": misses,
            "memo_evictions": 0,
        }

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_example22_identical_to_slow_path(self, example22_program,
                                              predictor):
        self._check(example22_program, "example22", predictor)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_pointer_kernel_identical_to_slow_path(self, pointer_program,
                                                   predictor):
        self._check(pointer_program, "pointer", predictor)

    def test_paths_share_memo_shape(self, example22_program):
        """The compiled pass emits plain tuples that hash and compare
        like :class:`MemEvent` records, so memo keys built from either
        find the same entries."""
        sim, _ = _simulate(example22_program, _mach("store-set"))
        checked = 0
        for state in sim._trees.values():
            for events, decisions in state.memo:
                as_records = tuple(MemEvent(*event) for event in events)
                assert (as_records, decisions) in state.memo
                checked += len(events)
        assert checked


def _stale_forwarding(simulate_tree):
    """Wrap the engine so every load that has an earlier same-address
    store in its tree appears to issue one cycle before that store
    completes: the mis-ordering a broken LSQ model would produce."""
    def faulty(ctx, machine, events, bypass):
        result = simulate_tree(ctx, machine, events, bypass)
        final_issue = list(result.final_issue)
        latest_store = {}
        for index, (_node, is_store, addr_class) in enumerate(events):
            if is_store:
                latest_store[addr_class] = index
            elif addr_class in latest_store:
                store = latest_store[addr_class]
                final_issue[index] = result.mem_completion[store] - 1
        return dataclasses.replace(result, final_issue=tuple(final_issue))
    return faulty


class TestCommitFallback:
    def _commit_calls(self, monkeypatch):
        calls = []
        commit = HwSimulator._commit

        def counting(sim, *args):
            calls.append(args)
            return commit(sim, *args)
        monkeypatch.setattr(HwSimulator, "_commit", counting)
        return calls

    def test_misordered_timing_commits_stale_value(self, monkeypatch,
                                                    example22_program):
        calls = self._commit_calls(monkeypatch)
        monkeypatch.setattr(core, "simulate_tree",
                            _stale_forwarding(core.simulate_tree))
        ref, _ = _interpret(example22_program)
        sim, _ = _simulate(example22_program, _mach("never"))
        assert calls, "the LSQ-ordered commit pass never ran"
        # Example 2-2 stores a[8] and loads it back in iteration 4: the
        # mis-ordered load reads the stale 0.0, so y[4] prints 1.0
        assert sim.output != ref.output
        assert sim.output[1] == 1.0 and ref.output[1] == 9.0

    def test_in_order_timing_never_compiles_commit(self, monkeypatch,
                                                   example22_program):
        calls = self._commit_calls(monkeypatch)
        clear_code_cache()
        with obs.tracing() as tracer:
            sim, _ = _simulate(example22_program, _mach("store-set"))
        assert not calls
        resolve_sources = {
            generate_tree_source(state.tree, mode="hw_resolve")
            for state in sim._trees.values()}
        assert (tracer.metrics.counters["engines.jit.compiles"]
                == len(resolve_sources))

    def test_fault_compiles_commit_lazily(self, monkeypatch,
                                          example22_program):
        monkeypatch.setattr(core, "simulate_tree",
                            _stale_forwarding(core.simulate_tree))
        clear_code_cache()
        with obs.tracing() as tracer:
            sim, _ = _simulate(example22_program, _mach("never"))
        committed = [state for state in sim._trees.values()
                     if state.commit is not None]
        assert committed
        sources = {generate_tree_source(state.tree, mode="hw_resolve")
                   for state in sim._trees.values()}
        sources |= {generate_tree_source(state.tree, mode="hw_commit")
                    for state in committed}
        assert tracer.metrics.counters["engines.jit.compiles"] == len(sources)


class TestMemoBound:
    def test_capacity_one_evicts_without_changing_cycles(
            self, example22_program):
        unbounded = _mach("never", memo_capacity=None)
        tiny = _mach("never", memo_capacity=1)
        ref_sim, _ = _simulate(example22_program, unbounded)
        tiny_sim, _ = _simulate(example22_program, tiny)
        assert ref_sim.stats.memo_evictions == 0
        assert tiny_sim.stats.memo_evictions > 0
        # eviction costs recomputation, never cycles
        assert tiny_sim.cycles == ref_sim.cycles
        assert tiny_sim.output == ref_sim.output
        assert tiny_sim.stats.squashes == ref_sim.stats.squashes

    def test_capacity_one_keeps_learning_exact(self, example22_program):
        """The decision cache shares the memo's bound and is dropped
        on every training step, so a learning predictor's counters do
        not depend on either."""
        ref_sim, _ = _simulate(example22_program,
                               _mach("store-set", memo_capacity=None))
        tiny_sim, _ = _simulate(example22_program,
                                _mach("store-set", memo_capacity=1))
        assert tiny_sim.cycles == ref_sim.cycles
        for counter in ("slots_used", "spec_issues", "violations",
                        "squashes"):
            assert (getattr(tiny_sim.stats, counter)
                    == getattr(ref_sim.stats, counter))
        assert all(len(state.decisions) <= 1
                   for state in tiny_sim._trees.values())

    def test_default_capacity_needs_no_evictions(self, example22_program):
        sim, _ = _simulate(example22_program, _mach("never"))
        assert sim.stats.memo_evictions == 0
        assert sim.stats.memo_hits > 0

    def test_capacity_excluded_from_identity(self):
        a = _mach("store-set", memo_capacity=None)
        b = _mach("store-set", memo_capacity=1)
        assert a.name == b.name
        assert a.to_dict() == b.to_dict()

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="memo_capacity"):
            HwMachine(memo_capacity=0)
        HwMachine(memo_capacity=None)  # unbounded is fine
        HwMachine(memo_capacity=1)


class TestMemoObservability:
    def test_memo_counters_emitted(self, example22_program):
        with obs.tracing() as tracer:
            sim, _ = _simulate(example22_program,
                               _mach("never", memo_capacity=1))
        counters = tracer.metrics.counters
        assert counters["hwsim.memo.hits"] == sim.stats.memo_hits > 0
        assert counters["hwsim.memo.misses"] == sim.stats.memo_misses > 0
        assert (counters["hwsim.memo.evictions"]
                == sim.stats.memo_evictions > 0)
        # one name per fact
        assert "hwsim.memo_hits" not in counters
        assert "hwsim.memo_misses" not in counters
