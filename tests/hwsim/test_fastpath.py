"""The one-pass tree execution, its in-order check and the timing memo.

hwsim runs each tree once (interpreted while its function is cold and
as timed compiled code once the function is hot) and raises when the
engine's timing would forward some load a value other than the one
sequential execution reads.  These tests hold the result to the
reference interpreter, pin the counters at the default tier threshold
and at forced ones, check that a timing bug raises and that the fuzz
oracle reports it, and pin when a function compiles.
"""

import dataclasses
from collections import OrderedDict

import pytest

from repro import obs
from repro.engines import get_engine
from repro.engines import jit
from repro.engines.jit import clear_code_cache
from repro.frontend import compile_source
from repro.fuzz.oracle import OracleConfig, check_source
from repro.hwsim import HwSimulator, MemEvent, core
from repro.ir import Opcode
from repro.machine.hw import hw_machine

from ..conftest import EXAMPLE_2_2, naive_graphs
from .tiers import ForcedThreshold

PREDICTORS = ("always", "never", "store-set", "oracle")

#: ``HwStats.to_dict()`` plus cycles on ``_mach(predictor)``, as the
#: three-pass simulator (resolve, time, commit on every execution)
#: counted them: the one-pass path must reproduce every counter, in
#: either tier.
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


def _mach(predictor="store-set", fus=2):
    return hw_machine(fus, predictor=predictor, window=8)


def _simulate(program, mach):
    sim = HwSimulator(program.copy(), mach, naive_graphs(program),
                      trace_stores=True)
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
        """Both tiers report plain tuples that hash and compare like
        :class:`MemEvent` records, so memo keys built from either name
        the same entries."""
        sim, _ = _simulate(example22_program, _mach("store-set"))
        checked = 0
        for state in sim._trees.values():
            for memo_id, (events, decisions) in state.memo_keys.items():
                as_records = tuple(MemEvent(*event) for event in events)
                assert state.memo_ids[(as_records, decisions)] == memo_id
                assert memo_id in state.memo
                checked += len(events)
        assert checked

    def test_compiles_once_per_function_shape(self, monkeypatch,
                                              example22_program):
        # every function compiled on entry
        monkeypatch.setattr(jit, "HW_TIER_THRESHOLD", 0)
        clear_code_cache()
        with obs.tracing() as tracer:
            sim, _ = _simulate(example22_program, _mach("store-set"))
        sources = {sim._source(name) for name in sim._tiers}
        assert "_hw = interp._time" in next(iter(sources))
        assert tracer.metrics.counters["engines.jit.compiles"] == len(sources)


class TestFastPathEquivalenceForced(ForcedThreshold,
                                    TestFastPathEquivalence):
    pass


COLD_LOOP = """
int main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 3; i = i + 1) {
        s = s + i;
    }
    print(s);
    return 0;
}
"""


#: Example 2-2's loop, four times as long: past main's budget
HOT_LOOP = EXAMPLE_2_2.replace("300", "1000").replace("<= 100", "<= 400")

#: Example 2-2's loop, half as long: short of main's budget
WARM_LOOP = EXAMPLE_2_2.replace("<= 100", "<= 50")

HOT_TREE = ("main", "main.b1_for")


class TestTiers:
    """A function runs interpreted until it has spent its step budget,
    and compiles once; a function whose source a past run compiled
    enters compiled; with execution counts, a function that will spend
    its budget compiles on entry and any other never compiles."""

    def _counters(self, program, tree_counts=None):
        with obs.tracing() as tracer:
            sim = HwSimulator(program.copy(), _mach("store-set"),
                              naive_graphs(program), trace_stores=True,
                              tree_counts=tree_counts)
            sim.run()
        return sim, tracer.metrics.counters

    def test_cold_program_compiles_nothing(self):
        clear_code_cache()
        sim, counters = self._counters(compile_source(COLD_LOOP))
        assert sim.output == [3]
        assert counters.get("engines.jit.compiles", 0) == 0
        assert counters.get("engines.jit.tier_ups", 0) == 0
        assert all(tier.fn is None for tier in sim._tiers.values())

    def test_hot_tree_compiles_once(self):
        program = compile_source(HOT_LOOP)
        clear_code_cache()
        sim, counters = self._counters(program)
        # the loop body runs 400 times: its function, main, compiles
        assert [name for name, tier in sim._tiers.items()
                if tier.fn is not None] == ["main"]
        assert counters["engines.jit.compiles"] == 1
        assert counters["engines.jit.tier_ups"] == 1
        # a second run enters main compiled from the code cache
        sim, counters = self._counters(program)
        assert counters.get("engines.jit.compiles", 0) == 0
        assert counters.get("engines.jit.tier_ups", 0) == 0
        assert counters["engines.jit.cache_hits"] == 1
        assert sim._tiers["main"].fn is not None

    def test_tree_below_break_even_never_compiles(self):
        clear_code_cache()
        sim, counters = self._counters(compile_source(WARM_LOOP))
        assert counters.get("engines.jit.compiles", 0) == 0
        tier = sim._tiers["main"]
        assert tier.budget // 2 < tier.steps < tier.budget

    def _break_even(self, program):
        """The loop tree's execution count at which main's expected
        steps reach its budget."""
        trees = program.functions["main"].trees
        size = sum(len(tree.ops) + len(tree.exits) for tree in trees.values())
        budget = jit.HW_TIER_THRESHOLD * size
        return -(-budget // (len(trees[HOT_TREE[1]].ops) + 1))

    def test_count_at_break_even_compiles_on_entry(self, example22_program,
                                                   monkeypatch):
        counts = {HOT_TREE: self._break_even(example22_program)}
        interpreted = []
        walk = HwSimulator._walk

        def recording(sim, tree, *args):
            interpreted.append(tree.name)
            return walk(sim, tree, *args)

        monkeypatch.setattr(HwSimulator, "_walk", recording)
        clear_code_cache()
        sim, counters = self._counters(example22_program, counts)
        tier = sim._tiers["main"]
        assert tier.fn is not None
        assert not interpreted
        assert tier.steps == 0
        assert counters["engines.jit.compiles"] == 1
        assert counters["engines.jit.tier_ups"] == 1
        # the same timing as the rule without counts
        assert sim.timing() == _simulate(example22_program,
                                         _mach("store-set"))[0].timing()

    def test_count_below_break_even_compiles_nothing(self):
        # the warm loop runs short of main's budget, so only a count
        # could compile it
        program = compile_source(WARM_LOOP)
        counts = {HOT_TREE: self._break_even(program) - 1}
        clear_code_cache()
        sim, counters = self._counters(program, counts)
        assert counters.get("engines.jit.compiles", 0) == 0
        assert counters.get("engines.jit.tier_ups", 0) == 0
        assert all(tier.fn is None for tier in sim._tiers.values())

    def test_profiled_counts_compile_only_the_hot_tree(self):
        program = compile_source(HOT_LOOP)
        profile = get_engine("interp").executor(program.copy()).run().profile
        clear_code_cache()
        sim, counters = self._counters(program, profile.tree_counts)
        assert [name for name, tier in sim._tiers.items()
                if tier.fn is not None] == ["main"]
        assert sim._tiers["main"].steps == 0
        assert counters["engines.jit.tier_ups"] == 1

    def test_tier_ups_stay_out_of_the_payload(self, example22_program):
        clear_code_cache()
        sim, _ = self._counters(example22_program)
        assert "tier_ups" not in sim.timing().to_dict()


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


class TestMisorderedTiming:
    def test_misordered_timing_raises(self, monkeypatch, example22_program):
        monkeypatch.setattr(core, "simulate_tree",
                            _stale_forwarding(core.simulate_tree))
        # Example 2-2 stores a[8] and loads it back in iteration 4
        with pytest.raises(AssertionError) as info:
            _simulate(example22_program, _mach("never"))
        message = str(info.value)
        assert "tree main.main.b1_for" in message
        assert "load node 13" in message and "store node 10" in message

    def test_fuzz_oracle_reports_misordered_timing(self, monkeypatch):
        monkeypatch.setattr(core, "simulate_tree",
                            _stale_forwarding(core.simulate_tree))
        report = check_source(EXAMPLE_2_2, OracleConfig(
            check_grafted=False, sweep_sequences=((),),
            cleanup_sequences=((),), finite_fus=(2,)))
        assert report.error is None
        crashes = [d for d in report.divergences if d.kind == "crash"]
        assert crashes
        assert all(d.stage.startswith(("hw[", "spec+hw[")) for d in crashes)
        assert any(d.stage.startswith("hw[") and "mis-orders memory"
                   in d.detail for d in crashes)


class TestMemoBound:
    def test_capacity_one_evicts_without_changing_cycles(
            self, monkeypatch, example22_program):
        ref_sim, _ = _simulate(example22_program, _mach("never"))
        monkeypatch.setattr(core, "MEMO_CAPACITY", 1)
        tiny_sim, _ = _simulate(example22_program, _mach("never"))
        assert ref_sim.stats.memo_evictions == 0
        assert tiny_sim.stats.memo_evictions > 0
        # eviction costs recomputation, never cycles
        assert tiny_sim.cycles == ref_sim.cycles
        assert tiny_sim.output == ref_sim.output
        assert tiny_sim.stats.squashes == ref_sim.stats.squashes

    def test_capacity_one_keeps_learning_exact(self, monkeypatch,
                                               example22_program):
        """The decision cache shares the memo's bound and is dropped
        on every training step, so a learning predictor's counters do
        not depend on either."""
        ref_sim, _ = _simulate(example22_program, _mach("store-set"))
        monkeypatch.setattr(core, "MEMO_CAPACITY", 1)
        tiny_sim, _ = _simulate(example22_program, _mach("store-set"))
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


class TestMemoIds:
    def test_ids_keep_the_lru_of_the_keys(self, monkeypatch,
                                          example22_program):
        """The memo is keyed by the small ints the decision cache hands
        out; through evictions, with a cached decision outliving its
        memo entry, its hits, misses and evictions stay those of an LRU
        keyed on the events themselves (a never-speculating predictor
        decides the same bits for every trace)."""
        monkeypatch.setattr(core, "MEMO_CAPACITY", 2)
        sim = HwSimulator(example22_program.copy(), _mach("never"),
                          naive_graphs(example22_program))
        tree = example22_program.functions["main"].trees[HOT_TREE[1]]
        nodes = [(node, op.opcode is Opcode.STORE)
                 for node, op in enumerate(tree.ops)
                 if op.opcode in (Opcode.LOAD, Opcode.STORE)][:3]
        classes = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        lru, hits, misses, evictions = OrderedDict(), 0, 0, 0
        for pick in (0, 1, 0, 2, 1, 3, 0, 4, 2, 0, 1, 3, 3, 4, 0) * 3:
            trace = [(node, is_store, cls) for (node, is_store), cls
                     in zip(nodes, classes[pick])]
            sim._time(HOT_TREE, 0, trace)
            events = tuple(trace)
            if events in lru:
                lru.move_to_end(events)
                hits += 1
            else:
                lru[events] = None
                misses += 1
                if len(lru) > 2:
                    lru.popitem(last=False)
                    evictions += 1
        stats = sim.stats
        assert (stats.memo_hits, stats.memo_misses, stats.memo_evictions) == (
            hits, misses, evictions)
        assert evictions > 0 and hits > 0
        state = sim._trees[HOT_TREE]
        assert [state.memo_keys[memo_id][0] for memo_id in state.memo] == list(
            lru)


class TestMemoObservability:
    def test_memo_counters_emitted(self, monkeypatch, example22_program):
        monkeypatch.setattr(core, "MEMO_CAPACITY", 1)
        with obs.tracing() as tracer:
            sim, _ = _simulate(example22_program, _mach("never"))
        counters = tracer.metrics.counters
        assert counters["hwsim.memo.hits"] == sim.stats.memo_hits > 0
        assert counters["hwsim.memo.misses"] == sim.stats.memo_misses > 0
        assert (counters["hwsim.memo.evictions"]
                == sim.stats.memo_evictions > 0)
        # one name per fact
        assert "hwsim.memo_hits" not in counters
        assert "hwsim.memo_misses" not in counters
