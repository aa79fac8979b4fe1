"""Integration tests for :class:`repro.hwsim.HwSimulator`.

These exercise the tree execution (one resolve pass, timing,
retirement) on the canonical conftest programs and check that the
coupled functional model agrees with the plain interpreter under every
predictor, with the resolve pass in either tier.
"""

import pytest

from repro import obs
from repro.hwsim import HwSimulator, simulate_program
from repro.machine import HW_ORACLE_INFINITE, hw_machine
from repro.sim import run_program

from ..conftest import naive_graphs
from .tiers import ForcedThreshold

PREDICTORS = ("always", "never", "store-set", "oracle")


def _mach(predictor="store-set", fus=2):
    return hw_machine(fus, predictor=predictor, window=8)


def _simulator(program, mach, **kwargs):
    """A simulator on a copy of *program*, timed from its NAIVE graphs."""
    return HwSimulator(program.copy(), mach, naive_graphs(program), **kwargs)


def _simulate(program, mach):
    return simulate_program(program.copy(), mach, naive_graphs(program))


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_example22_matches_interpreter(self, example22_program,
                                           example22_result, predictor):
        result = _simulate(example22_program,
                                  _mach(predictor))
        assert example22_result.output_equal(result)
        assert example22_result.return_value == result.return_value

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_pointer_kernel_matches_interpreter(self, pointer_program,
                                                predictor):
        reference = run_program(pointer_program.copy())
        result = _simulate(pointer_program, _mach(predictor))
        assert reference.output_equal(result)

    def test_final_memory_matches_interpreter(self, example22_program):
        from repro.sim.interpreter import Interpreter
        reference = Interpreter(example22_program.copy())
        reference.run()
        sim = _simulator(example22_program, _mach("always"))
        sim.run()
        assert sim.memory == reference.memory


class TestFunctionalEquivalenceForced(ForcedThreshold,
                                      TestFunctionalEquivalence):
    pass


class TestCounters:
    def test_example22_speculation_story(self, example22_program):
        """Example 2-2 aliases on exactly one iteration, so ``always``
        squashes a handful of loads, ``never`` squashes none, and the
        store-set predictor converges after training."""
        runs = {}
        for predictor in PREDICTORS:
            sim = _simulator(example22_program, _mach(predictor))
            sim.run()
            runs[predictor] = sim
        assert runs["always"].stats.squashes > 0
        assert runs["never"].stats.squashes == 0
        assert runs["never"].stats.spec_issues == 0
        assert runs["oracle"].stats.squashes == 0
        # the oracle still speculates (that is the point)
        assert runs["oracle"].stats.spec_issues > 0
        # store-set: squashes once per learned pair, then behaves
        assert 0 < runs["store-set"].stats.squashes
        assert (runs["store-set"].stats.squashes
                <= runs["always"].stats.squashes)

    def test_cycle_ordering(self, example22_program):
        cycles = {}
        for predictor in PREDICTORS:
            cycles[predictor] = _simulate(
                example22_program, _mach(predictor)).cycles
        # an oracle never waits needlessly and never squashes
        assert cycles["oracle"] <= min(cycles["never"], cycles["always"])
        # trained store-set lands between blind policies on this input
        assert cycles["oracle"] <= cycles["store-set"] <= cycles["never"]

    def test_memoisation_kicks_in_on_loops(self, example22_program):
        sim = _simulator(example22_program, _mach("never"))
        sim.run()
        # 100 loop iterations over a handful of distinct trees
        assert sim.stats.memo_hits > sim.stats.memo_misses
        assert (sim.stats.tree_executions
                == sim.stats.memo_hits + sim.stats.memo_misses)

    def test_timing_payload_is_self_describing(self, example22_program):
        mach = _mach("store-set")
        result = _simulate(example22_program, mach)
        timing = result.timing
        assert timing.machine_name == mach.name
        assert timing.predictor == "store-set"
        assert timing.cycles == result.cycles
        payload = timing.to_dict()
        assert payload["cycles"] == result.cycles
        assert payload["squashes"] == timing.stats["squashes"]
        assert payload["machine"] == mach.name


class TestObservability:
    def test_run_emits_metrics(self, example22_program):
        with obs.tracing() as tracer:
            _simulate(example22_program, _mach("always"))
        counters = tracer.metrics.counters
        assert counters["hwsim.cycles"] > 0
        assert counters["hwsim.tree_executions"] > 0
        assert counters["hwsim.squashes"] > 0
        assert counters["hwsim.memo.hits"] > 0


class TestLimits:
    def test_max_steps_enforced(self, example22_program):
        sim = _simulator(example22_program, _mach("never"),
                          max_steps=10)
        with pytest.raises(Exception):
            sim.run()

    def test_infinite_machine_is_program_lower_bound(self,
                                                     example22_program):
        bound = _simulate(example22_program,
                                 HW_ORACLE_INFINITE).cycles
        for predictor in PREDICTORS:
            cycles = _simulate(example22_program,
                                      _mach(predictor)).cycles
            assert cycles >= bound, predictor
