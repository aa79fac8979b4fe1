"""Unit tests for the memory-dependence predictors."""

import pytest

from repro.hwsim import (AlwaysSpeculate, HwSimulator, NeverSpeculate,
                         StoreSetPredictor, make_predictor)
from repro.machine.hw import HW_ORACLE_INFINITE

from ..conftest import naive_graphs

LOAD = ("main", "t0", 4)
STORE = ("main", "t0", 3)
OTHER_STORE = ("main", "t1", 9)
OTHER_LOAD = ("main", "t1", 11)


class TestFixedPolicies:
    def test_always_bypasses(self):
        predictor = AlwaysSpeculate()
        assert predictor.may_bypass(LOAD, STORE)
        predictor.train(LOAD, STORE)  # training is a no-op
        assert predictor.may_bypass(LOAD, STORE)

    def test_never_bypasses(self):
        predictor = NeverSpeculate()
        assert not predictor.may_bypass(LOAD, STORE)


class TestStoreSet:
    def test_bypasses_until_trained(self):
        predictor = StoreSetPredictor()
        assert predictor.may_bypass(LOAD, STORE)
        predictor.train(LOAD, STORE)
        assert not predictor.may_bypass(LOAD, STORE)
        assert predictor.violations_trained == 1

    def test_unrelated_pairs_still_bypass(self):
        predictor = StoreSetPredictor()
        predictor.train(LOAD, STORE)
        assert predictor.may_bypass(LOAD, OTHER_STORE)
        assert predictor.may_bypass(OTHER_LOAD, STORE)

    def test_sets_merge_transitively(self):
        predictor = StoreSetPredictor()
        predictor.train(LOAD, STORE)
        predictor.train(LOAD, OTHER_STORE)
        # both stores now share the load's set: the load waits for both
        assert not predictor.may_bypass(LOAD, STORE)
        assert not predictor.may_bypass(LOAD, OTHER_STORE)

    def test_repeated_training_is_stable(self):
        predictor = StoreSetPredictor()
        for _ in range(5):
            predictor.train(LOAD, STORE)
        assert predictor.violations_trained == 5
        assert not predictor.may_bypass(LOAD, STORE)


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("always", AlwaysSpeculate),
        ("never", NeverSpeculate),
        ("store-set", StoreSetPredictor),
    ])
    def test_make_predictor(self, name, cls):
        predictor = make_predictor(name)
        assert isinstance(predictor, cls)
        assert predictor.name == name

    def test_oracle_placeholder_never_bypasses(self, example22_program):
        # the oracle is no policy: the simulator decides its pairs from
        # the actual addresses, and its placeholder object must at least
        # be safe (never bypass) if consulted anyway
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("oracle")
        sim = HwSimulator(example22_program, HW_ORACLE_INFINITE,
                          naive_graphs(example22_program))
        assert isinstance(sim.predictor, NeverSpeculate)
        assert not sim.predictor.may_bypass(LOAD, STORE)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("magic8ball")
