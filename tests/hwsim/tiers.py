"""Re-run hwsim test classes at forced tier thresholds.

hwsim tiers each function like the ``jit`` engine does
(:class:`repro.engines.jit.Tier`): a function runs interpreted until it
has spent ``HW_TIER_THRESHOLD`` steps per operation or exit, then as
timed compiled code.  A class that also derives from
:class:`ForcedThreshold` runs its inherited cases again with both
engines' thresholds at 0 (every function compiled on entry) and at 1
(each compiled after about one pass over its trees, mid-loop).
"""

import pytest

from repro.engines import jit
from repro.hwsim import HwSimulator
from repro.machine import hw_machine

from ..conftest import naive_graphs


class ForcedThreshold:
    """Re-runs the inherited cases with the tier thresholds forced low."""

    @pytest.fixture(autouse=True, params=(0, 1), ids=("tier0", "tier1"))
    def _threshold(self, request, monkeypatch):
        # a function already in the code cache would enter compiled
        jit.clear_code_cache()
        monkeypatch.setattr(jit, "HW_TIER_THRESHOLD", request.param)
        monkeypatch.setattr(jit, "TIER_THRESHOLD", request.param)

    def test_forced_threshold_compiles_trees(self, example22_program):
        sim = HwSimulator(example22_program.copy(), hw_machine(2),
                          naive_graphs(example22_program))
        sim.run()
        # main, example 2-2's one function, holds every tree
        assert list(sim._tiers) == ["main"]
        assert sim._tiers["main"].fn is not None
