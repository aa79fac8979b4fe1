"""Re-run hwsim test classes at forced tier thresholds.

hwsim tiers each tree like the ``jit`` engine tiers each function
(:class:`repro.engines.jit.Tier`): a tree's resolve pass runs
interpreted until the tree has spent ``TIER_THRESHOLD`` steps per
operation or exit, then compiled.  A class that also derives from
:class:`ForcedThreshold` runs its inherited cases again with the
threshold at 0 (every tree compiled on entry) and at 1 (each tree
compiled after about one execution, mid-loop).
"""

import pytest

from repro.engines import jit


class ForcedThreshold:
    """Re-runs the inherited cases with the tier threshold forced low."""

    @pytest.fixture(autouse=True, params=(0, 1), ids=("tier0", "tier1"))
    def _threshold(self, request, monkeypatch):
        # a tree already in the code cache would enter compiled
        jit.clear_code_cache()
        monkeypatch.setattr(jit, "TIER_THRESHOLD", request.param)
