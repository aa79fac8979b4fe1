"""The fuzz-smoke campaign with every function and tree compiled on entry.

At the default tier threshold most generated programs finish before
any of their functions is hot, and most of hwsim's trees run too few
times to compile, so ``repro fuzz --engine jit`` mostly checks the
interpreted tiers and the handoff.  This replay of the same campaign
(seed 0, 50 iterations) at ``TIER_THRESHOLD = 0`` keeps the generated
code under the oracle: the ``jit`` engine's whole-function code, and
through the one tiering rule both share, hwsim's compiled
``hw_resolve`` pass of every tree it times.
"""

import pytest

from repro.engines import jit
from repro.fuzz import OracleConfig, run_campaign


@pytest.mark.slow
def test_seed0_campaign_agrees_compiled_on_entry(monkeypatch):
    monkeypatch.setattr(jit, "TIER_THRESHOLD", 0)
    result = run_campaign(
        seed=0, iterations=50,
        oracle_config=OracleConfig(engines=("jit",)),
        reduce_divergences=False)
    assert result.programs_generated == 50
    assert not result.generator_errors
    assert not result.divergent, [record.divergences[0]
                                  for record in result.divergent]
