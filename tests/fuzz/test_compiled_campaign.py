"""The fuzz-smoke campaign with every function compiled on entry.

At the default tier threshold most generated programs finish before
any of their functions is hot, so ``repro fuzz --engine jit`` mostly
checks the interpreted tier and the handoff.  This replay of the same
campaign (seed 0, 50 iterations) at ``TIER_THRESHOLD = 0`` keeps the
generated code of every program and view under the oracle.  The
hardware backend is left out: it never runs the ``jit`` engine.
"""

import pytest

from repro.engines import jit
from repro.fuzz import OracleConfig, run_campaign


@pytest.mark.slow
def test_seed0_campaign_agrees_compiled_on_entry(monkeypatch):
    monkeypatch.setattr(jit, "TIER_THRESHOLD", 0)
    result = run_campaign(
        seed=0, iterations=50,
        oracle_config=OracleConfig(engines=("jit",), check_hardware=False),
        reduce_divergences=False)
    assert result.programs_generated == 50
    assert not result.generator_errors
    assert not result.divergent, [record.divergences[0]
                                  for record in result.divergent]
