"""The fuzz-smoke campaign with every function compiled on entry.

At the default tier thresholds most generated programs finish before
any of their functions is hot, in the ``jit`` engine and in hwsim
alike, so ``repro fuzz --engine jit`` mostly checks the interpreted
tiers and the handoff.  This replay of the same campaign (seed 0, 50
iterations) at ``TIER_THRESHOLD = 0`` and ``HW_TIER_THRESHOLD = 0``
keeps the generated code under the oracle: the ``jit`` engine's
whole-function code, profiled and plain, and hwsim's timed
whole-function code.
"""

import pytest

from repro.engines import jit
from repro.fuzz import OracleConfig, run_campaign


@pytest.mark.slow
def test_seed0_campaign_agrees_compiled_on_entry(monkeypatch):
    monkeypatch.setattr(jit, "TIER_THRESHOLD", 0)
    monkeypatch.setattr(jit, "HW_TIER_THRESHOLD", 0)
    compiled = []
    compile_source = jit.compiled_fn

    def counting(source):
        compiled.append(source)
        return compile_source(source)

    monkeypatch.setattr(jit, "compiled_fn", counting)
    result = run_campaign(
        seed=0, iterations=50,
        oracle_config=OracleConfig(engines=("jit",)),
        reduce_divergences=False)
    assert result.programs_generated == 50
    assert not result.generator_errors
    assert not result.divergent, [record.divergences[0]
                                  for record in result.divergent]
    # compiled code of both engines ran: hwsim's timed functions and
    # the jit engine's
    assert any("_hw = interp._time" in source for source in compiled)
    assert any("_hw = interp._time" not in source for source in compiled)
