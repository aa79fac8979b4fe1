"""The fuzz-smoke campaign with every function and tree compiled on entry.

At the default tier thresholds most generated programs finish before
any of their functions is hot, and most of hwsim's trees run too few
times to compile, so ``repro fuzz --engine jit`` mostly checks the
interpreted tiers and the handoff.  This replay of the same campaign
(seed 0, 50 iterations) at ``TIER_THRESHOLD = 0`` and
``HW_TIER_THRESHOLD = 0`` keeps the generated code under the oracle:
the ``jit`` engine's whole-function code, and hwsim's compiled
``hw_resolve`` pass of every tree it times.
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
    # both tiers' compiled code ran: hwsim's per-tree resolve passes and
    # the jit engine's whole functions
    assert any(source.startswith("def _tree_fn") for source in compiled)
    assert any(source.startswith("def _func_fn") for source in compiled)
