"""The process-wide compiled-code cache and the tiers it feeds:
bounding, reuse, promotion, observability."""

import pytest

from repro import obs
from repro.engines import jit
from repro.engines.codegen import generate_function_source
from repro.engines.jit import clear_code_cache, code_cache_size, compiled_fn
from repro.frontend import compile_source
from repro.sim import run_program


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts (and leaves) an empty process-wide cache."""
    clear_code_cache()
    yield
    clear_code_cache()


def _sources(n):
    """*n* distinct-but-trivial generated-source stand-ins (the cache
    keys on source text, so any text exercises it)."""
    return [f"def _func_fn(regs, memory, interp, _t):\n    return {i}\n"
            for i in range(n)]


class TestCodeCache:
    def test_hit_returns_same_function(self):
        source = _sources(1)[0]
        first = compiled_fn(source)
        second = compiled_fn(source)
        assert first is second
        assert code_cache_size() == 1

    def test_lru_eviction_beyond_capacity(self, monkeypatch):
        monkeypatch.setattr(jit, "CODE_CACHE_CAPACITY", 4)
        sources = _sources(6)
        for source in sources:
            compiled_fn(source)
        assert code_cache_size() == 4
        # the two oldest were evicted; re-requesting recompiles
        survivors = set(jit._code_cache)
        assert sources[0] not in survivors
        assert sources[1] not in survivors
        assert sources[5] in survivors

    def test_recently_used_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(jit, "CODE_CACHE_CAPACITY", 2)
        a, b, c = _sources(3)
        compiled_fn(a)
        compiled_fn(b)
        compiled_fn(a)  # refresh a; b is now LRU
        compiled_fn(c)
        assert a in jit._code_cache
        assert b not in jit._code_cache

    def test_counters_under_tracing(self, monkeypatch):
        monkeypatch.setattr(jit, "CODE_CACHE_CAPACITY", 2)
        sources = _sources(3)
        with obs.tracing() as tracer:
            for source in sources:
                compiled_fn(source)   # 3 misses, 3 compiles, 1 eviction
            compiled_fn(sources[2])   # 1 hit
        counters = tracer.metrics.counters
        assert counters["engines.jit.cache_misses"] == 3
        assert counters["engines.jit.compiles"] == 3
        assert counters["engines.jit.cache_evictions"] == 1
        assert counters["engines.jit.cache_hits"] == 1


class TestTreeSharing:
    def test_identical_trees_share_compilation(self, example22_program,
                                               monkeypatch):
        """Two programs with identical tree structure compile once:
        the generated source is a structural fingerprint.  Threshold 0
        compiles every function it enters."""
        monkeypatch.setattr(jit, "TIER_THRESHOLD", 0)
        with obs.tracing() as tracer:
            run_program(example22_program.copy(), engine="jit")
            first = dict(tracer.metrics.counters)
            run_program(example22_program.copy(), engine="jit")
            second = dict(tracer.metrics.counters)
        assert second["engines.jit.compiles"] == first["engines.jit.compiles"]
        assert (second.get("engines.jit.cache_hits", 0)
                > first.get("engines.jit.cache_hits", 0))

    def test_generated_source_is_deterministic(self, example22_program):
        for func in example22_program.functions.values():
            assert (generate_function_source(func)
                    == generate_function_source(func))

    def test_profile_variant_is_a_distinct_key(self, example22_program):
        func = next(iter(example22_program.functions.values()))
        assert (generate_function_source(func, collect_profile=True)
                != generate_function_source(func, collect_profile=False))


#: Three loop iterations: far below the step budget of ``main``.
SHORT_SOURCE = """
int a[4];

int main() {
    int i;
    for (i = 0; i < 3; i = i + 1) {
        a[i] = i * 2;
    }
    print(a[2]);
    return 0;
}
"""


class TestTiers:
    """A short run stays interpreted; example22's 100-iteration loop
    tiers up once its step budget is spent."""

    def _run(self, program):
        with obs.tracing() as tracer:
            result = run_program(program.copy(), engine="jit")
        return result, tracer.metrics.counters

    def test_cold_function_never_compiles(self):
        program = compile_source(SHORT_SOURCE)
        result, counters = self._run(program)
        assert counters.get("engines.jit.compiles", 0) == 0
        assert counters.get("engines.jit.tier_ups", 0) == 0
        assert code_cache_size() == 0
        assert result.output == [4]

    def test_hot_loop_tiers_up_once(self, example22_program):
        _, counters = self._run(example22_program)
        assert counters["engines.jit.tier_ups"] == 1
        assert counters["engines.jit.compiles"] == 1

    def test_cold_count_carries_over_runs(self):
        """A function too short to tier up in one run still gets
        compiled once its runs add up to the budget."""
        program = compile_source(SHORT_SOURCE)
        for runs in range(1, 100):
            executor = jit.JitInterpreter(program.copy())
            executor.run()
            if executor._tiers["main"].fn is not None:
                break
        assert runs > 1
        assert code_cache_size() == 1

    def test_cached_function_enters_compiled(self, example22_program,
                                             monkeypatch):
        monkeypatch.setattr(jit, "TIER_THRESHOLD", 0)
        self._run(example22_program)           # compiles main
        monkeypatch.undo()
        executor = jit.JitInterpreter(example22_program.copy())
        with obs.tracing() as tracer:
            executor.run()
        counters = tracer.metrics.counters
        assert counters["engines.jit.cache_hits"] == 1
        assert counters.get("engines.jit.compiles", 0) == 0
        assert counters.get("engines.jit.tier_ups", 0) == 0
        # not one tree of main ran interpreted
        assert executor._tiers["main"].steps == 0
