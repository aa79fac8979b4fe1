"""Differential equivalence: the ``jit`` engine vs the reference interpreter.

Every observable axis must agree — printed output, return value, step
count, final memory image, the ordered store trace, and the full
execution profile (tree/exit counts, alias-pair statistics, dynamic
operation count).  The suite covers all fourteen benchmarks, the SpD
knob grid on the alias-heavy subset (the transformed SPEC views are the
programs most likely to expose a miscompile: guard chains, duplicated
exits, speculative loads), FU-sweep schedule cycles derived from each
engine's profile, and the pinned fuzz-corpus reproducers.

The ``jit`` engine is tiered, so every case also runs with
``TIER_THRESHOLD`` forced to 0 (each function compiled on entry) and to
1 (each function tiers up after its first tree or few, inside a running
loop); ``TestTierUp`` pins the mid-loop handoff under each run option.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator, disambiguate
from repro.disambig.spd_heuristic import SpDConfig
from repro.engines import get_engine, jit
from repro.frontend import compile_source
from repro.ir import Function, Guard, Opcode, Program, TreeBuilder
from repro.machine.description import machine
from repro.sim.evaluate import evaluate_program
from repro.sim.interpreter import InterpreterError

CORPUS = Path(__file__).parent.parent / "fuzz" / "corpus"

#: Benchmarks with ambiguous memory pairs — the SpD transform actually
#: fires on these, so their SPEC views are the interesting grid inputs.
GRID_BENCHMARKS = ("fft", "moment", "perm", "quick")

#: Heuristic knob grid: default, conservative (tight expansion, high
#: gain bar), and profile-weighted aggressive.
SPD_GRID = (
    SpDConfig(),
    SpDConfig(max_expansion=1.2, min_gain=1.0),
    SpDConfig(assumed_alias_probability=0.25,
              alias_probability_weighting=True),
)

_programs = {}


def _program(name):
    if name not in _programs:
        _programs[name] = compile_source(get_benchmark(name).source)
    return _programs[name]


def _execute(engine, program):
    """Run *program* under *engine*; returns every comparable observable."""
    executor = get_engine(engine).executor(program.copy(), trace_stores=True)
    try:
        result = executor.run()
    except InterpreterError as exc:
        return {"error": str(exc), "output": list(executor.output),
                "memory": list(executor.memory),
                "store_trace": list(executor.store_trace)}
    return {
        "error": None,
        "output": list(result.output),
        "return_value": result.return_value,
        "steps": result.steps,
        "memory": list(executor.memory),
        "store_trace": list(executor.store_trace),
        "tree_counts": dict(result.profile.tree_counts),
        "exit_counts": dict(result.profile.exit_counts),
        "pair_stats": dict(result.profile.pair_stats),
        "dynamic_operations": result.profile.dynamic_operations,
    }


def _assert_engines_agree(program, context=""):
    reference = _execute("interp", program)
    jitted = _execute("jit", program)
    for axis in reference:
        assert jitted[axis] == reference[axis], (
            f"{context}: jit diverges from interp on {axis}")
    return reference


_run_cache = {}


def _reference_run(name):
    """Interp-vs-jit comparison for benchmark *name* at the current
    tier threshold, memoised because the grid and FU-sweep tests reuse
    the same baseline runs."""
    key = (name, jit.TIER_THRESHOLD)
    if key not in _run_cache:
        _run_cache[key] = _assert_engines_agree(_program(name), name)
    return _run_cache[key]


class TestBenchmarkEquivalence:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_engines_agree(self, name):
        reference = _reference_run(name)
        assert reference["error"] is None
        assert reference["output"], f"{name} printed nothing"


class TestSpdGridEquivalence:
    """jit == interp on the SPEC-transformed views across the knob grid."""

    @pytest.mark.parametrize("name", GRID_BENCHMARKS)
    @pytest.mark.parametrize("knobs", range(len(SPD_GRID)))
    def test_transformed_views_agree(self, name, knobs):
        from repro.sim.profile import ProfileData

        base = _reference_run(name)
        profile = ProfileData(tree_counts=base["tree_counts"],
                              exit_counts=base["exit_counts"],
                              pair_stats=base["pair_stats"],
                              dynamic_operations=base["dynamic_operations"])
        view = disambiguate(_program(name), Disambiguator.SPEC,
                            profile=profile, machine=machine(2, 6),
                            spd_config=SPD_GRID[knobs])
        transformed = _assert_engines_agree(
            view.program, f"{name} SPEC view, knobs[{knobs}]")
        # the transform must preserve observable behaviour too
        assert transformed["output"] == base["output"]
        assert transformed["memory"] == base["memory"]


class TestScheduleEquivalence:
    """Schedule cycles from a jit-collected profile match the
    interp-collected profile at every FU width (1/2/4/8)."""

    @pytest.mark.parametrize("name", GRID_BENCHMARKS)
    def test_fu_sweep_cycles_agree(self, name):
        from repro.sim.profile import ProfileData

        program = _program(name)
        profiles = {}
        for engine in ("interp", "jit"):
            run = _execute(engine, program)
            profiles[engine] = ProfileData(
                tree_counts=run["tree_counts"],
                exit_counts=run["exit_counts"],
                pair_stats=run["pair_stats"],
                dynamic_operations=run["dynamic_operations"])
        views = {
            engine: disambiguate(program, Disambiguator.SPEC,
                                 profile=profiles[engine],
                                 machine=machine(2, 6))
            for engine in profiles
        }
        for num_fus in (1, 2, 4, 8):
            mach = machine(num_fus, 6)
            cycles = {
                engine: evaluate_program(views[engine].program,
                                         views[engine].graphs, mach,
                                         profiles[engine]).cycles
                for engine in profiles
            }
            assert cycles["jit"] == cycles["interp"], (
                f"{name}: cycle divergence at {num_fus} FUs")


class TestCorpusEquivalence:
    """The pinned fuzz reproducers — each once exposed a real oracle
    divergence — must agree under both engines."""

    @pytest.mark.parametrize(
        "case", sorted(CORPUS.glob("*.tc")), ids=lambda p: p.stem)
    def test_corpus_case_agrees(self, case):
        program = compile_source(case.read_text())
        _assert_engines_agree(program, case.stem)


class _ForcedThreshold:
    """Re-runs the inherited cases with the tier threshold forced low."""

    @pytest.fixture(autouse=True, params=(0, 1), ids=("tier0", "tier1"))
    def _threshold(self, request, monkeypatch):
        # a function already in the code cache would enter compiled
        jit.clear_code_cache()
        monkeypatch.setattr(jit, "TIER_THRESHOLD", request.param)


class TestBenchmarkEquivalenceForced(_ForcedThreshold,
                                     TestBenchmarkEquivalence):
    pass


class TestSpdGridEquivalenceForced(_ForcedThreshold,
                                   TestSpdGridEquivalence):
    pass


class TestScheduleEquivalenceForced(_ForcedThreshold,
                                    TestScheduleEquivalence):
    pass


class TestCorpusEquivalenceForced(_ForcedThreshold, TestCorpusEquivalence):
    pass


#: A loop that calls a helper each iteration: both functions tier up
#: mid-run at threshold 5 (a budget of a few dozen steps), with guarded
#: operations (squashes) and an address that leaves memory at i == 30
#: (``a[k]``).
TIER_UP_SOURCE = """
int a[16];

int step(int x) {
    if (x % 3 == 0) {
        return x / 3;
    }
    return x + 1;
}

int main() {
    int i;
    int s;
    int k;
    s = 0;
    k = 0;
    for (i = 0; i < 40; i = i + 1) {
        a[i % 16] = step(i) + s;
        if (i % 4 == 1) {
            s = s + a[(i + 3) % 16];
        } else {
            s = s - 1;
        }
        if (i == 30) {
            k = 100000;
        }
        s = s + a[k] * 0;
    }
    print(s);
    print(a[5]);
    return 0;
}
"""


class TestTierUp:
    """The interpreted prefix and the compiled rest of one run add up
    to the reference interpreter's observables."""

    THRESHOLD = 5

    @pytest.fixture(autouse=True)
    def _threshold(self, monkeypatch):
        # a function already in the code cache would enter compiled
        jit.clear_code_cache()
        monkeypatch.setattr(jit, "TIER_THRESHOLD", self.THRESHOLD)

    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(TIER_UP_SOURCE)

    @staticmethod
    def _observe(engine, program, **options):
        """Every observable, the profile and steps included, also when
        the run raises."""
        executor = get_engine(engine).executor(
            program.copy(), trace_stores=True, **options)
        try:
            executor.run()
            error = None
        except InterpreterError as exc:
            error = str(exc)
        profile = executor.profile
        return executor, {
            "error": error, "output": list(executor.output),
            "steps": executor.steps, "memory": list(executor.memory),
            "store_trace": list(executor.store_trace),
            "tree_counts": dict(profile.tree_counts),
            "exit_counts": dict(profile.exit_counts),
            "pair_stats": dict(profile.pair_stats),
            "dynamic_operations": profile.dynamic_operations}

    def _assert_agree(self, program, **options):
        with obs.tracing() as tracer:
            _, reference = self._observe("interp", program, **options)
        with obs.tracing() as jit_tracer:
            executor, jitted = self._observe("jit", program, **options)
        assert jitted == reference
        # both functions ran interpreted trees, then compiled ones
        assert jit_tracer.metrics.counters["engines.jit.tier_ups"] == 2
        for tier in executor._tiers.values():
            assert tier.steps > 0 and tier.fn is not None
        return reference, tracer, jit_tracer

    def test_profile_after_mid_loop_tier_up(self, program):
        reference, _, _ = self._assert_agree(program)
        assert reference["error"] is None

    def test_tracer_tallies_after_tier_up(self, program):
        _, tracer, jit_tracer = self._assert_agree(program)
        sim = {name: value for name, value
               in tracer.metrics.counters.items() if name.startswith("sim.")}
        jit_sim = {name: value for name, value
                   in jit_tracer.metrics.counters.items()
                   if name.startswith("sim.")}
        assert jit_sim == sim
        assert sim["sim.guard_squashed"] > 0
        assert sim["sim.steps"] > 0

    def test_strict_memory_fault_after_tier_up(self, program):
        reference, _, _ = self._assert_agree(program, strict_memory=True)
        assert "out of range" in reference["error"]

    def test_step_limit_after_tier_up(self, program):
        _, full = self._observe("interp", program)
        reference, _, _ = self._assert_agree(
            program, max_steps=full["steps"] - 20)
        assert "step limit exceeded" in reference["error"]


@pytest.mark.parametrize("threshold", (0, 1), ids=("compiled", "interpreted"))
def test_no_exit_taken_agrees(threshold, monkeypatch):
    """A tree whose every exit guard is false raises the same error in
    either tier (threshold 1 interprets the first tree)."""
    jit.clear_code_cache()
    monkeypatch.setattr(jit, "TIER_THRESHOLD", threshold)
    builder = TreeBuilder("t0")
    never = builder.value(Opcode.CMP_LT, [5, 3])
    builder.halt(guard=Guard(never))
    function = Function("main")
    function.add_tree(builder.tree)
    program = Program()
    program.add_function(function)
    reference = _execute("interp", program)
    assert reference["error"] == "tree main.t0: no exit taken"
    assert _execute("jit", program) == reference
