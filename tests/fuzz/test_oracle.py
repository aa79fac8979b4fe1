"""Tests for the differential conformance oracle."""

import dataclasses
from pathlib import Path

import pytest

import repro.fuzz.oracle as oracle_mod
from repro.disambig.pipeline import Disambiguator, disambiguate
from repro.fuzz import OracleConfig, check_source, generate_program, make_divergence_predicate

CORPUS = Path(__file__).parent / "corpus"

#: Cheap configuration for tests that only need the view sweep.
FAST = OracleConfig(check_grafted=False, sweep_sequences=((),),
                    cleanup_sequences=((),), finite_fus=(2,))


class TestCleanPipeline:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_programs_conform(self, seed):
        report = check_source(generate_program(seed))
        assert report.error is None
        assert report.ok, [d.to_dict() for d in report.divergences]
        assert report.views_checked > 0
        assert report.timings_checked > 0

    @pytest.mark.parametrize("entry", sorted(CORPUS.glob("*.tc")),
                             ids=lambda p: p.stem)
    def test_pinned_corpus_conforms(self, entry):
        """Reduced reproducers of past (intentionally injected) bugs:
        the full oracle must stay silent on them on correct code."""
        report = check_source(entry.read_text())
        assert report.error is None
        assert report.ok, [d.to_dict() for d in report.divergences]

    def test_compile_error_is_reported_not_raised(self):
        report = check_source("int main() { return 0;")
        assert report.error is not None
        assert not report.divergences


#: A diamond whose SPEC view contains a guarded store: the shape the
#: corpus reproducers pinned down (see corpus/guard_commit_raw_a.tc).
DIAMOND = CORPUS.joinpath("guard_commit_raw_a.tc").read_text()


def _corrupting_disambiguate(program, kind, **kwargs):
    """A stand-in miscompiler: drop every store guard from SPEC views.

    Emulates the bug family repro.fuzz hunts — a transform whose
    commit condition forgets the store's guard — without editing
    spd_transform.  Only private copies are touched; pass-free views
    alias the caller's program and must stay intact.
    """
    view = disambiguate(program, kind, **kwargs)
    if kind is Disambiguator.SPEC and view.program is not program:
        for _fname, tree in view.program.all_trees():
            for i, op in enumerate(tree.ops):
                if op.is_store and op.guard is not None:
                    tree.ops[i] = dataclasses.replace(op, guard=None)
    return view


class TestInjectedBug:
    def test_dropped_store_guard_is_caught(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "disambiguate",
                            _corrupting_disambiguate)
        report = check_source(DIAMOND, FAST)
        assert report.error is None
        assert not report.ok
        kinds = {d.kind for d in report.divergences}
        assert kinds & {"output", "memory", "return"}

    def test_predicate_tracks_divergence(self, monkeypatch):
        predicate = make_divergence_predicate(FAST)
        assert predicate(DIAMOND) is False
        monkeypatch.setattr(oracle_mod, "disambiguate",
                            _corrupting_disambiguate)
        assert predicate(DIAMOND) is True
        # a program that stops compiling is NOT a divergence
        assert predicate("int main() {") is False


class TestBackendRegistry:
    def test_semantic_engines_are_default_backends(self):
        from repro.engines import engine_names
        names = engine_names()
        assert names[0] == "interp"
        assert "jit" in names
        assert "hw" not in names  # timing model, not an engine

    def test_registered_backend_participates(self):
        """A buggy registered engine must surface as a divergence —
        proof that registration wires it into the differential loop."""
        from repro.engines import ExecutionEngine, get_engine, register_engine
        from repro.engines.base import _ENGINES

        def lying_backend(program, **kwargs):
            executor = get_engine("interp").executor(program, **kwargs)
            original_run = executor.run

            def run(args=()):
                result = original_run(args)
                result.output.append(42)  # corrupt an observable
                return result

            executor.run = run
            return executor

        register_engine(ExecutionEngine("lying", "corrupts its output",
                                        lying_backend))
        try:
            report = check_source(DIAMOND, FAST)
        finally:
            _ENGINES.pop("lying")
        assert report.error is None
        assert not report.ok
        assert any("@lying" in d.stage for d in report.divergences)

    def test_engines_subset_is_honoured(self):
        """Restricting OracleConfig.engines to interp skips the jit
        cross-check entirely (and still conforms)."""
        config = dataclasses.replace(FAST, engines=("interp",))
        report = check_source(DIAMOND, config)
        assert report.error is None
        assert report.ok, [d.to_dict() for d in report.divergences]
