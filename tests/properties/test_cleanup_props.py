"""Property tests for the cleanup passes: semantics and idempotence.

Two invariants, checked on random tinyc programs and on every built-in
benchmark's SPEC view:

* every cleanup pass (alone and as the default pipeline) preserves
  interpreter output — ``run_program`` equivalence;
* every cleanup pass is idempotent: a second run over its own output
  changes nothing.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.suite import SUITE
from repro.disambig import Disambiguator, disambiguate
from repro.frontend import compile_source
from repro.ir import validate_program
from repro.machine import machine
from repro.passes import (DEFAULT_CLEANUP, PassManager, PassPipelineConfig,
                          build_cleanup_passes)
from repro.sim import run_program

from .gen import tinyc_programs

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MAX_STEPS = 2_000_000


def run_cleanup(program, names):
    """Run the named cleanup passes on a copy; return (program, reports)."""
    manager = PassManager(build_cleanup_passes(names))
    cleaned = manager.run(program.copy())
    return cleaned, manager.reports


def assert_idempotent(cleaned, names):
    again, reports = run_cleanup(cleaned, names)
    assert all(not r["changed"] for r in reports), reports
    assert again.size() == cleaned.size()


def assert_converges(cleaned, names, rounds=5):
    """The pass *sequence* must reach a fixpoint within a few rounds.

    A single round of (constfold, copyprop, dce) is not guaranteed to be
    a sequence-level fixpoint: dce may strip a statically-true guard and
    thereby expose a new constant-propagation source for constfold.  Each
    pass is individually idempotent (covered elsewhere); here we check
    the sequence settles instead of oscillating.
    """
    program = cleaned
    for _ in range(rounds):
        program, reports = run_cleanup(program, names)
        if all(not r["changed"] for r in reports):
            return program
    raise AssertionError(
        f"cleanup sequence {names} did not converge in {rounds} rounds")


@_SETTINGS
@given(source=tinyc_programs())
@pytest.mark.parametrize("pass_name", DEFAULT_CLEANUP)
def test_each_pass_preserves_output_and_is_idempotent(pass_name, source):
    program = compile_source(source)
    reference = run_program(program, max_steps=_MAX_STEPS)
    cleaned, _reports = run_cleanup(program, (pass_name,))
    validate_program(cleaned)
    result = run_program(cleaned.copy(), collect_profile=False,
                         max_steps=_MAX_STEPS)
    assert reference.output_equal(result), source
    assert_idempotent(cleaned, (pass_name,))


@_SETTINGS
@given(source=tinyc_programs())
def test_default_pipeline_on_spec_view(source):
    """The full cleanup pipeline after SpD: output-equal, never growing."""
    program = compile_source(source)
    reference = run_program(program, max_steps=_MAX_STEPS)
    plain = disambiguate(program, Disambiguator.SPEC,
                         profile=reference.profile,
                         machine=machine(None, 6))
    cleaned = disambiguate(program, Disambiguator.SPEC,
                           profile=reference.profile,
                           machine=machine(None, 6),
                           passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
    validate_program(cleaned.program)
    assert cleaned.code_size() <= plain.code_size()
    result = run_program(cleaned.program.copy(), collect_profile=False,
                         max_steps=_MAX_STEPS)
    assert reference.output_equal(result), source
    settled = assert_converges(cleaned.program, DEFAULT_CLEANUP)
    final = run_program(settled.copy(), collect_profile=False,
                        max_steps=_MAX_STEPS)
    assert reference.output_equal(final), source


@pytest.mark.parametrize("name", sorted(SUITE))
def test_benchmark_spec_views_survive_cleanup(name, pipeline):
    """On every benchmark: cleanup of the SPEC view keeps the output
    byte-identical and the sequence settles to a fixpoint."""
    source = SUITE[name].source
    profiled = pipeline.profile(name, source)
    view = pipeline.view(name, source, Disambiguator.SPEC)
    cleaned, _reports = run_cleanup(view.program, DEFAULT_CLEANUP)
    validate_program(cleaned)
    assert cleaned.size() <= view.program.size()
    result = run_program(cleaned.copy(), collect_profile=False)
    assert profiled.reference.output_equal(result)
    assert_converges(cleaned, DEFAULT_CLEANUP)
