"""Property-based tests of the hardware simulator on random programs.

Three structural guarantees of :mod:`repro.hwsim`, checked against
arbitrary well-formed tinyc programs:

* **functional equivalence** — every predictor configuration reproduces
  the reference interpreter's output, return value and final memory
  (the commit pass derives load values from the load/store queue's
  timing, so this genuinely tests the engine's memory ordering);
* **dataflow lower bound** — no finite configuration ever finishes in
  fewer cycles than the unbounded oracle machine;
* **no speculation, no squashes** — the ``never`` predictor's runs
  squash zero loads, by construction;
* **determinism** — two independent simulations of the same program on
  the same machine agree bit for bit (cycles, counters, output).
"""

from hypothesis import HealthCheck, given, settings

from repro.frontend import compile_source
from repro.hwsim import simulate_program
from repro.machine import HW_ORACLE_INFINITE, hw_machine
from repro.sim import run_program

from ..conftest import naive_graphs
from .gen import tinyc_programs

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: A deliberately tight machine: 2 units, 8-entry window, so the
#: retirement/window logic is load-bearing, not just the bypass logic.
_TIGHT = dict(memory_latency=2, window=8)


@_SETTINGS
@given(source=tinyc_programs())
def test_hw_matches_interpreter_all_predictors(source):
    program = compile_source(source)
    reference = run_program(program, max_steps=2_000_000)
    graphs = naive_graphs(program)
    for predictor in ("always", "never", "store-set", "oracle"):
        mach = hw_machine(2, predictor=predictor, **_TIGHT)
        result = simulate_program(program.copy(), mach, graphs,
                                  max_steps=2_000_000)
        assert reference.output_equal(result), (source, predictor)
        assert reference.return_value == result.return_value, (
            source, predictor)


@_SETTINGS
@given(source=tinyc_programs())
def test_hw_finite_never_beats_oracle_infinite(source):
    program = compile_source(source)
    graphs = naive_graphs(program)
    bound = simulate_program(program.copy(), HW_ORACLE_INFINITE, graphs,
                             max_steps=2_000_000).cycles
    for predictor in ("always", "never", "store-set"):
        for fus in (1, 2):
            mach = hw_machine(fus, predictor=predictor, **_TIGHT)
            cycles = simulate_program(program.copy(), mach, graphs,
                                      max_steps=2_000_000).cycles
            assert cycles >= bound, (source, predictor, fus, cycles, bound)


@_SETTINGS
@given(source=tinyc_programs())
def test_never_speculate_never_squashes(source):
    program = compile_source(source)
    result = simulate_program(
        program.copy(), hw_machine(2, predictor="never", **_TIGHT),
        naive_graphs(program), max_steps=2_000_000)
    assert result.timing.stats["squashes"] == 0
    assert result.timing.stats["violations"] == 0
    assert result.timing.stats["spec_issues"] == 0


@_SETTINGS
@given(source=tinyc_programs())
def test_hw_simulation_is_deterministic(source):
    program = compile_source(source)
    mach = hw_machine(2, predictor="store-set", **_TIGHT)
    graphs = naive_graphs(program)
    first = simulate_program(program.copy(), mach, graphs,
                             max_steps=2_000_000)
    second = simulate_program(program.copy(), mach, graphs,
                              max_steps=2_000_000)
    assert first.cycles == second.cycles
    assert first.output == second.output
    assert first.timing == second.timing
