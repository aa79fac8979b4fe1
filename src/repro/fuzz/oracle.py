"""Differential conformance oracle: every layer checks every other.

One :func:`check_source` call cross-checks a single tinyc program
through the whole pipeline:

* the reference interpreter run (NAIVE semantics, profile collected),
* the grafted (tail-duplicated) compilation, re-executed and compared
  against the plain reference — grafting is where guarded stores and
  ambiguous loads meet inside one tree, so the grafted variant is also
  swept through the disambiguators to exercise SpD's guard-commit
  (conjunction) logic,
* every disambiguated view of both variants — all four
  disambiguators, every SpD heuristic knob setting, every
  cleanup-pass sequence — re-executed and compared against the
  reference on **program output**, **return value**, **memory trace**
  (per-address committed store sequences) and **final memory image**,
* metamorphic timing invariants: no view is ever slower than NAIVE on
  the infinite machine (SpD in particular never slows it — the paper's
  promise, enforced by the heuristic's best-state restoration), and
  every resource-constrained schedule on the 1/2/4/8-unit machines
  costs at least the infinite-machine lower bound of its own view,
* the hardware simulator (:mod:`repro.hwsim`) as an independent
  execution backend: the base program under every registered
  memory-dependence predictor, plus the SPEC view under the learning
  predictor, must reproduce the reference **output**, **return value**,
  **memory trace** and **final memory image** — committed load values
  follow the load/store queue's timing, so an engine that
  mis-orders memory diverges *functionally* here, not just in cycle
  counts.  Invariants: no finite configuration beats the
  unbounded-oracle machine's cycle count, and the ``never``-speculate
  predictor squashes zero loads.

Any violation is reported as a structured :class:`Divergence`; a
failure of the *reference* run itself (a generator bug, not a pipeline
bug) is reported separately via ``ConformanceReport.error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..disambig.pipeline import Disambiguator, disambiguate
from ..disambig.spd_heuristic import SpDConfig
from ..engines import engine_names, get_engine
from ..frontend.driver import compile_source
from ..frontend.errors import CompileError
from ..frontend.grafting import graft_program
from ..hwsim.core import HwSimulator
from ..machine.description import machine
from ..machine.hw import PREDICTOR_NAMES, hw_machine
from ..passes import DEFAULT_CLEANUP, PassPipelineConfig
from ..sim.evaluate import evaluate_program
from ..sim.interpreter import Interpreter, InterpreterError

__all__ = ["OracleConfig", "Divergence", "ConformanceReport",
           "check_source", "make_divergence_predicate"]

#: SpD knob grid: the paper's defaults, a tight budget (small
#: MaxExpansion, high MinGain) and the profile-weighted ablation.
_SPD_GRID: Tuple[SpDConfig, ...] = (
    SpDConfig(),
    SpDConfig(max_expansion=1.25, min_gain=2.0),
    SpDConfig(alias_probability_weighting=True),
)

#: Every cleanup-pass sequence the oracle runs: none (the paper's
#: toolchain), each cleanup alone, and the full default pipeline.
_CLEANUP_GRID: Tuple[Tuple[str, ...], ...] = (
    (),
    ("constfold",),
    ("copyprop",),
    ("dce",),
    DEFAULT_CLEANUP,
)

#: Cleanup grid for the grafted variant (kept small: the plain variant
#: already sweeps every sequence).
_GRAFTED_CLEANUP_GRID: Tuple[Tuple[str, ...], ...] = ((), DEFAULT_CLEANUP)

#: The hardware simulator as a differential backend: the base program
#: runs under each of these predictors, plus the SPEC view under the
#: last one, all against the reference interpreter.  Every predictor
#: except the oracle (which runs separately as the unbounded
#: lower-bound machine).
_HW_PREDICTORS: Tuple[str, ...] = tuple(
    name for name in PREDICTOR_NAMES if name != "oracle")

#: Deliberately tight hardware shape — 2 units, 8-entry window — so the
#: window/retirement logic is exercised, not just bypassing.
_HW_NUM_FUS = 2
_HW_WINDOW = 8

#: Step limit of every run the oracle makes.
_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class OracleConfig:
    """What one conformance check sweeps over."""

    memory_latency: int = 2
    finite_fus: Tuple[int, ...] = (1, 2, 4, 8)
    cleanup_sequences: Tuple[Tuple[str, ...], ...] = _CLEANUP_GRID
    #: the finite-machine schedule sweep runs only for these cleanup
    #: sequences (cost control; the infinite-machine invariant and the
    #: semantic re-execution still cover *every* sequence)
    sweep_sequences: Tuple[Tuple[str, ...], ...] = ((), DEFAULT_CLEANUP)
    #: also check the grafted (tail-duplicated) compilation — grafting
    #: is what puts guarded stores and ambiguous loads into one tree
    check_grafted: bool = True
    #: execution engines every semantic comparison runs under
    #: (``None`` = every registered engine, see
    #: :func:`repro.engines.register_engine`).  The first listed
    #: engine is the primary; others are labelled ``stage@engine``.
    engines: Optional[Tuple[str, ...]] = None


@dataclass
class Divergence:
    """One observed conformance violation."""

    stage: str   #: view label, e.g. ``spec[max_expansion=1.25]+dce``
    kind: str    #: ``output`` | ``memory`` | ``return`` | ``invariant`` | ``crash``
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"stage": self.stage, "kind": self.kind,
                "detail": self.detail}


@dataclass
class ConformanceReport:
    """Outcome of one differential check."""

    divergences: List[Divergence] = field(default_factory=list)
    views_checked: int = 0
    executions: int = 0
    timings_checked: int = 0
    #: reference-run failure message (generator bug, not a divergence)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.divergences and self.error is None

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok,
                "views_checked": self.views_checked,
                "executions": self.executions,
                "timings_checked": self.timings_checked,
                "error": self.error,
                "divergences": [d.to_dict() for d in self.divergences]}


def _values_equal(mine, theirs) -> bool:
    if isinstance(mine, float) or isinstance(theirs, float):
        return math.isclose(mine, theirs, rel_tol=1e-9, abs_tol=1e-12)
    return mine == theirs


def _per_address(trace: List[Tuple[int, object]]) -> Dict[int, List[object]]:
    """Committed stores grouped by address, in commit order.

    Per-address sequences are the sound memory-trace comparison: SpD's
    guarded dual versions may legally reorder committed stores to
    *different* addresses, but same-address stores carry true
    dependences and must commit in the original order with the
    original values.
    """
    grouped: Dict[int, List[object]] = {}
    for addr, value in trace:
        grouped.setdefault(addr, []).append(value)
    return grouped


def _view_label(kind: Disambiguator, spd: SpDConfig,
                cleanup: Tuple[str, ...]) -> str:
    label = kind.value
    if kind is Disambiguator.SPEC and spd != SpDConfig():
        knobs = []
        if spd.max_expansion != SpDConfig.max_expansion:
            knobs.append(f"max_expansion={spd.max_expansion}")
        if spd.min_gain != SpDConfig.min_gain:
            knobs.append(f"min_gain={spd.min_gain}")
        if spd.alias_probability_weighting:
            knobs.append("profiled_alias")
        label += f"[{','.join(knobs)}]"
    if cleanup:
        label += "+" + ",".join(cleanup)
    return label


def _compare_execution(report: ConformanceReport, label: str,
                       reference, ref_interp: Interpreter,
                       view_program, max_steps: int,
                       collect_profile: bool = False,
                       engines: Optional[Tuple[str, ...]] = None
                       ) -> Optional[Tuple[object, Interpreter]]:
    """Re-execute a transformed view under every configured execution
    engine and diff each run against the reference.

    Returns the first engine's (result, executor) pair when its
    execution succeeded so callers can reuse the run (the grafted
    variant needs its profile), ``None`` if it crashed.  Runs beyond
    the first are labelled ``stage@engine`` (the bare ``interp`` run
    keeps the historical plain label).
    """
    names = engine_names() if engines is None else engines
    primary: Optional[Tuple[object, Interpreter]] = None
    for index, engine in enumerate(names):
        exec_label = label if engine == "interp" else f"{label}@{engine}"
        try:
            executor = get_engine(engine).executor(
                view_program, max_steps=max_steps,
                collect_profile=collect_profile, trace_stores=True)
            result = executor.run()
        except InterpreterError as exc:
            report.divergences.append(Divergence(
                exec_label, "crash", f"transformed program failed: {exc}"))
            continue
        report.executions += 1
        _diff_results(report, exec_label, reference, ref_interp, result,
                      executor)
        if index == 0:
            primary = (result, executor)
    return primary


def _diff_results(report: ConformanceReport, label: str,
                  reference, ref_interp: Interpreter,
                  result, interp: Interpreter) -> None:
    if not reference.output_equal(result):
        report.divergences.append(Divergence(
            label, "output",
            f"output differs: reference {reference.output[:8]!r}... "
            f"vs {result.output[:8]!r}..."))
    ref_ret, got_ret = reference.return_value, result.return_value
    if (ref_ret is None) != (got_ret is None) or (
            ref_ret is not None and not _values_equal(ref_ret, got_ret)):
        report.divergences.append(Divergence(
            label, "return",
            f"return value differs: {ref_ret!r} vs {got_ret!r}"))
    ref_mem, got_mem = ref_interp.memory, interp.memory
    if len(ref_mem) != len(got_mem) or any(
            not _values_equal(a, b) for a, b in zip(ref_mem, got_mem)):
        bad = [i for i, (a, b) in enumerate(zip(ref_mem, got_mem))
               if not _values_equal(a, b)][:5]
        report.divergences.append(Divergence(
            label, "memory", f"final memory differs at addresses {bad}"))
    ref_stores = _per_address(ref_interp.store_trace)
    got_stores = _per_address(interp.store_trace)
    if set(ref_stores) != set(got_stores):
        only_ref = sorted(set(ref_stores) - set(got_stores))[:5]
        only_got = sorted(set(got_stores) - set(ref_stores))[:5]
        report.divergences.append(Divergence(
            label, "memory",
            f"store trace touches different addresses "
            f"(only reference: {only_ref}, only view: {only_got})"))
    else:
        for addr in ref_stores:
            mine, theirs = ref_stores[addr], got_stores[addr]
            if len(mine) != len(theirs) or any(
                    not _values_equal(a, b)
                    for a, b in zip(mine, theirs)):
                report.divergences.append(Divergence(
                    label, "memory",
                    f"store sequence to address {addr} differs: "
                    f"{mine[:6]!r} vs {theirs[:6]!r}"))
                break


def check_source(source: str,
                 config: OracleConfig = OracleConfig()) -> ConformanceReport:
    """Differentially check one tinyc program across the pipeline."""
    report = ConformanceReport()
    with obs.span("fuzz.check"):
        try:
            program = compile_source(source)
            ref_interp = Interpreter(program, max_steps=_MAX_STEPS,
                                     collect_profile=True,
                                     trace_stores=True)
            reference = ref_interp.run()
        except (CompileError, InterpreterError, RecursionError) as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            return report
        except Exception as exc:  # pragma: no cover - frontend bug guard
            # The reducer feeds arbitrary mutilated programs through this
            # path; a non-CompileError crash is a frontend robustness bug
            # but must not abort the campaign (see satellite tests in
            # tests/fuzz/test_frontend_errors.py).
            report.error = f"frontend crash {type(exc).__name__}: {exc}"
            return report

        engines = (engine_names() if config.engines is None
                   else config.engines)
        # the untransformed program under every non-reference engine:
        # an engine miscompile diverges here even when every view is
        # semantically clean
        other_engines = tuple(e for e in engines if e != "interp")
        if other_engines:
            _compare_execution(report, "base", reference, ref_interp,
                               program, _MAX_STEPS,
                               engines=other_engines)

        variants = [("", program, reference, ref_interp,
                     config.cleanup_sequences)]
        if config.check_grafted:
            try:
                grafted, _stats = graft_program(program)
            except Exception as exc:
                report.divergences.append(Divergence(
                    "graft", "crash",
                    f"graft_program failed: {type(exc).__name__}: {exc}"))
            else:
                # grafting itself is a transform under test: diff its
                # execution against the plain reference, then sweep its
                # views against its own profile (tree names differ)
                executed = _compare_execution(
                    report, "graft", reference, ref_interp, grafted,
                    _MAX_STEPS, collect_profile=True,
                    engines=engines)
                if executed is not None:
                    graft_ref, graft_interp = executed
                    variants.append(("graft:", grafted, graft_ref,
                                     graft_interp,
                                     _GRAFTED_CLEANUP_GRID))

        for (prefix, variant_program, variant_ref, variant_interp,
             cleanup_grid) in variants:
            _check_views(report, config, prefix, variant_program,
                         variant_ref, variant_interp, cleanup_grid,
                         engines)
        _check_hardware(report, config, program, reference, ref_interp)
        if report.divergences:
            obs.incr("fuzz.divergences", len(report.divergences))
    return report


def _check_views(report: ConformanceReport, config: OracleConfig,
                 prefix: str, program, reference,
                 ref_interp: Interpreter,
                 cleanup_grid: Tuple[Tuple[str, ...], ...],
                 engines: Tuple[str, ...]) -> None:
    """Sweep one compiled variant through every disambiguated view."""
    profile = reference.profile
    infinite = machine(None, config.memory_latency)
    naive_infinite_cycles: Optional[int] = None

    for kind in Disambiguator:
        spd_grid = (_SPD_GRID
                    if kind is Disambiguator.SPEC else (SpDConfig(),))
        for spd_cfg in spd_grid:
            for cleanup in cleanup_grid:
                label = prefix + _view_label(kind, spd_cfg, cleanup)
                try:
                    view = disambiguate(
                        program, kind, profile=profile,
                        machine=infinite, spd_config=spd_cfg,
                        passes=PassPipelineConfig(cleanup=cleanup))
                except Exception as exc:  # any crash is a finding
                    report.divergences.append(Divergence(
                        label, "crash",
                        f"disambiguate failed: "
                        f"{type(exc).__name__}: {exc}"))
                    continue
                report.views_checked += 1
                obs.incr("fuzz.views_checked")

                # semantic conformance: pass-free views alias the
                # reference program object, nothing to re-run
                if view.program is not program:
                    _compare_execution(report, label, reference,
                                       ref_interp, view.program,
                                       _MAX_STEPS, engines=engines)

                # metamorphic timing invariants
                try:
                    inf_timing = evaluate_program(
                        view.program, view.graphs, infinite, profile)
                except Exception as exc:
                    report.divergences.append(Divergence(
                        label, "crash",
                        f"infinite-machine timing failed: "
                        f"{type(exc).__name__}: {exc}"))
                    continue
                report.timings_checked += 1
                if (kind is Disambiguator.NAIVE and not cleanup
                        and naive_infinite_cycles is None):
                    naive_infinite_cycles = inf_timing.cycles
                if (naive_infinite_cycles is not None
                        and inf_timing.cycles > naive_infinite_cycles):
                    report.divergences.append(Divergence(
                        label, "invariant",
                        f"slower than NAIVE on the infinite machine: "
                        f"{inf_timing.cycles} > "
                        f"{naive_infinite_cycles} cycles"))

                if cleanup not in config.sweep_sequences:
                    continue
                if (kind is not Disambiguator.SPEC
                        and spd_cfg != SpDConfig()):
                    continue
                for fus in config.finite_fus:
                    mach = machine(fus, config.memory_latency)
                    try:
                        timing = evaluate_program(
                            view.program, view.graphs, mach, profile)
                    except Exception as exc:
                        report.divergences.append(Divergence(
                            label, "crash",
                            f"schedule on {mach.name} failed: "
                            f"{type(exc).__name__}: {exc}"))
                        break
                    report.timings_checked += 1
                    if timing.cycles < inf_timing.cycles:
                        report.divergences.append(Divergence(
                            label, "invariant",
                            f"{mach.name} schedule beats the "
                            f"infinite-machine lower bound: "
                            f"{timing.cycles} < {inf_timing.cycles}"))


def _run_hw(report: ConformanceReport, label: str, program, graphs, mach,
            reference, ref_interp: Interpreter, max_steps: int):
    """Execute one program, timed from its dependence *graphs*, on one
    hardware machine and diff it against the reference interpreter;
    ``None`` on a crash divergence, which is all a timing that
    mis-orders memory can be: the simulator raises once the tree has
    run and leaves no result to diff.  The reference profile's tree
    counts decide which functions compile on entry, as in
    ``Pipeline.hw_timing``."""
    try:
        sim = HwSimulator(program.copy(), mach, graphs, max_steps=max_steps,
                          trace_stores=True,
                          tree_counts=reference.profile.tree_counts)
        result = sim.run()
    except Exception as exc:  # engine crash / non-convergence = finding
        report.divergences.append(Divergence(
            label, "crash",
            f"hardware simulation failed: {type(exc).__name__}: {exc}"))
        return None
    report.executions += 1
    _diff_results(report, label, reference, ref_interp, result, sim)
    return result


def _check_hardware(report: ConformanceReport, config: OracleConfig,
                    program, reference, ref_interp: Interpreter) -> None:
    """The hardware simulator as an independent differential backend."""
    # the raw program's graphs: every predictor times the same trees
    try:
        graphs = disambiguate(program, Disambiguator.NAIVE).graphs
    except Exception:
        return  # already reported by the view sweep
    lower_bound = _run_hw(report, "hw[oracle-infinite]", program, graphs,
                          hw_machine(None, config.memory_latency,
                                     "oracle", window=None),
                          reference, ref_interp, _MAX_STEPS)
    for predictor in _HW_PREDICTORS:
        mach = hw_machine(_HW_NUM_FUS, config.memory_latency,
                          predictor, window=_HW_WINDOW)
        label = f"hw[{predictor}]"
        result = _run_hw(report, label, program, graphs, mach, reference,
                         ref_interp, _MAX_STEPS)
        if result is None:
            continue
        report.timings_checked += 1
        if lower_bound is not None and result.cycles < lower_bound.cycles:
            report.divergences.append(Divergence(
                label, "invariant",
                f"finite hardware beats the unbounded oracle machine: "
                f"{result.cycles} < {lower_bound.cycles} cycles"))
        if predictor == "never" and result.timing.stats["squashes"]:
            report.divergences.append(Divergence(
                label, "invariant",
                f"never-speculate predictor squashed "
                f"{result.timing.stats['squashes']} loads"))

    # the SPEC view through the hardware as well: SpD's guarded dual
    # code is where speculative loads and recovery guards are densest
    try:
        view = disambiguate(program, Disambiguator.SPEC,
                            profile=reference.profile,
                            machine=machine(None, config.memory_latency),
                            spd_config=SpDConfig(),
                            passes=PassPipelineConfig())
    except Exception:
        return  # already reported by the view sweep
    predictor = _HW_PREDICTORS[-1]
    _run_hw(report, f"spec+hw[{predictor}]", view.program, view.graphs,
            hw_machine(_HW_NUM_FUS, config.memory_latency, predictor,
                       window=_HW_WINDOW),
            reference, ref_interp, _MAX_STEPS)


def make_divergence_predicate(
        config: OracleConfig = OracleConfig()) -> Callable[[str], bool]:
    """An interestingness test for the reducer.

    True iff the candidate still compiles, its reference run still
    succeeds, and the pipeline still diverges on it.  Candidates that
    fail to compile or whose reference run faults are *not*
    interesting (they left tinyc, they did not expose a pipeline bug).
    """
    def predicate(source: str) -> bool:
        report = check_source(source, config)
        return report.error is None and bool(report.divergences)
    return predicate
