"""Ablation studies on the SpD guidance heuristic (Section 5.3 knobs).

Ablation A — MaxExpansion / MinGain sensitivity: the paper names both
parameters but publishes no values; sweep them and report realised
speedup vs code growth so the trade-off the paper describes ("poor
cost/benefit ratio can be improved by making better use of profile
information") is measurable.

Ablation B — alias-probability weighting: the paper assumes alias
probability 0.1 because its platform cannot profile it (Section 5.3),
and suggests profile-driven probabilities as future work (Section 7).
Our functional simulator *does* measure them, so compare Gain() with
and without profiled-probability weighting.

Each study runs its variants on pipelines derived from the one it is
given: a variant overrides only the knob under study and inherits the
store, engine, cleanup passes and the other heuristic knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..bench.suite import NRC_BENCHMARKS, REPORTED, get_benchmark
from ..disambig.pipeline import Disambiguator
from ..frontend.grafting import GraftConfig
from ..machine.description import LifeMachine, machine
from ..pipeline.core import Pipeline
from ..pipeline.executor import CompileJob, TimingJob, ViewJob
from .report import format_percent, format_table, round6

__all__ = ["KnobPoint", "KnobSweep", "AliasProbStudy", "GraftingStudy",
           "CombinedStudy", "run_knob_sweep",
           "run_alias_probability_study", "run_grafting_study",
           "run_combined_study"]


@dataclass(frozen=True)
class KnobPoint:
    max_expansion: float
    min_gain: float
    speedup_over_static: float   #: mean over the studied benchmarks
    code_growth: float           #: mean fractional growth
    applications: int


@dataclass
class KnobSweep:
    num_fus: int
    memory_latency: int
    points: List[KnobPoint] = field(default_factory=list)

    def render(self) -> str:
        rows = [(f"ME={p.max_expansion:g} MG={p.min_gain:g}",
                 format_percent(p.speedup_over_static),
                 format_percent(p.code_growth), p.applications)
                for p in self.points]
        return format_table(
            f"Ablation A: heuristic knobs ({self.num_fus} FU, "
            f"{self.memory_latency}-cycle memory)",
            ["Config", "SPEC/STATIC", "Code growth", "Apps"], rows)

    def to_dict(self) -> dict:
        """Structured form: one record per (MaxExpansion, MinGain)."""
        return {
            "title": "Ablation A: heuristic knobs",
            "num_fus": self.num_fus,
            "memory_latency": self.memory_latency,
            "points": [
                {"max_expansion": p.max_expansion, "min_gain": p.min_gain,
                 "speedup_over_static": round6(p.speedup_over_static),
                 "code_growth": round6(p.code_growth),
                 "applications": p.applications}
                for p in self.points
            ],
        }


def _variant(pipeline: Pipeline, **overrides) -> Pipeline:
    """A pipeline over *pipeline*'s store and toolchain with the
    ``spd_config`` and/or ``graft`` in *overrides* replaced."""
    knobs = dict(spd_config=pipeline.spd_config, graft=pipeline.graft,
                 store=pipeline.store, passes=pipeline.passes,
                 guard_words=pipeline.guard_words, engine=pipeline.engine)
    knobs.update(overrides)
    return Pipeline(**knobs)


def _static_spec(pipeline: Pipeline, names: List[str], mach: LifeMachine,
                 jobs: int) -> List[Tuple[float, int, float]]:
    """Per benchmark in *names*: the SPEC/STATIC speedup on *mach*, and
    the SpD applications and fractional code growth of the SPEC view at
    *mach*'s memory latency."""
    sources = [(name, get_benchmark(name).source) for name in names]
    # the timings go first: they compute the SPEC views, so the view
    # jobs behind them are store hits rather than parallel recomputes
    job_list = [TimingJob(name, source, kind, mach)
                for name, source in sources
                for kind in (Disambiguator.STATIC, Disambiguator.SPEC)]
    job_list += [job for name, source in sources
                 for job in (CompileJob(name, source),
                             ViewJob(name, source, Disambiguator.SPEC,
                                     mach.memory_latency))]
    artifacts = iter(pipeline.prefetch(job_list, jobs))
    speedups = [spec.timing.speedup_over(static.timing)
                for _, static, spec in zip(names, artifacts, artifacts)]
    return [(speedup, sum(view.spd_counts().values()),
             view.code_size() / compiled.base_size - 1.0)
            for speedup, compiled, view in zip(speedups, artifacts,
                                               artifacts)]


def run_knob_sweep(pipeline: Optional[Pipeline] = None,
                   names: List[str] = NRC_BENCHMARKS,
                   max_expansions: Tuple[float, ...] = (1.25, 2.0, 4.0),
                   min_gains: Tuple[float, ...] = (0.25, 0.5, 2.0),
                   num_fus: int = 5, memory_latency: int = 6,
                   jobs: int = 1) -> KnobSweep:
    """Sweep MaxExpansion x MinGain; mean speedup/code-growth per point."""
    pipeline = pipeline or Pipeline()
    sweep = KnobSweep(num_fus, memory_latency)
    mach = machine(num_fus, memory_latency)
    for max_expansion in max_expansions:
        for min_gain in min_gains:
            config = replace(pipeline.spd_config,
                             max_expansion=max_expansion, min_gain=min_gain)
            rows = _static_spec(_variant(pipeline, spd_config=config),
                                names, mach, jobs)
            speedups, apps, growths = zip(*rows)
            sweep.points.append(KnobPoint(
                max_expansion, min_gain,
                sum(speedups) / len(speedups),
                sum(growths) / len(growths), sum(apps)))
    return sweep


@dataclass
class AliasProbStudy:
    num_fus: int
    memory_latency: int
    #: benchmark -> (speedup assumed-0.1, speedup profiled)
    results: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        rows = [(name, format_percent(assumed), format_percent(profiled))
                for name, (assumed, profiled) in self.results.items()]
        return format_table(
            f"Ablation B: Gain() alias probability, SPEC/STATIC speedup "
            f"({self.num_fus} FU, {self.memory_latency}-cycle memory)",
            ["Program", "assumed 0.1", "profiled"], rows)

    def to_dict(self) -> dict:
        """Structured form: assumed-0.1 vs profiled speedups."""
        return {
            "title": "Ablation B: Gain() alias probability",
            "num_fus": self.num_fus,
            "memory_latency": self.memory_latency,
            "results": {
                name: {"assumed": round6(assumed),
                       "profiled": round6(profiled)}
                for name, (assumed, profiled) in self.results.items()
            },
        }


def run_alias_probability_study(pipeline: Optional[Pipeline] = None,
                                names: List[str] = NRC_BENCHMARKS,
                                num_fus: int = 5,
                                memory_latency: int = 6,
                                jobs: int = 1) -> AliasProbStudy:
    """Compare Gain() under assumed-0.1 vs profiled alias probabilities."""
    pipeline = pipeline or Pipeline()
    study = AliasProbStudy(num_fus, memory_latency)
    mach = machine(num_fus, memory_latency)

    def speedups(weighting: bool) -> List[float]:
        config = replace(pipeline.spd_config,
                         alias_probability_weighting=weighting)
        return [speedup for speedup, _apps, _growth in _static_spec(
            _variant(pipeline, spd_config=config), names, mach, jobs)]

    for name, assumed, profiled in zip(names, speedups(False),
                                       speedups(True)):
        study.results[name] = (assumed, profiled)
    return study


@dataclass
class GraftingStudy:
    """Ablation C — paper Section 7: does enlarging trees via grafting
    expose more SpD opportunities, especially in the Stanford Integer
    programs whose trees are 'often too small to have pairs of
    ambiguous memory references'?"""

    num_fus: int
    memory_latency: int
    #: benchmark -> (apps base, apps grafted, speedup base, speedup grafted)
    results: Dict[str, Tuple[int, int, float, float]] = field(
        default_factory=dict)

    def total_applications(self, grafted: bool) -> int:
        index = 1 if grafted else 0
        return sum(entry[index] for entry in self.results.values())

    def render(self) -> str:
        rows = [(name, base_apps, graft_apps,
                 format_percent(base_speedup), format_percent(graft_speedup))
                for name, (base_apps, graft_apps, base_speedup,
                           graft_speedup) in self.results.items()]
        return format_table(
            f"Ablation C: grafting (Section 7), SPEC/STATIC speedup "
            f"({self.num_fus} FU, {self.memory_latency}-cycle memory)",
            ["Program", "apps", "apps+graft", "speedup", "speedup+graft"],
            rows)

    def to_dict(self) -> dict:
        """Structured form: SpD applications/speedup with and without
        grafting, per benchmark."""
        return {
            "title": "Ablation C: grafting",
            "num_fus": self.num_fus,
            "memory_latency": self.memory_latency,
            "results": {
                name: {"applications": base_apps,
                       "applications_grafted": graft_apps,
                       "speedup": round6(base_speedup),
                       "speedup_grafted": round6(graft_speedup)}
                for name, (base_apps, graft_apps, base_speedup,
                           graft_speedup) in self.results.items()
            },
        }


def run_grafting_study(pipeline: Optional[Pipeline] = None,
                       names: Optional[List[str]] = None, num_fus: int = 5,
                       memory_latency: int = 6,
                       jobs: int = 1) -> GraftingStudy:
    """Compare SpD opportunity and benefit with and without grafting."""
    pipeline = pipeline or Pipeline()
    if names is None:
        names = [n for n in REPORTED
                 if n in ("perm", "queen", "quick", "tree",
                          "fft", "moment", "espresso")]
    study = GraftingStudy(num_fus, memory_latency)
    mach = machine(num_fus, memory_latency)
    base = _static_spec(_variant(pipeline, graft=None), names, mach, jobs)
    grafted = _static_spec(_variant(pipeline, graft=GraftConfig()),
                           names, mach, jobs)
    for name, (base_speedup, base_apps, _), (graft_speedup, graft_apps, _) \
            in zip(names, base, grafted):
        study.results[name] = (base_apps, graft_apps,
                               base_speedup, graft_speedup)
    return study


@dataclass
class CombinedStudy:
    """Ablation D — Section 7's combined multi-pair transformation vs
    iterated one-at-a-time SpD on synthetic k-pair kernels."""

    memory_latency: int
    #: k -> (iterated ops, combined ops, iterated time, combined time,
    #:       original time)
    results: Dict[int, Tuple[int, int, int, int, int]] = field(
        default_factory=dict)

    def render(self) -> str:
        rows = []
        for k, (it_ops, co_ops, it_time, co_time, base_time) in \
                sorted(self.results.items()):
            rows.append((f"{k} pairs", it_ops, co_ops,
                         base_time, it_time, co_time))
        return format_table(
            f"Ablation D: iterated vs combined multi-pair SpD "
            f"({self.memory_latency}-cycle memory, infinite machine)",
            ["Kernel", "ops iter", "ops comb",
             "t base", "t iter", "t comb"], rows)

    def to_dict(self) -> dict:
        """Structured form: per pair-count op counts and path times."""
        return {
            "title": "Ablation D: iterated vs combined multi-pair SpD",
            "memory_latency": self.memory_latency,
            "results": {
                str(k): {"ops_iterated": it_ops, "ops_combined": co_ops,
                         "time_base": base_time, "time_iterated": it_time,
                         "time_combined": co_time}
                for k, (it_ops, co_ops, it_time, co_time, base_time)
                in sorted(self.results.items())
            },
        }


def _multi_pair_tree(num_pairs: int):
    """A kernel with *num_pairs* independent ambiguous RAW pairs."""
    from ..ir.builder import TreeBuilder
    from ..ir.operations import Opcode
    from ..ir.program import ArrayDecl, Function, Program

    program = Program()
    program.globals_.append(ArrayDecl("a", "float", (64,)))
    function = Function("main")
    builder = TreeBuilder("t0")
    results = []
    for k in range(num_pairs):
        value = builder.value(Opcode.FADD, [float(k + 1), 0.5])
        store_addr = builder.value(Opcode.ADD, [2 * k, 0])
        builder.store(value, store_addr)
        load_addr = builder.value(Opcode.ADD, [2 * k + 1, 0])
        loaded = builder.load(load_addr, "float")
        results.append(builder.value(Opcode.FMUL, [loaded, 2.0]))
    total = results[0]
    for value in results[1:]:
        total = builder.value(Opcode.FADD, [total, value])
    builder.emit(Opcode.PRINT, [total])
    builder.halt()
    function.add_tree(builder.tree)
    program.add_function(function)
    program.layout_memory()
    return program


def run_combined_study(pair_counts: Tuple[int, ...] = (2, 3, 4),
                       memory_latency: int = 6) -> CombinedStudy:
    """Iterated vs combined multi-pair SpD on synthetic k-pair kernels."""
    from ..disambig.spd_transform import (SpDNotApplicable, apply_spd,
                                          apply_spd_combined)
    from ..ir.depgraph import ArcKind, build_dependence_graph
    from ..sim.timing import infinite_machine_timing

    mach = machine(None, memory_latency)
    study = CombinedStudy(memory_latency)
    for count in pair_counts:
        base = _multi_pair_tree(count)
        base_tree = base.functions["main"].trees["t0"]
        base_time = infinite_machine_timing(
            build_dependence_graph(base_tree), mach).path_times[0]

        iterated = base.copy()
        tree_i = iterated.functions["main"].trees["t0"]
        for _ in range(count):
            graph = build_dependence_graph(tree_i)
            raws = [a for a in graph.ambiguous_arcs()
                    if a.kind is ArcKind.MEM_RAW]
            if not raws:
                break
            try:
                apply_spd(tree_i, raws[0])
            except SpDNotApplicable:
                break
        it_time = infinite_machine_timing(
            build_dependence_graph(tree_i), mach).path_times[0]

        combined = base.copy()
        tree_c = combined.functions["main"].trees["t0"]
        graph = build_dependence_graph(tree_c)
        raws = [a for a in graph.ambiguous_arcs()
                if a.kind is ArcKind.MEM_RAW]
        apply_spd_combined(tree_c, raws)
        co_time = infinite_machine_timing(
            build_dependence_graph(tree_c), mach).path_times[0]

        study.results[count] = (len(tree_i.ops), len(tree_c.ops),
                                it_time, co_time, base_time)
    return study
