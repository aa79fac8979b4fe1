"""The four disambiguators of the paper's evaluation (Table 6-4).

=========  =============================================================
NAIVE      no disambiguation: every store-involved pair keeps an
           ambiguous arc
STATIC     region analysis + GCD test + Banerjee inequalities
SPEC       STATIC followed by speculative disambiguation (the paper's
           contribution)
PERFECT    profile-driven removal of every superfluous arc — the
           optimistic upper bound on static disambiguation
=========  =============================================================

A pipeline takes the compiled program plus the profile collected by one
NAIVE-semantics run, and produces a :class:`DisambiguationResult`: the
(possibly transformed) program, one dependence graph per tree, and SpD
statistics.  Everything downstream (timing, experiments) consumes that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..ir.depgraph import ArcKind, DependenceGraph, build_dependence_graph, naive_oracle
from ..ir.program import Program
from ..machine.description import INFINITE, LifeMachine
from ..passes import (SPD_PASS, Pass, PassContext, PassManager,
                      PassPipelineConfig, PassResult, build_cleanup_passes)
from ..passes.manager import DumpSink
from ..sim.profile import ProfileData, TreeKey
from .oracles import make_perfect_oracle, make_static_oracle
from .spd_heuristic import SpDConfig, SpDTreeResult, speculative_disambiguation

__all__ = ["Disambiguator", "DisambiguationResult", "SpDPass", "disambiguate"]


class Disambiguator(enum.Enum):
    """The four disambiguators of the paper's Table 6-4."""
    NAIVE = "naive"
    STATIC = "static"
    SPEC = "spec"
    PERFECT = "perfect"


@dataclass
class DisambiguationResult:
    """One disambiguated view of a program."""

    kind: Disambiguator
    program: Program
    graphs: Dict[TreeKey, DependenceGraph] = field(default_factory=dict)
    spd_results: Dict[TreeKey, SpDTreeResult] = field(default_factory=dict)
    #: per-pass op-delta reports from the view's pass manager (JSON-ready)
    pass_stats: List[Dict[str, object]] = field(default_factory=list)

    def code_size(self) -> int:
        """Program size in operations (paper's Figure 6-4 metric)."""
        return self.program.size()

    def spd_counts(self) -> Dict[ArcKind, int]:
        """Total SpD applications by dependence type (Table 6-3 row)."""
        totals = {ArcKind.MEM_RAW: 0, ArcKind.MEM_WAR: 0, ArcKind.MEM_WAW: 0}
        for result in self.spd_results.values():
            for kind, count in result.count_by_kind().items():
                totals[kind] += count
        return totals

    def ambiguous_arc_count(self) -> int:
        return sum(len(g.ambiguous_arcs()) for g in self.graphs.values())


def _oracle_for(kind: Disambiguator, function_name: str, tree,
                profile: Optional[ProfileData]):
    if kind is Disambiguator.NAIVE:
        return naive_oracle
    if kind is Disambiguator.STATIC or kind is Disambiguator.SPEC:
        return make_static_oracle(tree)
    if kind is Disambiguator.PERFECT:
        if profile is None:
            raise ValueError("PERFECT requires a profile")
        return make_perfect_oracle(function_name, tree, profile)
    raise ValueError(f"unknown disambiguator {kind}")


class SpDPass(Pass):
    """The paper's speculative-disambiguation transform as a pass.

    Mutates the program in place (the caller is expected to pass a
    copy, which :func:`disambiguate` does), recording per-tree outcomes
    in ``ctx.spd_results`` and the final dependence graph of every tree
    it visited in ``ctx.graphs``.  Reads the profile, Gain() machine and
    heuristic knobs from the pass context.
    """

    name = SPD_PASS
    description = "apply speculative disambiguation to profitable trees"

    def run(self, program: Program, ctx: PassContext) -> PassResult:
        profile = ctx.profile
        machine = ctx.machine if ctx.machine is not None else INFINITE
        spd_config = (ctx.spd_config if ctx.spd_config is not None
                      else SpDConfig())
        applications = 0
        with obs.span("disambig.spd_transform") as spd_span:
            gain_machine = machine.with_fus(None)  # Gain(): infinite machine
            for function_name, tree in program.all_trees():
                key = (function_name, tree.name)
                oracle = make_static_oracle(tree)
                path_probs = None
                stats_fn = None
                if profile is not None:
                    if profile.executed(key) == 0:
                        continue  # never-executed trees: no profit, skip
                    path_probs = profile.path_probabilities(
                        key, len(tree.exits))

                    def stats_fn(pair, _key=key):
                        return profile.pair(
                            (_key[0], _key[1], pair[0], pair[1]))

                spd_result, ctx.graphs[key] = speculative_disambiguation(
                    tree, oracle, gain_machine, path_probs, spd_config,
                    stats_fn)
                if spd_result.applications:
                    ctx.spd_results[key] = spd_result
                    obs.incr("spd.trees_transformed")
                    obs.incr("spd.ops_added", spd_result.ops_added)
            applications = sum(
                len(r.applications) for r in ctx.spd_results.values())
            spd_span.incr("spd.applications", applications)
        return PassResult(
            program,
            changed=bool(ctx.spd_results),
            stats={"applications": applications,
                   "trees_transformed": len(ctx.spd_results)},
        )


def disambiguate(
    program: Program,
    kind: Disambiguator,
    profile: Optional[ProfileData] = None,
    machine: LifeMachine = INFINITE,
    spd_config: SpDConfig = SpDConfig(),
    passes: Optional[PassPipelineConfig] = None,
    dump_sink: Optional[DumpSink] = None,
) -> DisambiguationResult:
    """Produce the *kind* view of *program*.

    The view's pass list is SPEC's ``spd`` pass (for SPEC only)
    followed by the cleanup passes named in *passes* (default: none).
    Whenever that list is non-empty the view transforms a private copy;
    a pass-free view (NAIVE/STATIC/PERFECT with no cleanups) returns
    the *input program object itself* — deliberate aliasing so the
    untransformed views share one program, safe precisely because no
    pass ever runs on them.

    The ``machine`` parameter matters only to SPEC, whose Gain()
    estimates depend on the latency table (this is why Table 6-3
    reports different application counts for 2- and 6-cycle memory).

    Each tree's dependence graph is built here under the view's oracle,
    except for the trees whose graph the passes left in
    ``PassContext.graphs``: SPEC's ``spd`` pass leaves the final graph
    of every tree it visited, and a later cleanup that changes the
    program drops them.  A graph built on another tree object is
    rebuilt.
    """
    config = passes if passes is not None else PassPipelineConfig()
    pass_list: List[Pass] = []
    if kind is Disambiguator.SPEC:
        pass_list.append(SpDPass())
    pass_list.extend(build_cleanup_passes(config.cleanup))

    working = program.copy() if pass_list else program
    result = DisambiguationResult(kind=kind, program=working)
    carried: Dict[TreeKey, DependenceGraph] = {}

    with obs.span(f"disambig.{kind.value}") as pipeline_span:
        if pass_list:
            manager = PassManager(pass_list, dump_after=config.dump_after,
                                  dump_sink=dump_sink)
            ctx = PassContext(profile=profile, machine=machine,
                              spd_config=spd_config)
            working = manager.run(working, ctx)
            result.program = working
            result.spd_results = ctx.spd_results
            result.pass_stats = manager.reports
            carried = ctx.graphs

        with obs.span("disambig.build_graphs") as graphs_span:
            reused = 0
            for function_name, tree in working.all_trees():
                key = (function_name, tree.name)
                graph = carried.get(key)
                if graph is not None and graph.tree is tree:
                    reused += 1
                else:
                    oracle = _oracle_for(kind, function_name, tree, profile)
                    graph = build_dependence_graph(tree, oracle)
                result.graphs[key] = graph
            graphs_span.incr("trees", len(result.graphs))
            graphs_span.incr("reused", reused)
        if obs.is_enabled():
            pipeline_span.annotate(
                ambiguous_arcs=result.ambiguous_arc_count())
    return result
