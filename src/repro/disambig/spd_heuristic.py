"""The SpD guidance heuristic (paper Figure 5-1).

For a given decision tree, iteratively apply speculative disambiguation
to the ambiguous alias whose removal yields the largest predicted
performance gain, until either the code-expansion budget
(``MaxExpansion``) is exhausted or no candidate gains at least
``MinGain``::

    SpecDisambig(T, MaxExpansion, MinGain):
        MaxSize <- TreeSize(T) * MaxExpansion
        S <- CriticalAlias(T)
        while TreeSize(T) < MaxSize and |S| > 0:
            A <- argmax over S of Gain
            if Gain(A) < MinGain: break
            T <- ApplySpD(T, A)
            S <- CriticalAlias(T)

``Gain(A)`` is the difference in the tree's *average* execution time —
path times weighted by profiled path probabilities — before and after
removing the ambiguous dependence arc, evaluated on the infinite
machine, exactly like the paper's platform.  As the paper notes, the
realised gain can be slightly lower because the address comparison may
itself land on the critical path.

The paper has no way to profile alias probabilities and assumes 0.1 for
every alias; we reproduce that default.  ``alias_probability_weighting``
(off by default) is the Section-7 extension explored by the ablation
bench: it scales each candidate's gain by the profiled probability that
the no-alias (fast) outcome occurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..ir.depgraph import (AliasOracle, Arc, ArcKind, DependenceGraph,
                           build_dependence_graph)
from ..ir.tree import DecisionTree
from ..machine.description import LifeMachine
from ..sim.profile import PairStats
from ..sim.timing import (average_time, infinite_machine_timing,
                          release_timing)
from .spd_transform import SpDApplication, SpDNotApplicable, apply_spd

__all__ = ["SpDConfig", "SpDTreeResult", "speculative_disambiguation"]

#: The paper's assumed alias probability (Section 5.3).
DEFAULT_ALIAS_PROBABILITY = 0.1


@dataclass(frozen=True)
class SpDConfig:
    """Tunables of the guidance heuristic."""

    max_expansion: float = 2.0    #: MaxExpansion: code-size growth bound
    min_gain: float = 0.5         #: MinGain: cycles of predicted gain required
    assumed_alias_probability: float = DEFAULT_ALIAS_PROBABILITY
    alias_probability_weighting: bool = False  #: ablation: profile-driven gain
    max_applications: int = 64    #: hard per-tree iteration bound
    #: how much worse than the best-seen tree time an application may
    #: leave the tree and still be explored further (a later application
    #: may resolve the fresh arcs it introduced); anything worse is
    #: rolled back immediately and the alias blacklisted
    exploration_slack: float = 0.05

    def __post_init__(self) -> None:
        if self.max_expansion < 1.0:
            raise ValueError("max_expansion must be >= 1.0")
        if self.min_gain < 0.0:
            raise ValueError("min_gain must be >= 0")
        if not 0.0 <= self.assumed_alias_probability <= 1.0:
            raise ValueError("alias probability must be in [0, 1]")
        if self.exploration_slack < 0.0:
            raise ValueError("exploration_slack must be >= 0")


@dataclass
class SpDTreeResult:
    """Outcome of running the heuristic on one tree."""

    applications: List[SpDApplication] = field(default_factory=list)
    ops_added: int = 0
    predicted_gain: float = 0.0

    def count_by_kind(self) -> Dict[ArcKind, int]:
        counts = {ArcKind.MEM_RAW: 0, ArcKind.MEM_WAR: 0, ArcKind.MEM_WAW: 0}
        for app in self.applications:
            counts[app.kind] += 1
        return counts


def _candidate_gains(
    graph: DependenceGraph,
    machine: LifeMachine,
    path_probs: List[float],
) -> List[Tuple[float, Arc]]:
    """Gain() for every ambiguous arc; positive gains only.

    CriticalAlias(T) falls out for free: an arc not on any critical
    path has zero gain and is dropped from the candidate set.

    Refinement over the paper's per-arc Gain(): when several ambiguous
    arcs *fan into the same operation* (three coefficient stores ahead
    of one grid load, say), removing any single arc gains nothing — the
    siblings still serialise the load — and a strictly per-arc Gain()
    deadlocks at zero.  SpD must be applied to such fans one pair at a
    time anyway (Section 7 discusses exactly this 2^n growth), so each
    arc is also credited an equal share of its fan's joint removal gain,
    which lets the heuristic start working through the fan.
    """
    base = average_time(
        infinite_machine_timing(graph, machine).path_times, path_probs)
    ambiguous = graph.ambiguous_arcs()
    obs.incr("spd.gain_evaluations", len(ambiguous))
    fans: Dict[int, List[Arc]] = {}
    for arc in ambiguous:
        fans.setdefault(arc.dst, []).append(arc)

    fan_share: Dict[int, float] = {}
    for dst, arcs in fans.items():
        if len(arcs) < 2:
            continue
        relaxed = infinite_machine_timing(
            graph, machine, ignore_keys=frozenset(a.key for a in arcs))
        joint = base - average_time(relaxed.path_times, path_probs)
        fan_share[dst] = joint / len(arcs)

    gains: List[Tuple[float, Arc]] = []
    for arc in ambiguous:
        relaxed = infinite_machine_timing(
            graph, machine, ignore_keys=frozenset({arc.key}))
        gain = base - average_time(relaxed.path_times, path_probs)
        gain = max(gain, fan_share.get(arc.dst, 0.0))
        if gain > 0:
            gains.append((gain, arc))
    return gains


def speculative_disambiguation(
    tree: DecisionTree,
    oracle: AliasOracle,
    machine: LifeMachine,
    path_probabilities: Optional[List[float]] = None,
    config: SpDConfig = SpDConfig(),
    pair_stats: Optional[Callable[[Tuple[int, int]], PairStats]] = None,
) -> Tuple[SpDTreeResult, DependenceGraph]:
    """Run the Figure 5-1 heuristic on one tree, mutating it in place.

    ``oracle`` is the static disambiguator already in effect (SPEC =
    STATIC followed by SpD).  ``path_probabilities`` come from the
    profiling run; uniform when absent.  ``pair_stats`` (op-id pair ->
    dynamic stats) feeds the optional alias-probability weighting.

    Returns the outcome and the final tree's dependence graph under
    *oracle*.  The graph is carried with the tree state: built once at
    the start and once after each application, and kept with the best
    state and the rollback copy, so no tree state's graph is built
    twice.  It is built on *tree* itself (``graph.tree is tree``) and
    equals a fresh ``build_dependence_graph(tree, oracle)``.
    """
    result = SpDTreeResult()
    if path_probabilities is None:
        count = max(len(tree.exits), 1)
        path_probabilities = [1.0 / count] * count
    base_size = tree.size()
    max_size = int(base_size * config.max_expansion)
    rejected: set = set()

    def measured_average(graph: DependenceGraph) -> float:
        timing = infinite_machine_timing(graph, machine)
        return average_time(timing.path_times, path_probabilities)

    # Gain() predicts the effect of *removing the arc*; the applied
    # transform also pays for the compare, the guard conjunctions, and
    # fresh ambiguous arcs against the replicated stores — and those
    # fresh arcs may themselves be resolved by a later application.  So
    # the loop explores forward greedily and keeps the *best* tree state
    # observed; the paper's promise that SpD never slows a sufficiently
    # wide machine is enforced by restoring that best state at the end.
    applications: List[SpDApplication] = []
    gains_taken: List[float] = []
    graph = build_dependence_graph(tree, oracle)
    best_time = measured_average(graph)
    best_state = (tree.copy(), 0, graph)

    while (tree.size() < max_size
           and len(applications) < config.max_applications):
        gains = _candidate_gains(graph, machine, path_probabilities)
        gains = [(g, a) for g, a in gains if a.key not in rejected]
        if pair_stats is not None and config.alias_probability_weighting:
            reweighted = []
            for gain, arc in gains:
                stats = pair_stats(arc.key)
                no_alias_prob = (1.0 - stats.alias_probability
                                 if stats.executed
                                 else 1.0 - config.assumed_alias_probability)
                reweighted.append((gain * no_alias_prob, arc))
            gains = reweighted
        if not gains:
            break
        # equal predicted gain: prefer the cheaper transform (paper
        # Sections 4.3-4.5: WAW costs one compare, RAW costs 1+n_L,
        # WAR costs 2+n_L and is "generally not selected")
        kind_cost = {ArcKind.MEM_WAW: 0, ArcKind.MEM_RAW: 1,
                     ArcKind.MEM_WAR: 2}
        gains.sort(key=lambda item: (-item[0], kind_cost[item[1].kind],
                                     item[1].key))
        gain, arc = gains[0]
        if gain < config.min_gain:
            break
        previous, previous_graph = tree.copy(), graph
        ops_before = tree.ops
        try:
            application = apply_spd(tree, arc)
        except SpDNotApplicable:
            rejected.add(arc.key)
            obs.incr("spd.not_applicable")
            if tree.ops is not ops_before:
                # the transform hoisted an address chain before it
                # refused, so the tree (and its graph) changed anyway
                graph = build_dependence_graph(tree, oracle)
            continue
        obs.incr("spd.applications_attempted")
        applications.append(application)
        gains_taken.append(gain)
        graph = build_dependence_graph(tree, oracle)
        current = measured_average(graph)
        if current < best_time:
            best_time = current
            best_state = (tree.copy(), len(applications), graph)
        elif current > best_time * (1.0 + config.exploration_slack):
            # clearly regressive: undo and blacklist, keeping the
            # pristine state available for the remaining candidates
            tree.ops = previous.ops
            tree.exits = previous.exits
            tree.spd_resolved = previous.spd_resolved
            graph = previous_graph
            applications.pop()
            gains_taken.pop()
            rejected.add(arc.key)
            obs.incr("spd.rollbacks")

    best_tree, kept, graph = best_state
    tree.ops = best_tree.ops
    tree.exits = best_tree.exits
    tree.spd_resolved = best_tree.spd_resolved
    result.applications = applications[:kept]
    result.ops_added = tree.size() - base_size
    result.predicted_gain = sum(gains_taken[:kept])
    release_timing(graph)
    return result, graph
