"""Infinite-machine timing: the paper's first-stage simulator.

Given a decision tree and its dependence graph, compute the earliest
issue/completion time of every operation on a machine with unbounded
functional units, and from those the per-path (per-exit) execution time
of the tree.  Path time is the completion time of the path's exit
branch; COMMIT arcs ensure every operation that commits on the path has
issued by then, so an exit time is an honest tree-execution time.

Timing rules (shared with the resource-constrained list scheduler):

* data RAW (register or memory store->load): the consumer issues no
  earlier than the producer completes;
* guard RAW (conditional execution, Section 3.2): the consumer may issue
  *before* its guard is ready but completes no earlier than one cycle
  after the guard value is available;
* WAR: the writer issues no earlier than the reader (register: same
  cycle allowed; memory: next cycle);
* memory WAW: the second store issues at least one cycle after the
  first — the memory pipeline completes same-address writes in issue
  order, so ordering issue slots suffices (a non-pipelined memory would
  charge the full store latency here and make consecutive ambiguous
  stores catastrophically serial, which Table 6-1's machine does not);
* ORDER (serialised PRINTs) : next issues at least one cycle later;
* COMMIT: the operation issues no later than the exit branch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir.depgraph import Arc, ArcKind, DependenceGraph
from ..machine.description import LifeMachine
from ..machine.latencies import LatencyTable

__all__ = ["TreeTiming", "issue_constraint", "arc_rule", "node_latencies",
           "infinite_machine_timing", "release_timing", "average_time"]


@dataclass
class TreeTiming:
    """Issue/completion times per graph node plus per-exit path times."""

    issue: List[int]
    completion: List[int]
    path_times: List[int]

    @property
    def span(self) -> int:
        """Total schedule length (last completion)."""
        return max(self.completion) if self.completion else 0


def issue_constraint(arc: Arc, issue: Sequence[int],
                     completion: Sequence[int]) -> int:
    """Earliest issue cycle of ``arc.dst`` permitted by this arc.

    Guard-RAW arcs do not constrain issue at all: they constrain the
    completion of an operation (no earlier than one cycle after the
    guard's definition completes) and of an exit not at all.  This is
    the readable statement of the rules; the evaluators run the same
    rules through :func:`arc_rule`.
    """
    kind = arc.kind
    if kind is ArcKind.REG_RAW:
        return 0 if arc.via_guard else completion[arc.src]
    if kind is ArcKind.MEM_RAW or kind is ArcKind.MEM_WAW:
        # the second access waits out the first store's latency: a load
        # needs the stored value; a same-address store commits in order
        # (Section 4.5 prices exactly this store latency for WAW-SpD)
        return completion[arc.src]
    if kind is ArcKind.REG_WAR or kind is ArcKind.EXIT_ORDER:
        return issue[arc.src]
    if kind is ArcKind.COMMIT:
        # a committing operation must *complete* before the tree exits:
        # the successor tree's schedule assumes its live-in registers
        # and the memory state are ready at its cycle 0
        return completion[arc.src]
    if (kind is ArcKind.REG_WAW or kind is ArcKind.MEM_WAR
            or kind is ArcKind.ORDER):
        return issue[arc.src] + 1
    raise ValueError(f"unknown arc kind {kind}")


#: Timing-rule codes, one per rule of :func:`issue_constraint`, shared
#: by the dataflow evaluator and the list scheduler.
AFTER_COMPLETION = 0   # data RAW, MEM_RAW/WAW, COMMIT
AFTER_ISSUE = 1        # REG_WAR, EXIT_ORDER
AFTER_ISSUE_PLUS1 = 2  # REG_WAW, MEM_WAR, ORDER
GUARD_FLOOR = 3        # guard RAW into an op: completion floor only
UNTIMED = 4            # guard RAW into an exit: precedence, no timing

_RULE_OF_KIND: Dict[ArcKind, int] = {
    ArcKind.REG_RAW: AFTER_COMPLETION,
    ArcKind.MEM_RAW: AFTER_COMPLETION,
    ArcKind.MEM_WAW: AFTER_COMPLETION,
    ArcKind.COMMIT: AFTER_COMPLETION,
    ArcKind.REG_WAR: AFTER_ISSUE,
    ArcKind.EXIT_ORDER: AFTER_ISSUE,
    ArcKind.REG_WAW: AFTER_ISSUE_PLUS1,
    ArcKind.MEM_WAR: AFTER_ISSUE_PLUS1,
    ArcKind.ORDER: AFTER_ISSUE_PLUS1,
}


def arc_rule(arc: Arc, num_ops: int) -> int:
    """The timing-rule code of *arc* in a graph whose first *num_ops*
    nodes are operations (the rest are exits)."""
    if arc.via_guard and arc.kind is ArcKind.REG_RAW:
        return GUARD_FLOOR if arc.dst < num_ops else UNTIMED
    return _RULE_OF_KIND[arc.kind]


def node_latencies(graph: DependenceGraph,
                   latencies: LatencyTable) -> List[int]:
    """Each node's latency: its operation's, or the branch latency for
    an exit."""
    return ([latencies.of(op) for op in graph.tree.ops]
            + [latencies.branch] * (graph.num_nodes - graph.num_ops))


_SKIPPED = 5            # arc temporarily removed by ignore_keys
_SKIP_ENTRY = (_SKIPPED, 0)


class _CompiledTiming:
    """The dataflow evaluation of one (graph, latency table) pair,
    pre-resolved so repeated evaluations — the SpD Gain() loop runs
    hundreds per graph — do no arc-kind dispatch, no ``latencies.of``
    lookups and no per-arc predicate filtering.

    ``entries[node]`` is the node's list of ``(rule, src)`` constraint
    tuples (:func:`arc_rule`); ``key_positions`` maps an arc key to
    every (node, position) it occupies, which is how ``ignore_keys`` is
    applied: the affected entries are spliced to :data:`_SKIP_ENTRY` for
    one evaluation and restored afterwards.  :data:`UNTIMED` arcs (guard
    RAW into an exit) constrain nothing and are dropped: arcs point
    forward, so the node order already puts their source first.
    """

    __slots__ = ("entries", "latency", "exit_nodes", "key_positions",
                 "_baseline")

    def __init__(self, graph: DependenceGraph, latencies: LatencyTable):
        self._baseline: Optional[TreeTiming] = None
        self.latency = node_latencies(graph, latencies)
        self.entries: List[List[Tuple[int, int]]] = [
            [] for _ in range(graph.num_nodes)]
        self.key_positions: Dict[tuple, List[Tuple[int, int]]] = {}
        num_ops = graph.num_ops
        for arc in graph.arcs:
            rule = arc_rule(arc, num_ops)
            if rule == UNTIMED:
                continue
            entries = self.entries[arc.dst]
            self.key_positions.setdefault(arc.key, []).append(
                (arc.dst, len(entries)))
            entries.append((rule, arc.src))
        self.exit_nodes = [graph.exit_node(e)
                           for e in range(len(graph.tree.exits))]

    def evaluate(self, ignore_keys: Optional[frozenset]) -> TreeTiming:
        base = self._baseline
        if base is None:
            base = self._baseline = self._run(0, [0] * len(self.latency),
                                              [0] * len(self.latency))
        if not ignore_keys:
            # callers may hold on to (or mutate) the result, so the
            # cached baseline is handed out as a copy
            return TreeTiming(list(base.issue), list(base.completion),
                              list(base.path_times))
        patched: List[Tuple[List[Tuple[int, int]], int, Tuple[int, int]]] = []
        start: Optional[int] = None
        for key in ignore_keys:
            for node, pos in self.key_positions.get(key, ()):
                entries = self.entries[node]
                patched.append((entries, pos, entries[pos]))
                entries[pos] = _SKIP_ENTRY
                if start is None or node < start:
                    start = node
        try:
            if start is None:
                return TreeTiming(list(base.issue), list(base.completion),
                                  list(base.path_times))
            # arcs always point forward (nodes evaluate in index order),
            # so dropping arcs into `start` cannot change any earlier
            # node: resume from the baseline prefix
            return self._run(start, list(base.issue), list(base.completion))
        finally:
            for entries, pos, original in patched:
                entries[pos] = original

    def _run(self, start: int, issue: List[int],
             completion: List[int]) -> TreeTiming:
        latency = self.latency
        entries_by_node = self.entries
        for node in range(start, len(latency)):
            entries = entries_by_node[node]
            earliest = 0
            floor = 0
            for code, src in entries:
                if code == 0:          # AFTER_COMPLETION
                    t = completion[src]
                elif code == 3:        # GUARD_FLOOR
                    t = completion[src] + 1
                    if t > floor:
                        floor = t
                    continue
                elif code == 1:        # AFTER_ISSUE
                    t = issue[src]
                elif code == 2:        # AFTER_ISSUE_PLUS1
                    t = issue[src] + 1
                else:                  # _SKIPPED
                    continue
                if t > earliest:
                    earliest = t
            issue[node] = earliest
            done = earliest + latency[node]
            completion[node] = done if done >= floor else floor
        path_times = [completion[n] for n in self.exit_nodes]
        return TreeTiming(issue, completion, path_times)


#: graph -> {latency table -> compiled evaluator}.  Keyed weakly: no
#: graph is mutated after construction, so an entry lives at most as
#: long as its graph.  SpD scores a tree state and then ranks its
#: Gain() candidates on one carried graph, so both use one evaluator;
#: the final graph lives on in the SPEC view, so SpD releases its
#: evaluator (:func:`release_timing`), which would otherwise double
#: the view's memory.  Must not live *on* the graph — graphs are
#: pickled inside cached view artifacts.
_compiled_timing: "weakref.WeakKeyDictionary[DependenceGraph, Dict[LatencyTable, _CompiledTiming]]" = (
    weakref.WeakKeyDictionary())


def infinite_machine_timing(graph: DependenceGraph,
                            machine: LifeMachine,
                            ignore_keys: Optional[frozenset] = None) -> TreeTiming:
    """Earliest-time dataflow evaluation with unbounded resources.

    ``ignore_keys`` — arc keys to pretend are absent; this is how the
    SpD guidance heuristic evaluates Gain() (time with an ambiguous arc
    removed) without rebuilding the graph.
    """
    obs.incr("timing.infinite_evals")
    per_graph = _compiled_timing.get(graph)
    if per_graph is None:
        per_graph = _compiled_timing[graph] = {}
    compiled = per_graph.get(machine.latencies)
    if compiled is None:
        compiled = per_graph[machine.latencies] = _CompiledTiming(
            graph, machine.latencies)
    return compiled.evaluate(ignore_keys)


def release_timing(graph: DependenceGraph) -> None:
    """Drop the evaluators compiled for *graph* by
    :func:`infinite_machine_timing`, for a caller that is done timing a
    graph that outlives it."""
    _compiled_timing.pop(graph, None)


def average_time(path_times: Sequence[int],
                 path_probabilities: Sequence[float]) -> float:
    """Probability-weighted average tree execution time (Section 5.3)."""
    if len(path_times) != len(path_probabilities):
        raise ValueError("path count mismatch")
    return sum(t * p for t, p in zip(path_times, path_probabilities))
