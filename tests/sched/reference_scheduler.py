"""The list scheduler as it was before the ready-heap rewrite, kept as a
test-only reference.

This is the original quadratic scheduler: every cycle, every pass
rescans every unscheduled node and every pred arc of each one.  It is
copied unchanged, together with ``guard_completion_floor``, which only
it used, except that it reads each node's pred and succ arcs from lists
it derives from ``graph.arcs`` (:func:`_adjacency`; the graph keeps no
adjacency of its own), so the parity tests can require the event-driven
:func:`repro.sched.list_schedule` to return the very same
:class:`~repro.sched.Schedule`: equal ``issue``, ``completion``,
``path_times`` and ``slots``, with the order of nodes inside each
cycle.  ``benchmarks/sched_parity.py`` runs the same comparison over
the whole corpus.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro import obs
from repro.ir.depgraph import Arc, ArcKind, DependenceGraph
from repro.machine.description import LifeMachine
from repro.sched.schedule import Schedule
from repro.sim.timing import issue_constraint

__all__ = ["list_schedule", "schedule_diff"]


def _adjacency(graph: DependenceGraph
              ) -> Tuple[List[List[Arc]], List[List[Arc]]]:
    """Each node's pred arcs and succ arcs, in arc-list order."""
    preds: List[List[Arc]] = [[] for _ in range(graph.num_nodes)]
    succs: List[List[Arc]] = [[] for _ in range(graph.num_nodes)]
    for arc in graph.arcs:
        preds[arc.dst].append(arc)
        succs[arc.src].append(arc)
    return preds, succs


def guard_completion_floor(node: int, preds: Sequence[Arc],
                           completion: Sequence[int]) -> int:
    """Earliest completion allowed by conditional execution: one cycle
    after the latest guard-producing definition completes."""
    floor = 0
    for arc in preds:
        if arc.kind is ArcKind.REG_RAW and arc.via_guard:
            floor = max(floor, completion[arc.src] + 1)
    return floor


def _priorities(graph: DependenceGraph, machine: LifeMachine) -> List[int]:
    """Longest-latency path from each node to any sink (critical-path
    priority).  Arcs only point forward, so one reverse sweep suffices."""
    latencies = machine.latencies
    num_nodes = graph.num_nodes
    priority = [0] * num_nodes
    succs = _adjacency(graph)[1]
    for node in range(num_nodes - 1, -1, -1):
        op = graph.node_op(node)
        own = latencies.of(op) if op is not None else latencies.branch
        best_succ = 0
        for arc in succs[node]:
            best_succ = max(best_succ, priority[arc.dst])
        priority[node] = own + best_succ
    return priority


def list_schedule(graph: DependenceGraph, machine: LifeMachine) -> Schedule:
    """Schedule one decision tree onto a ``machine.num_fus``-wide LIFE."""
    if machine.is_infinite:
        raise ValueError("use infinite_machine_timing for the infinite machine")
    num_fus = machine.num_fus
    latencies = machine.latencies
    num_nodes = graph.num_nodes
    priority = _priorities(graph, machine)
    preds = _adjacency(graph)[0]

    issue = [-1] * num_nodes
    completion = [-1] * num_nodes
    scheduled: Set[int] = set()
    slots: Dict[int, List[int]] = {}
    remaining = list(range(num_nodes))

    cycle = 0
    guard_cycles = 0
    while remaining:
        guard_cycles += 1
        if guard_cycles > 1_000_000:
            raise RuntimeError("list scheduler failed to converge")
        used = 0
        progressed = True
        # several passes within one cycle: issuing a node can enable a
        # same-cycle WAR/COMMIT successor
        while progressed and used < num_fus:
            progressed = False
            candidates = []
            for node in remaining:
                earliest = 0
                feasible = True
                for arc in preds[node]:
                    if arc.src not in scheduled:
                        feasible = False
                        break
                    earliest = max(earliest,
                                   issue_constraint(arc, issue, completion))
                if feasible and earliest <= cycle:
                    candidates.append(node)
            if not candidates:
                break
            candidates.sort(key=lambda n: (-priority[n], n))
            for node in candidates:
                if used >= num_fus:
                    break
                issue[node] = cycle
                op = graph.node_op(node)
                if op is not None:
                    done = cycle + latencies.of(op)
                    done = max(done, guard_completion_floor(
                        node, preds[node], completion))
                else:
                    done = cycle + latencies.branch
                completion[node] = done
                scheduled.add(node)
                slots.setdefault(cycle, []).append(node)
                used += 1
                progressed = True
            remaining = [n for n in remaining if n not in scheduled]
        cycle += 1

    path_times = [completion[graph.exit_node(e)]
                  for e in range(len(graph.tree.exits))]
    if obs.is_enabled():
        obs.incr("sched.trees_scheduled")
        obs.incr("sched.ops_scheduled", num_nodes)
        obs.incr("sched.cycles_filled", cycle)
    return Schedule(issue, completion, path_times, num_fus, slots)


def schedule_diff(graph: DependenceGraph, machine: LifeMachine,
                  schedule: Schedule) -> str:
    """'' if *schedule* equals the reference schedule of *graph* on
    *machine*, else the first field that differs."""
    reference = list_schedule(graph, machine)
    for field in ("issue", "completion", "path_times", "num_fus"):
        if getattr(schedule, field) != getattr(reference, field):
            return (f"{field}: {getattr(schedule, field)} != "
                    f"reference {getattr(reference, field)}")
    # dict equality ignores key order; compare the words in cycle order
    if list(schedule.slots.items()) != list(reference.slots.items()):
        return f"slots: {schedule.slots} != reference {reference.slots}"
    return ""
