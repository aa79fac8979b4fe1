"""Greedy list scheduler for constrained LIFE machines.

This is the reproduction's stand-in for the LIFE "scheduler that
schedules decision trees for constrained resource machines" (Section
6.1).  It performs cycle-by-cycle greedy list scheduling with a
critical-path priority over the dependence graph:

* the machine issues at most ``num_fus`` operations per cycle (universal
  functional units — any operation in any slot; exits are branch
  operations and occupy a slot too);
* all timing rules match :mod:`repro.sim.timing`, including the
  conditional-execution guard rule, so schedule times converge to the
  infinite-machine times as the functional-unit count grows.

The scheduler is event driven.  Each arc is resolved once into a
``(rule, dst)`` successor entry (:func:`repro.sim.timing.arc_rule`).
A node enters the ``pending`` heap, keyed by its earliest issue cycle,
when its last pred issues; each pass within a cycle moves the due
nodes into the ``ready`` heap, ordered by ``(-priority, node)``, and
issues from it up to the free slots.  Successors are released only
after the whole pass, so a successor whose rule lets it issue in the
same cycle (``REG_WAR``, ``EXIT_ORDER``, a guard read) does so in a
later pass.
Cycles in which nothing is due are skipped.  The cost is
O((N + E) log N) per tree.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from .. import obs
from ..ir.depgraph import DependenceGraph
from ..machine.description import LifeMachine
from ..sim.timing import (AFTER_COMPLETION, AFTER_ISSUE, AFTER_ISSUE_PLUS1,
                          GUARD_FLOOR, TreeTiming, arc_rule,
                          infinite_machine_timing, node_latencies)
from .schedule import Schedule

__all__ = ["list_schedule", "schedule_tree"]


def _priorities(succs: List[List[Tuple[int, int]]],
                latency: List[int]) -> List[int]:
    """Longest-latency path from each node to any sink (critical-path
    priority).  Arcs only point forward, so one reverse sweep suffices."""
    priority = [0] * len(latency)
    for node in range(len(latency) - 1, -1, -1):
        best_succ = 0
        for _rule, dst in succs[node]:
            if priority[dst] > best_succ:
                best_succ = priority[dst]
        priority[node] = latency[node] + best_succ
    return priority


def list_schedule(graph: DependenceGraph, machine: LifeMachine) -> Schedule:
    """Schedule one decision tree onto a ``machine.num_fus``-wide LIFE."""
    if machine.is_infinite:
        raise ValueError("use infinite_machine_timing for the infinite machine")
    num_fus = machine.num_fus
    num_nodes = graph.num_nodes
    num_ops = graph.num_ops
    latency = node_latencies(graph, machine.latencies)
    succs: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
    waiting = [0] * num_nodes   # unscheduled preds per node
    for arc in graph.arcs:
        succs[arc.src].append((arc_rule(arc, num_ops), arc.dst))
        waiting[arc.dst] += 1
    priority = _priorities(succs, latency)

    issue = [-1] * num_nodes
    completion = [-1] * num_nodes
    earliest = [0] * num_nodes  # issue floor from the preds issued so far
    floor = [0] * num_nodes     # completion floor from guard defs
    slots: Dict[int, List[int]] = {}
    # (earliest cycle, node) of nodes whose preds have all issued; an
    # ascending list is already a heap
    pending = [(0, node) for node in range(num_nodes) if not waiting[node]]
    ready: List[Tuple[int, int]] = []   # (-priority, node), due now

    # Arcs point forward (DependenceGraph rejects any other), so while
    # nodes remain one of them has all its preds issued and sits in
    # `pending` or `ready`: the loop always terminates.
    cycle = 0
    while pending or ready:
        if not ready and pending[0][0] > cycle:
            cycle = pending[0][0]
        # every cycle visited issues at least one node
        word = slots[cycle] = []
        while len(word) < num_fus:
            while pending and pending[0][0] <= cycle:
                node = heappop(pending)[1]
                heappush(ready, (-priority[node], node))
            if not ready:
                break
            first = len(word)
            while ready and len(word) < num_fus:
                node = heappop(ready)[1]
                issue[node] = cycle
                done = cycle + latency[node]
                completion[node] = done if done > floor[node] else floor[node]
                word.append(node)
            # release successors only after the whole pass: a successor
            # that may issue this cycle does so in a later pass
            for node in word[first:]:
                for rule, dst in succs[node]:
                    if rule == AFTER_COMPLETION:
                        t = completion[node]
                    elif rule == AFTER_ISSUE:
                        t = cycle
                    elif rule == GUARD_FLOOR:
                        t = completion[node] + 1
                        if t > floor[dst]:
                            floor[dst] = t
                        t = 0
                    elif rule == AFTER_ISSUE_PLUS1:
                        t = cycle + 1
                    else:   # UNTIMED
                        t = 0
                    if t > earliest[dst]:
                        earliest[dst] = t
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        heappush(pending, (earliest[dst], dst))
        cycle += 1

    path_times = [completion[graph.exit_node(e)]
                  for e in range(len(graph.tree.exits))]
    if obs.is_enabled():
        obs.incr("sched.trees_scheduled")
        obs.incr("sched.ops_scheduled", num_nodes)
        obs.incr("sched.cycles_filled", cycle)
    return Schedule(issue, completion, path_times, num_fus, slots)


def schedule_tree(graph: DependenceGraph, machine: LifeMachine) -> TreeTiming:
    """Uniform entry point: infinite machines go through the dataflow
    model, finite machines through the list scheduler."""
    if machine.is_infinite:
        return infinite_machine_timing(graph, machine)
    sched = list_schedule(graph, machine)
    return TreeTiming(sched.issue, sched.completion, sched.path_times)
