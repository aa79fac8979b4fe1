"""Cycle-level dynamic-issue engine for one decision-tree execution.

This is the timing heart of the hardware baseline: a greedy,
cycle-by-cycle simulation of an R10000-style core executing one
decision tree whose memory addresses are already known to the
*simulator* (the functional layer resolves them) but not to the
*machine* (a store's address becomes architecturally known only when
the store issues).  It is event driven: each dependence is resolved
once, into a successor entry released when its source issues or
completes, and each cycle issues from a ready heap in program order
(see :func:`simulate_tree`).  The model:

* **register renaming** — WAR and WAW register arcs vanish; only true
  data dependences (``REG_RAW``), the conditional-execution guard rule,
  serialised side effects (``ORDER``), exit ordering and commit arcs
  constrain issue, under the rules of :mod:`repro.sim.timing`.  They
  come from the dependence graph the compiler built for the tree (the
  view's own), whose memory arcs the engine skips: memory ordering is
  resolved dynamically below;
* **bounded issue** — at most ``num_fus`` operations issue per cycle
  (universal units, oldest-first), out of a window of ``window``
  consecutive operations in program order; operations retire in order,
  and an operation enters the window only when the operation ``window``
  slots ahead of it has retired.  ``None`` means unbounded;
* **load/store queue** — a store's address is known from its issue
  cycle on; a load may be forwarded a same-address store's data at the
  store's *completion*.  For every earlier store whose address is still
  unknown when a load is otherwise ready, the dependence predictor
  decides: *bypass* (issue speculatively) or *wait* (stall until the
  address resolves).  Same-address stores issue at least one cycle
  apart (the pipelined-memory WAW rule of :mod:`repro.sim.timing`);
  load→store (WAR) pairs are free — the store buffers until commit;
* **squash & replay** — a load that bypassed a store it truly aliases
  with is a misspeculation.  The violation is detected when the store's
  address resolves; the load re-issues (a second functional-unit slot)
  once every aliasing earlier store has completed, and its value is
  available ``latency + replay_penalty`` cycles later.  Consumers of
  the load simply see the late completion — their own wasted
  speculative issues are *not* charged extra slots (see
  docs/hardware-baseline.md for the charging model).

Determinism: the engine is a pure function of its inputs — no clocks,
no randomness, dictionaries iterated in insertion order — which is what
lets :mod:`repro.hwsim.core` memoise executions and the property suite
assert bit-identical repeat runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..ir.depgraph import MEMORY_ARC_KINDS, ArcKind, DependenceGraph
from ..machine.hw import HwMachine
from ..sim.timing import (AFTER_ISSUE, AFTER_ISSUE_PLUS1, GUARD_FLOOR,
                          UNTIMED, arc_rule, node_latencies)

__all__ = ["MemEvent", "TreeContext", "EngineResult", "simulate_tree"]

#: Arc kinds the hardware resolves itself: register renaming removes
#: WAR and WAW, the load/store queue orders memory.
HARDWARE_ARC_KINDS = frozenset(
    {ArcKind.REG_WAR, ArcKind.REG_WAW} | MEMORY_ARC_KINDS)

#: Engine runaway guard: no tree execution may simulate more cycles.
_MAX_CYCLES = 10_000_000


class MemEvent(NamedTuple):
    """One guard-true memory access of a tree execution, program order.

    ``addr_class`` is the canonical address-equality class (addresses
    renamed by first occurrence), which is all the timing model needs —
    and what makes executions with different absolute addresses but the
    same aliasing pattern share a memo entry.

    A ``NamedTuple`` rather than a dataclass: the event sequence itself
    is the memo key, and the timed code of :mod:`repro.engines`
    reports plain ``(node, is_store, addr_class)`` tuples that must
    compare and hash identically.  Engine code indexes
    events positionally for the same reason.
    """

    node: int        #: graph node index of the LOAD/STORE
    is_store: bool
    addr_class: int


class TreeContext:
    """Static, per-tree data shared by every execution of the tree,
    read from the tree's dependence graph in one pass over its arcs.

    Each kept arc becomes a successor entry of its source, released
    when the source issues (``AFTER_ISSUE``, ``AFTER_ISSUE_PLUS1``) or
    when the source's completion becomes known (``AFTER_COMPLETION``,
    ``GUARD_FLOOR``), and counts as one pred of its destination."""

    def __init__(self, graph: DependenceGraph, machine: HwMachine):
        self.tree = graph.tree
        self.num_ops = num_ops = graph.num_ops
        self.num_nodes = num_nodes = graph.num_nodes
        self.latency: List[int] = node_latencies(graph, machine.latencies)
        #: per node: (dst, delay) — dst may issue ``delay`` cycles after
        #: this node issues
        self.issue_succs: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_nodes)]
        #: per node: (dst, guard) — dst may issue once this node has
        #: completed; a guard dst may issue as soon as the completion is
        #: known, and completes no earlier than one cycle after it
        self.completion_succs: List[List[Tuple[int, bool]]] = [
            [] for _ in range(num_nodes)]
        #: per node: the successor entries that point into it
        self.num_preds: List[int] = [0] * num_nodes
        for arc in graph.arcs:
            if arc.kind in HARDWARE_ARC_KINDS:
                continue
            rule = arc_rule(arc, num_ops)
            if rule == UNTIMED:
                continue
            if rule == AFTER_ISSUE:
                self.issue_succs[arc.src].append((arc.dst, 0))
            elif rule == AFTER_ISSUE_PLUS1:
                self.issue_succs[arc.src].append((arc.dst, 1))
            else:
                self.completion_succs[arc.src].append(
                    (arc.dst, rule == GUARD_FLOOR))
            self.num_preds[arc.dst] += 1


@dataclass(frozen=True)
class EngineResult:
    """Timing of one tree execution (memoisable, immutable)."""

    path_times: Tuple[int, ...]     #: completion of each exit branch
    final_issue: Tuple[int, ...]    #: per mem event: last (replay) issue
    mem_completion: Tuple[int, ...]  #: per mem event: completion cycle
    violations: Tuple[Tuple[int, int], ...]  #: (load node, store node)
    slots_used: int                 #: FU issue slots consumed (incl. replays)
    spec_issues: int                #: loads issued past an unknown store
    #: distinct loads squashed & replayed (each replays exactly once);
    #: stored rather than derived — results are memo-replayed on every
    #: hit, so the accounting pass must not rebuild a set each time
    squashes: int = 0


def simulate_tree(ctx: TreeContext, machine: HwMachine,
                  events: Sequence[MemEvent],
                  bypass: Dict[Tuple[int, int], bool]) -> EngineResult:
    """Simulate one dynamic execution of ``ctx.tree`` on ``machine``.

    ``events`` are the guard-true memory accesses of this execution in
    program order; ``bypass`` maps each ``(store_event, load_event)``
    index pair (store earlier than load) to the predictor's decision —
    may the load issue while that store's address is still unknown?

    Event driven, like the list scheduler: a node is released once the
    last of its preds has resolved, into the ``ready`` heap when its
    earliest issue cycle has come and into ``pending`` otherwise.  Each
    cycle issues from ``ready`` oldest first, up to the window's end.
    Every pred precedes its node in program order — arcs point forward
    and events come in program order — so a node released while the
    cycle issues is younger than the one that released it, and issues
    in the same cycle exactly when a scan of the unissued nodes in
    program order would have issued it.
    """
    num_nodes = ctx.num_nodes
    latency = ctx.latency
    issue_succs = ctx.issue_succs
    completion_succs = ctx.completion_succs
    issue = [-1] * num_nodes       # first (possibly speculative) issue
    completion = [-1] * num_nodes  # -1 = not yet known
    waiting = list(ctx.num_preds)  # unresolved preds per node
    earliest = [0] * num_nodes     # issue floor from the resolved preds
    floor = [0] * num_nodes        # completion floor from guard defs

    # The load/store queue's orders, resolved for this execution in one
    # pass over the events (indexed positionally: the compiled resolve
    # pass emits plain (node, is_store, addr_class) tuples).
    #: store node -> (dst, delay) preds it resolves when it issues: dst
    #: may issue ``delay`` cycles later, or once it completes (None)
    store_succs: Dict[int, List[Tuple[int, Optional[int]]]] = {}
    #: store node -> aliasing loads that may bypass it: once its address
    #: is known they wait for its data instead
    forwards: Dict[int, List[int]] = {}
    #: load node -> (bypassed store nodes, the aliasing ones among them)
    bypassing: Dict[int, Tuple[List[int], List[int]]] = {}
    stores: List[Tuple[int, int, int]] = []   # (event, node, class)
    last_store_of_class: Dict[int, int] = {}
    for i, (node, is_store, addr_class) in enumerate(events):
        if is_store:
            prev = last_store_of_class.get(addr_class)
            if prev is not None:
                # pipelined memory completes same-address writes in
                # issue order: one cycle apart suffices
                store_succs[prev].append((node, 1))
                waiting[node] += 1
            last_store_of_class[addr_class] = node
            stores.append((i, node, addr_class))
            store_succs[node] = []
            continue
        bypassed: List[int] = []
        aliased: List[int] = []
        for s, s_node, s_class in stores:
            if bypass[(s, i)]:
                bypassed.append(s_node)
                if s_class == addr_class:
                    aliased.append(s_node)
                    forwards.setdefault(s_node, []).append(node)
            else:
                # wait for the address; an aliasing store's data is
                # forwarded at its completion
                store_succs[s_node].append(
                    (node, None if s_class == addr_class else 0))
                waiting[node] += 1
        if bypassed:
            bypassing[node] = (bypassed, aliased)

    # issue slots per cycle and the window's length; an unbounded one
    # is as large as this execution can use
    width = (machine.num_fus if machine.num_fus is not None
             else num_nodes + len(events))
    span = machine.window if machine.window is not None else num_nodes
    penalty = machine.replay_penalty

    #: violated loads awaiting replay: node -> the aliasing stores whose
    #: addresses were unknown when it issued
    pending_replay: Dict[int, List[int]] = {}
    violated = set()
    violations: List[Tuple[int, int]] = []
    slots_used = 0
    spec_issues = 0
    retire_base = 0
    unissued = num_nodes

    # nodes whose preds have all resolved and whose earliest cycle has
    # come, by node index (an ascending list is already a heap); the
    # rest of the released ones as (earliest cycle, node)
    ready = [node for node in range(num_nodes) if not waiting[node]]
    pending: List[Tuple[int, int]] = []

    def release(dst: int, t: int) -> None:
        """Resolve one pred of *dst*, which lets it issue from cycle *t*."""
        if t > earliest[dst]:
            earliest[dst] = t
        waiting[dst] -= 1
        if not waiting[dst]:
            if earliest[dst] > cycle:
                heappush(pending, (earliest[dst], dst))
            else:
                heappush(ready, dst)

    def complete(node: int, done: int) -> None:
        """Record *node*'s completion, floored by its guards, and
        resolve the preds waiting for it."""
        if done < floor[node]:
            done = floor[node]
        completion[node] = done
        for dst, guard in completion_succs[node]:
            if guard:
                # conditional execution: complete no earlier than one
                # cycle after the guard value is available
                if done + 1 > floor[dst]:
                    floor[dst] = done + 1
                release(dst, 0)
            else:
                release(dst, done)

    cycle = 0
    while unissued or pending_replay:
        if cycle > _MAX_CYCLES or not (ready or pending or pending_replay):
            raise RuntimeError(
                f"hwsim engine did not converge on tree "
                f"{ctx.tree.name!r} (machine {machine.name})")
        # in-order retirement: the window head advances past operations
        # whose completion has passed
        while (retire_base < num_nodes and 0 <= completion[retire_base]
               and completion[retire_base] <= cycle):
            retire_base += 1

        budget = width
        # oldest-first issue: replays are the oldest work in the queue
        for load_node in list(pending_replay) if pending_replay else ():
            if budget <= 0:
                break
            # every aliasing earlier store has completed: the corrected
            # value is forwardable, the load may re-issue
            if all(0 <= completion[s] <= cycle
                   for s in pending_replay[load_node]):
                del pending_replay[load_node]
                complete(load_node, cycle + latency[load_node] + penalty)
                slots_used += 1
                budget -= 1

        while pending and pending[0][0] <= cycle:
            node = heappop(pending)[1]
            if earliest[node] > cycle:   # a store it aliases has issued
                heappush(pending, (earliest[node], node))
            else:
                heappush(ready, node)
        limit = retire_base + span
        while budget > 0 and ready and ready[0] < limit:
            node = heappop(ready)
            if earliest[node] > cycle:   # a store it aliases has issued
                heappush(pending, (earliest[node], node))
                continue
            issue[node] = cycle
            unissued -= 1
            slots_used += 1
            budget -= 1
            for dst, delay in issue_succs[node]:
                release(dst, cycle + delay)
            speculated = bypassing.get(node)
            if speculated is not None:
                if any(issue[s] < 0 for s in speculated[0]):
                    spec_issues += 1
                violating = [s for s in speculated[1] if issue[s] < 0]
                if violating:
                    # misspeculation: completion stays unknown until the
                    # replay issues (consumers wait for it naturally)
                    pending_replay[node] = violating
                    violated.add(node)
                    violations.extend((node, s) for s in violating)
                    continue
            complete(node, cycle + latency[node])
            succs = store_succs.get(node)
            if succs is not None:
                done = completion[node]
                for dst, delay in succs:
                    release(dst, done if delay is None else cycle + delay)
                # its address is known: the LSQ sees the conflict and
                # forwards the data at its completion
                for load in forwards.get(node, ()):
                    if done > earliest[load]:
                        earliest[load] = done
        cycle += 1
        if not ready and not pending_replay and pending:
            # nothing can issue before the next release is due
            cycle = max(cycle, pending[0][0])

    final_issue = []
    mem_completion = []
    for node, is_store, _addr_class in events:
        done = completion[node]
        # a violated load's replay issued latency+penalty before it
        # completed; everything else issued once
        if not is_store and node in violated:
            final_issue.append(done - latency[node] - penalty)
        else:
            final_issue.append(issue[node])
        mem_completion.append(done)
    return EngineResult(tuple(completion[ctx.num_ops:]), tuple(final_issue),
                        tuple(mem_completion), tuple(violations),
                        slots_used, spec_issues, len(violated))
