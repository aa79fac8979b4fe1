"""Cycle-level dynamic-issue engine for one decision-tree execution.

This is the timing heart of the hardware baseline: a greedy,
cycle-by-cycle simulation of an R10000-style core executing one
decision tree whose memory addresses are already known to the
*simulator* (the functional layer resolves them) but not to the
*machine* (a store's address becomes architecturally known only when
the store issues).  The model:

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..ir.depgraph import MEMORY_ARC_KINDS, ArcKind, DependenceGraph
from ..machine.hw import HwMachine
from ..sim.timing import (AFTER_COMPLETION, AFTER_ISSUE, GUARD_FLOOR,
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
    is the memo key, and the compiled resolve pass of
    :mod:`repro.engines` emits plain ``(node, is_store, addr_class)``
    tuples that must compare and hash identically.  Engine code indexes
    events positionally for the same reason.
    """

    node: int        #: graph node index of the LOAD/STORE
    is_store: bool
    addr_class: int


class TreeContext:
    """Static, per-tree data shared by every execution of the tree,
    read from the tree's dependence graph in one pass over its arcs."""

    def __init__(self, graph: DependenceGraph, machine: HwMachine):
        self.tree = graph.tree
        self.num_ops = num_ops = graph.num_ops
        self.num_nodes = graph.num_nodes
        self.latency: List[int] = node_latencies(graph, machine.latencies)
        #: per node: (src, AFTER_* rule) issue constraints, and the
        #: guard definitions that floor its completion
        self.issue_preds: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_nodes)]
        self.guard_preds: List[List[int]] = [
            [] for _ in range(self.num_nodes)]
        for arc in graph.arcs:
            if arc.kind in HARDWARE_ARC_KINDS:
                continue
            rule = arc_rule(arc, num_ops)
            if rule == GUARD_FLOOR:
                self.guard_preds[arc.dst].append(arc.src)
            elif rule != UNTIMED:
                self.issue_preds[arc.dst].append((arc.src, rule))

    def exit_node(self, exit_index: int) -> int:
        return self.num_ops + exit_index


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
    """
    num_nodes = ctx.num_nodes
    issue = [-1] * num_nodes       # first (possibly speculative) issue
    completion = [-1] * num_nodes  # -1 = not yet known
    latency = ctx.latency

    # events are indexed positionally: the compiled resolve pass emits
    # plain (node, is_store, addr_class) tuples (see MemEvent docstring)
    event_index: Dict[int, int] = {e[0]: i for i, e in enumerate(events)}
    # per load event: earlier store events, split by aliasing
    load_alias: Dict[int, List[int]] = {}
    load_clear: Dict[int, List[int]] = {}
    prev_same_store: Dict[int, int] = {}
    last_store_of_class: Dict[int, int] = {}
    store_events: List[int] = []
    for i, (_node, is_store, addr_class) in enumerate(events):
        if is_store:
            prev = last_store_of_class.get(addr_class)
            if prev is not None:
                prev_same_store[i] = prev
            last_store_of_class[addr_class] = i
            store_events.append(i)
        else:
            aliased = [s for s in store_events
                       if events[s][2] == addr_class]
            clear = [s for s in store_events
                     if events[s][2] != addr_class]
            load_alias[i] = aliased
            load_clear[i] = clear

    num_fus: Optional[int] = machine.num_fus
    window: Optional[int] = machine.window
    penalty = machine.replay_penalty

    unissued: List[int] = list(range(num_nodes))
    #: violated loads awaiting replay: node -> aliasing store *nodes*
    pending_replay: Dict[int, List[int]] = {}
    violations: List[Tuple[int, int]] = []
    slots_used = 0
    spec_issues = 0
    retire_base = 0

    def guard_floor(node: int) -> int:
        """Conditional-execution rule: complete no earlier than one
        cycle after the guard value is available."""
        floor = 0
        for src in ctx.guard_preds[node]:
            floor = max(floor, completion[src] + 1)
        return floor

    def data_ready(node: int, cycle: int) -> bool:
        for src, rule in ctx.issue_preds[node]:
            if rule == AFTER_COMPLETION:
                done = completion[src]
                if done < 0 or done > cycle:
                    return False
            elif rule == AFTER_ISSUE:
                if issue[src] < 0:
                    return False
            else:  # AFTER_ISSUE_PLUS1
                started = issue[src]
                if started < 0 or started + 1 > cycle:
                    return False
        for src in ctx.guard_preds[node]:
            # the consumer may issue before its guard completes, but its
            # completion floor needs the guard's completion to be
            # *known* — i.e. the guard definition must have issued (a
            # violated load's completion stays unknown until replay)
            if completion[src] < 0:
                return False
        return True

    def memory_ready(node: int, cycle: int) -> Tuple[bool, List[int]]:
        """May this guard-true memory op issue at ``cycle``?

        Returns ``(ready, violating_store_nodes)`` — the stores whose
        addresses are still unknown that an issuing load would truly
        alias with (the misspeculation the LSQ later detects).
        """
        ei = event_index.get(node)
        if ei is None:      # guard-false memory op: plain ALU-style slot
            return True, []
        if events[ei][1]:   # is_store
            prev = prev_same_store.get(ei)
            if prev is not None:
                prev_node = events[prev][0]
                # pipelined memory completes same-address writes in
                # issue order: one cycle apart suffices
                if issue[prev_node] < 0 or issue[prev_node] + 1 > cycle:
                    return False, []
            return True, []
        will_violate: List[int] = []
        for s in load_alias[ei]:
            s_node = events[s][0]
            if issue[s_node] >= 0:
                # address known: the LSQ sees the conflict and forwards
                # the store's data at its completion
                if completion[s_node] > cycle:
                    return False, []
            elif bypass[(s, ei)]:
                will_violate.append(s_node)
            else:
                return False, []
        for s in load_clear[ei]:
            s_node = events[s][0]
            if issue[s_node] < 0 and not bypass[(s, ei)]:
                return False, []
        return True, will_violate

    def replay_ready(load_node: int, cycle: int) -> bool:
        """All aliasing earlier stores have completed: the corrected
        value is forwardable, the load may re-issue."""
        ei = event_index[load_node]
        for s in load_alias[ei]:
            done = completion[events[s][0]]
            if done < 0 or done > cycle:
                return False
        return True

    cycle = 0
    while unissued or pending_replay:
        if cycle > _MAX_CYCLES:
            raise RuntimeError(
                f"hwsim engine did not converge on tree "
                f"{ctx.tree.name!r} (machine {machine.name})")
        # in-order retirement: the window head advances past operations
        # whose completion has passed
        while (retire_base < num_nodes and 0 <= completion[retire_base]
               and completion[retire_base] <= cycle):
            retire_base += 1

        budget = (num_fus if num_fus is not None
                  else len(unissued) + len(pending_replay))
        # oldest-first issue: replays are the oldest work in the queue
        for load_node in list(pending_replay):
            if budget <= 0:
                break
            if replay_ready(load_node, cycle):
                del pending_replay[load_node]
                done = cycle + latency[load_node] + penalty
                completion[load_node] = max(done, guard_floor(load_node))
                slots_used += 1
                budget -= 1
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for node in list(unissued):
                if budget <= 0:
                    break
                if window is not None and node >= retire_base + window:
                    break  # later nodes are further outside the window
                if not data_ready(node, cycle):
                    continue
                ready, violating = memory_ready(node, cycle)
                if not ready:
                    continue
                issue[node] = cycle
                unissued.remove(node)
                slots_used += 1
                budget -= 1
                progressed = True
                ei = event_index.get(node)
                if ei is not None and not events[ei][1]:
                    unknown = any(
                        issue[events[s][0]] < 0
                        for s in (load_alias[ei] + load_clear[ei]))
                    if unknown:
                        spec_issues += 1
                if violating:
                    # misspeculation: completion stays unknown until the
                    # replay issues (consumers wait for it naturally)
                    pending_replay[node] = violating
                    violations.extend((node, s) for s in violating)
                else:
                    done = cycle + latency[node]
                    completion[node] = max(done, guard_floor(node))
        cycle += 1

    path_times = tuple(completion[ctx.exit_node(e)]
                       for e in range(len(ctx.tree.exits)))
    final_issue = []
    mem_completion = []
    for node, is_store, _addr_class in events:
        done = completion[node]
        # a violated load's replay issued latency+penalty before it
        # completed; everything else issued once
        if not is_store and any(v[0] == node for v in violations):
            final_issue.append(done - latency[node] - penalty)
        else:
            final_issue.append(issue[node])
        mem_completion.append(done)
    return EngineResult(path_times, tuple(final_issue),
                        tuple(mem_completion), tuple(violations),
                        slots_used, spec_issues,
                        len({load for load, _store in violations}))
