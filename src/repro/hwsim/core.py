"""Program-level hardware simulation: functional + timing, coupled.

:class:`HwSimulator` is the ``jit`` engine
(:class:`repro.engines.jit.JitInterpreter`) — same frames, same call
stack, same whole-function compiled code and function tiers — with its
code generated in *timed* mode, and it times every *tree execution* on
the engine of :mod:`repro.hwsim.engine`.  A tree with a LOAD or STORE
reports each execution to the timing sink, :meth:`HwSimulator._time`,
as ``((function, tree), exit index, trace)``; the trace lists the
tree's guard-true memory accesses in program order as ``(node,
is_store, addr_class)`` events, addresses renamed by first occurrence.
A tree without memory operations has one timing result: compiled code
counts its exits, and the run's end times them all at once; under a
tracer every tree reports each execution, so ``hwsim.tree_cycles``
sees the trees in execution order.

A function runs interpreted while cold — the reference's
``_execute_tree``, which reports every tree to the same sink — and
compiled once it has spent its step budget
(:class:`repro.engines.jit.Tier`, at
:data:`~repro.engines.jit.HW_TIER_THRESHOLD` steps per operation or
exit, a compile's break-even).  A caller that passes
``tree_counts`` — a profile of the same run, as ``Pipeline.hw_timing``
does — gives each function its steps in advance, so a function whose
counted steps reach its budget compiles on entry and no other function
compiles at all.  Both tiers report the same traces, so the tier never
changes a memo key, a cycle or a counter.  The per-tree memo, keyed on
the events plus the predictor's decision bits, supplies the timing
(its violations train the predictor, on hits too).  The engine reads
each tree's dependences from the graph the compiler built for it: the
simulator takes the view's graphs, keyed by ``(function, tree)``.

The tree runs with sequential semantics: each load reads the latest
earlier store to its address, or memory.  That is what the hardware
computes only if the load/store queue forwards every load that value:
the LSQ forwards the latest earlier same-address store that has
completed by the load's final issue, else memory.  Each memo miss
therefore checks *in-order forwarding*: every load's latest earlier
same-class store, if any, completes by the load's final issue.
Exactly then the LSQ's pick is sequential execution's pick.  A timing
that fails the check breaks the data dependence the engine must
honour, so it raises ``AssertionError`` naming the tree, the load node
and the store node.  The tree has already run by then — its stores are
in memory and its output is printed — and the run ends without an
:class:`HwRunResult`; the fuzz oracle (:mod:`repro.fuzz.oracle`)
reports it as a ``crash`` divergence.

The predictor's decision bits cost O(loads x stores) queries, so each
tree caches them on the event tuple, with the small integer that names
the memo key (events plus decision bits), so a memo hit hashes its
events once; the cache is bounded by :data:`MEMO_CAPACITY`, like the
memo, and dropped whenever the predictor trains.  Neither cache
changes the memo's hit, miss or eviction counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Mapping, Optional, Tuple

from .. import obs
from ..engines.codegen import touches_memory
from ..engines.jit import JitInterpreter
from ..ir.depgraph import DependenceGraph
from ..ir.program import Program
from ..ir.tree import DecisionTree
from ..machine.hw import HwMachine
from ..sim.interpreter import Number, RunResult
from .engine import EngineResult, TreeContext, simulate_tree
from .predictor import DependencePredictor, NeverSpeculate, make_predictor

__all__ = ["MEMO_CAPACITY", "HwStats", "HwTiming", "HwRunResult",
           "HwSimulator", "simulate_program"]

#: Entries each tree keeps in its timing memo (LRU) and in its decision
#: cache.  A bound on simulator memory, not an architectural parameter:
#: it cannot change any simulated cycle count.
MEMO_CAPACITY = 4096


@dataclass
class HwStats:
    """Dynamic counters of one simulated program run."""

    tree_executions: int = 0
    slots_used: int = 0          #: FU issue slots consumed (incl. replays)
    spec_issues: int = 0         #: loads issued past an unresolved store
    violations: int = 0          #: (load, store) misspeculation pairs
    squashes: int = 0            #: distinct loads squashed & replayed
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0      #: LRU entries dropped at MEMO_CAPACITY

    def to_dict(self) -> Dict[str, int]:
        return {
            "tree_executions": self.tree_executions,
            "slots_used": self.slots_used,
            "spec_issues": self.spec_issues,
            "violations": self.violations,
            "squashes": self.squashes,
            # each squashed load re-issues exactly once
            "replays": self.squashes,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
        }


@dataclass(frozen=True)
class HwTiming:
    """Timing summary of one program on one hardware machine —
    the pickled payload of the pipeline's ``hwtime`` stage."""

    machine_name: str
    predictor: str
    cycles: int
    stats: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine_name,
            "predictor": self.predictor,
            "cycles": self.cycles,
            **self.stats,
        }


@dataclass
class HwRunResult(RunResult):
    """Interpreter-compatible result plus the hardware cycle count."""

    cycles: int = 0
    timing: Optional[HwTiming] = None


class _TreeState:
    """Everything the simulator keeps per static tree."""

    __slots__ = ("label", "ctx", "has_mem", "op_keys", "memo", "decisions",
                 "memo_ids", "memo_keys", "result")

    def __init__(self, function: str, name: str, tree: DecisionTree,
                 graph: Optional[DependenceGraph], machine: HwMachine):
        if graph is None or (graph.num_ops, graph.num_nodes) != (
                len(tree.ops), len(tree.ops) + len(tree.exits)):
            raise ValueError(f"the dependence graph of tree "
                             f"{function}.{name} does not match its "
                             f"operations and exits")
        self.label = f"{function}.{name}"
        self.ctx = TreeContext(graph, machine)
        self.has_mem = touches_memory(tree)
        #: predictor identity of each op, by node index
        self.op_keys = [(function, name, op.op_id) for op in tree.ops]
        #: memo id -> EngineResult, LRU
        self.memo: "OrderedDict[int, EngineResult]" = OrderedDict()
        #: events -> (bypass map, memo id), valid until the next train
        self.decisions: Dict[tuple, tuple] = {}
        #: (events, decision bits) -> memo id, and back, for the keys
        #: in the memo
        self.memo_ids: Dict[tuple, int] = {}
        self.memo_keys: Dict[int, tuple] = {}
        #: memory-free trees: their one timing result
        self.result: Optional[EngineResult] = None


def _check_in_order(label: str, events, result: EngineResult) -> None:
    """Raise unless the LSQ forwards every load the value sequential
    execution reads — the latest earlier same-address store's, or
    memory's when there is none.  It does exactly when that store has
    completed by the load's final issue."""
    latest_store: Dict[int, int] = {}
    for index, (node, is_store, addr_class) in enumerate(events):
        if is_store:
            latest_store[addr_class] = index
            continue
        store = latest_store.get(addr_class)
        if (store is not None and result.mem_completion[store]
                > result.final_issue[index]):
            raise AssertionError(
                f"hwsim timing of tree {label} mis-orders memory: load "
                f"node {node} issues at cycle {result.final_issue[index]}, "
                f"before store node {events[store][0]} to the same "
                f"address completes at cycle "
                f"{result.mem_completion[store]}")


class HwSimulator(JitInterpreter):
    """Cycle-level dynamically scheduled machine simulator.

    Functionally interpreter-compatible (same output, memory and return
    value when the timing engine is correct); see the module docstring
    for how each tree execution is timed.
    """

    _timed = True

    def __init__(self, program: Program, machine: HwMachine,
                 graphs: Mapping[Tuple[str, str], DependenceGraph],
                 max_steps: int = 200_000_000, trace_stores: bool = False,
                 tree_counts: Optional[Mapping[Tuple[str, str], int]] = None):
        super().__init__(program, max_steps=max_steps, collect_profile=False,
                         trace_stores=trace_stores)
        self.machine = machine
        #: each tree's dependence graph, by (function, tree)
        self.graphs = graphs
        self.tree_counts = tree_counts
        self.is_oracle = machine.predictor == "oracle"
        # the oracle decides every pair from the actual addresses
        # (see _decide) and never consults its predictor
        self.predictor: DependencePredictor = (
            NeverSpeculate() if self.is_oracle
            else make_predictor(machine.predictor))
        self.cycles = 0
        self.stats = HwStats()
        self._trees: Dict[Tuple[str, str], _TreeState] = {}
        self._memo_ids = count()

    # -- public API ----------------------------------------------------------

    def run(self, args: Tuple[Number, ...] = ()) -> HwRunResult:
        with obs.span("hwsim.run", machine=self.machine.name) as span:
            base = self._run(args)
            timing = self.timing()
            if obs.is_enabled():
                stats = self.stats
                obs.incr("hwsim.cycles", self.cycles)
                obs.incr("hwsim.tree_executions", stats.tree_executions)
                obs.incr("hwsim.issued_slots", stats.slots_used)
                obs.incr("hwsim.spec_issues", stats.spec_issues)
                obs.incr("hwsim.squashes", stats.squashes)
                obs.incr("hwsim.memo.hits", stats.memo_hits)
                obs.incr("hwsim.memo.misses", stats.memo_misses)
                obs.incr("hwsim.memo.evictions", stats.memo_evictions)
                span.annotate(cycles=self.cycles, steps=base.steps,
                              squashes=stats.squashes,
                              machine_config=self.machine.to_dict())
        return HwRunResult(base.output, base.profile, base.steps,
                           base.return_value, self.cycles, timing)

    def timing(self) -> HwTiming:
        return HwTiming(self.machine.name, self.machine.predictor,
                        self.cycles, self.stats.to_dict())

    def _run(self, args):
        base = super()._run(args)
        # the compiled code's exit counts of trees it did not report
        for key, row in self._counts.items():
            executions = sum(row)
            if executions:
                self._time_counted(key, row, executions)
        return base

    # -- per-tree timing -----------------------------------------------------

    def _state(self, key: Tuple[str, str]) -> _TreeState:
        state = self._trees[key] = _TreeState(
            key[0], key[1], self.program.functions[key[0]].trees[key[1]],
            self.graphs.get(key), self.machine)
        return state

    def _time(self, key: Tuple[str, str], exit_index: int,
              trace) -> None:
        """The timing sink: time one execution of tree *key* that
        left by exit *exit_index* after the accesses *trace*, checking
        on a memo miss that the LSQ forwards in order."""
        state = self._trees.get(key) or self._state(key)
        stats = self.stats
        stats.tree_executions += 1
        if state.has_mem:
            events = tuple(trace)
            decision = state.decisions.get(events)
            if decision is None:
                decision = self._decide(state, events)
            bypass, memo_id = decision
            memo = state.memo
            result = memo.get(memo_id)
            if result is None:
                result = simulate_tree(state.ctx, self.machine, events,
                                       bypass)
                _check_in_order(state.label, events, result)
                memo[memo_id] = result
                stats.memo_misses += 1
                if len(memo) > MEMO_CAPACITY:
                    self._evict(state, memo.popitem(last=False)[0])
                    stats.memo_evictions += 1
            else:
                memo.move_to_end(memo_id)
                stats.memo_hits += 1
            self._account(state, result)
        else:
            # nothing to forward, so nothing to order: one result
            result = state.result
            if result is None:
                result = self._time_once(state)
            else:
                stats.memo_hits += 1
            stats.slots_used += result.slots_used
        tree_cycles = result.path_times[exit_index]
        self.cycles += tree_cycles
        if self._obs_on:
            obs.observe("hwsim.tree_cycles", tree_cycles)

    def _time_once(self, state: _TreeState) -> EngineResult:
        """Time a tree without memory operations, a memo miss."""
        result = state.result = simulate_tree(state.ctx, self.machine,
                                              (), {})
        self.stats.memo_misses += 1
        return result

    def _time_counted(self, key: Tuple[str, str], row: List[int],
                      executions: int) -> None:
        """Time the *executions* of memory-free tree *key* that compiled
        code counted by exit in *row*, as the sink would have one by
        one."""
        state = self._trees.get(key) or self._state(key)
        stats = self.stats
        result = state.result
        hits = executions
        if result is None:
            result = self._time_once(state)
            hits -= 1
        stats.memo_hits += hits
        stats.tree_executions += executions
        stats.slots_used += executions * result.slots_used
        self.cycles += sum(times * cycles for times, cycles
                           in zip(row, result.path_times))

    def _evict(self, state: _TreeState, memo_id: int) -> None:
        """Forget the memo key of the evicted entry *memo_id*, and the
        cached decision that names it: a later execution with its events
        decides afresh and misses, as the evicted key would."""
        key = state.memo_keys.pop(memo_id)
        del state.memo_ids[key]
        events = key[0]
        decision = state.decisions.get(events)
        if decision is not None and decision[1] == memo_id:
            del state.decisions[events]

    def _account(self, state: _TreeState, result: EngineResult) -> None:
        """Fold one engine result into the run counters and train the
        predictor — on memo hits too, so learning and statistics see
        every dynamic violation, not just the first of each shape."""
        stats = self.stats
        stats.slots_used += result.slots_used
        stats.spec_issues += result.spec_issues
        stats.squashes += result.squashes
        if result.violations:
            stats.violations += len(result.violations)
            op_keys = state.op_keys
            for load_node, store_node in result.violations:
                self.predictor.train(op_keys[load_node], op_keys[store_node])
            # training may flip any pair's decision, in any tree
            for tree_state in self._trees.values():
                tree_state.decisions.clear()

    def _decide(self, state: _TreeState, events: tuple) -> tuple:
        """The predictor's bypass decision for every (earlier store,
        load) event pair, and the id of the memo key (events plus the
        flat decision bits), cached on *events* until the predictor
        next trains.  A key the memo holds keeps its id."""
        bypass: Dict[Tuple[int, int], bool] = {}
        decisions: List[bool] = []
        op_keys = state.op_keys
        for li, load in enumerate(events):
            if load[1]:
                continue
            load_key = op_keys[load[0]]
            for si in range(li):
                store = events[si]
                if not store[1]:
                    continue
                if self.is_oracle:
                    decision = store[2] != load[2]
                else:
                    decision = self.predictor.may_bypass(
                        load_key, op_keys[store[0]])
                bypass[(si, li)] = decision
                decisions.append(decision)
        key = (events, tuple(decisions))
        memo_id = state.memo_ids.get(key)
        if memo_id is None:
            memo_id = state.memo_ids[key] = next(self._memo_ids)
            state.memo_keys[memo_id] = key
        cache = state.decisions
        if len(cache) >= MEMO_CAPACITY:
            del cache[next(iter(cache))]
        decision = cache[events] = (bypass, memo_id)
        return decision


def simulate_program(program: Program, machine: HwMachine,
                     graphs: Mapping[Tuple[str, str], DependenceGraph],
                     args: Tuple[Number, ...] = (),
                     max_steps: int = 200_000_000,
                     tree_counts: Optional[Mapping[Tuple[str, str], int]]
                     = None) -> HwRunResult:
    """Execute *program* on the dynamically scheduled *machine*, timing
    each tree from its dependence graph in *graphs*.  *tree_counts*, a
    profile's executions per tree of the same run, lets each function
    that will pay back a compile compile on entry, and keeps any other
    from compiling."""
    return HwSimulator(program, machine, graphs, max_steps=max_steps,
                       tree_counts=tree_counts).run(args)
