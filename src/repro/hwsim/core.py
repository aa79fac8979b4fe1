"""Program-level hardware simulation: functional + timing, coupled.

:class:`HwSimulator` executes a decision-tree program the way the
interpreter does — same frames, same call stack, same opcode semantics —
but times every *tree execution* on the engine of
:mod:`repro.hwsim.engine`.  One execution is one compiled pass
(``hw_resolve``) over a copy of the frame's registers, which yields the
new registers, the taken exit, the guard-true memory accesses as
canonical address-class events, the stores in program order and the
PRINT values; loads read through a store overlay, i.e. see what
sequential execution would.  The per-tree memo, keyed on the events
plus the predictor's decision bits, supplies the timing (its violations
train the predictor, on hits too).  The simulator then adopts the
registers, drains the stores and appends the output.

That retirement is exact only if the load/store queue forwards every
load the value the pass gave it: the LSQ forwards the latest earlier
same-address store that has completed by the load's final issue, else
memory.  Each memo entry therefore carries an *in-order forwarding
flag*, computed once per miss: every load's latest earlier same-class
store, if any, completes by the load's final issue.  Exactly then the
LSQ's pick is the overlay's pick, and an LSQ-ordered pass would
recompute the same registers, stores and output.  Otherwise — only an
engine that mis-orders memory gets here — the pass's results are
dropped and the ``hw_commit`` pass, compiled on first need, re-executes
the tree with every load drawn from the engine's timing.  A timing bug
thus commits a stale value, and the fuzz oracle
(:mod:`repro.fuzz.oracle`) sees an output/memory divergence rather
than a bug hidden inside cycle counts.

The predictor's decision bits cost O(loads x stores) queries, so each
tree caches them on the event tuple; the cache is bounded by
``HwMachine.memo_capacity`` and dropped whenever the predictor trains.
Trees without memory operations run the pass on the frame's own
registers and reuse their one timing result.  Neither cache changes
the memo's hit, miss or eviction counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..engines.codegen import generate_tree_source, touches_memory
from ..engines.jit import compiled_fn
from ..ir.program import Program
from ..ir.tree import DecisionTree
from ..machine.hw import HwMachine
from ..sim.interpreter import Interpreter, InterpreterError, Number, RunResult
from .engine import EngineResult, TreeContext, simulate_tree
from .predictor import DependencePredictor, make_predictor

__all__ = ["HwStats", "HwTiming", "HwRunResult", "HwSimulator",
           "simulate_program"]


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
    memo_evictions: int = 0      #: LRU entries dropped at memo_capacity

    @property
    def replays(self) -> int:
        """Each squashed load re-issues exactly once."""
        return self.squashes

    def to_dict(self) -> Dict[str, int]:
        return {
            "tree_executions": self.tree_executions,
            "slots_used": self.slots_used,
            "spec_issues": self.spec_issues,
            "violations": self.violations,
            "squashes": self.squashes,
            "replays": self.replays,
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

    __slots__ = ("tree", "ctx", "steps", "run", "commit", "has_mem",
                 "op_keys", "memo", "decisions", "result")

    def __init__(self, function: str, name: str, tree: DecisionTree,
                 machine: HwMachine, strict_memory: bool):
        self.tree = tree
        self.ctx = TreeContext(tree, machine)
        self.steps = len(tree.ops) + 1
        #: the compiled pass (shared bounded code cache with the
        #: ``jit`` engine — the source is the key, so identical tree
        #: shapes compile once per process)
        self.run = compiled_fn(generate_tree_source(
            tree, mode="hw_resolve", strict_memory=strict_memory))
        #: the LSQ-ordered ``hw_commit`` pass, compiled on first need
        self.commit = None
        self.has_mem = touches_memory(tree)
        #: predictor identity of each op, by node index
        self.op_keys = [(function, name, op.op_id) for op in tree.ops]
        #: (events, decisions) -> (EngineResult, forwards_in_order), LRU
        self.memo: "OrderedDict[tuple, Tuple[EngineResult, bool]]" = \
            OrderedDict()
        #: events -> (bypass map, memo key), valid until the next train
        self.decisions: Dict[tuple, tuple] = {}
        #: memory-free trees: their one timing result
        self.result: Optional[EngineResult] = None


def _forwards_in_order(events, result: EngineResult) -> bool:
    """Does the LSQ forward every load the value sequential execution
    reads — the latest earlier same-address store's, or memory's when
    there is none?  It does exactly when that store has completed by
    the load's final issue."""
    latest_store: Dict[int, int] = {}
    for index, (_node, is_store, addr_class) in enumerate(events):
        if is_store:
            latest_store[addr_class] = index
        else:
            store = latest_store.get(addr_class)
            if (store is not None and result.mem_completion[store]
                    > result.final_issue[index]):
                return False
    return True


class HwSimulator(Interpreter):
    """Cycle-level dynamically scheduled machine simulator.

    Functionally interpreter-compatible (same output, memory and return
    value when the timing engine is correct); see the module docstring
    for the structure of each tree execution.
    """

    def __init__(self, program: Program, machine: HwMachine,
                 max_steps: int = 200_000_000, strict_memory: bool = False,
                 trace_stores: bool = False):
        super().__init__(program, max_steps=max_steps, collect_profile=False,
                         strict_memory=strict_memory,
                         trace_stores=trace_stores)
        self.machine = machine
        self.is_oracle = machine.predictor == "oracle"
        self.predictor: DependencePredictor = make_predictor(machine.predictor)
        self.cycles = 0
        self.stats = HwStats()
        self._trees: Dict[Tuple[str, str], _TreeState] = {}

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
                obs.incr("hwsim.replays", stats.replays)
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

    # -- per-tree execution --------------------------------------------------

    def _execute_tree(self, frame):
        key = (frame.function, frame.tree)
        state = self._trees.get(key)
        if state is None:
            state = self._trees[key] = _TreeState(
                frame.function, frame.tree,
                self.program.functions[frame.function].trees[frame.tree],
                self.machine, self.strict_memory)
        stats = self.stats
        stats.tree_executions += 1
        self.steps += state.steps
        if self.steps > self.max_steps:
            raise InterpreterError(f"step limit exceeded ({self.max_steps})")

        if state.has_mem:
            exit_index, result = self._execute_memory_tree(frame, state)
        else:
            # nothing to forward, so nothing to order: the pass runs on
            # the frame's own registers and there is one timing result
            exit_index = state.run(frame.regs, self.memory, self)
            result = state.result
            if result is None:
                result = state.result = simulate_tree(
                    state.ctx, self.machine, (), {})
                stats.memo_misses += 1
            else:
                stats.memo_hits += 1
            stats.slots_used += result.slots_used
        if exit_index < 0:
            exit_index = self._take_exit(frame, state.tree)
        tree_cycles = result.path_times[exit_index]
        self.cycles += tree_cycles
        if self._obs_on:
            obs.observe("hwsim.tree_cycles", tree_cycles)
        return state.tree.exits[exit_index]

    def _execute_memory_tree(self, frame, state: _TreeState):
        """Run the compiled pass on a copy of the registers, time it,
        and retire its results if the LSQ forwards in order (else run
        the LSQ-ordered commit pass).  Returns ``(exit index, engine
        result)``; the exit index is ``-1`` when the caller must
        re-evaluate the exits."""
        regs = dict(frame.regs)
        memory = self.memory
        exit_index, events, stores, prints = state.run(regs, memory, self)
        events = tuple(events)
        decision = state.decisions.get(events)
        if decision is None:
            decision = self._decide(state, events)
        bypass, memo_key = decision

        stats = self.stats
        memo = state.memo
        entry = memo.get(memo_key)
        if entry is None:
            result = simulate_tree(state.ctx, self.machine, events, bypass)
            entry = memo[memo_key] = (
                result, _forwards_in_order(events, result))
            stats.memo_misses += 1
            capacity = self.machine.memo_capacity
            if capacity is not None and len(memo) > capacity:
                memo.popitem(last=False)
                stats.memo_evictions += 1
        else:
            memo.move_to_end(memo_key)
            stats.memo_hits += 1
        result, in_order = entry
        self._account(state, result)

        if not in_order:
            self._commit(frame, state, events, result)
            return -1, result
        frame.regs = regs
        for addr, value in stores:
            memory[addr] = value
        if self.trace_stores:
            self.store_trace.extend(stores)
        if prints:
            self.output.extend(prints)
        return exit_index, result

    def _take_exit(self, frame, tree) -> int:
        """The first exit whose guard holds, with the interpreter's
        errors for an undefined guard or no exit taken."""
        for exit_index, exit_ in enumerate(tree.exits):
            if self._guard_true(frame.regs, exit_.guard):
                return exit_index
        raise InterpreterError(
            f"tree {frame.function}.{frame.tree}: no exit taken")

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
        load) event pair, and the memo key (events plus the flat
        decision bits), cached on *events* until the predictor next
        trains."""
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
        cache = state.decisions
        capacity = self.machine.memo_capacity
        if capacity is not None and len(cache) >= capacity:
            del cache[next(iter(cache))]
        decision = cache[events] = (bypass, (events, tuple(decisions)))
        return decision

    # -- the LSQ-ordered commit pass -----------------------------------------

    def _commit(self, frame, state: _TreeState, events,
                result: EngineResult) -> None:
        """Re-execute the tree sequentially, drawing every load's value
        from the load/store queue ordering the engine produced.  Stores
        drain to memory at tree exit in program order (in-order
        retirement) — *before* the exit guards are evaluated, which is
        why the compiled commit pass returns to the caller instead of
        selecting the exit itself."""
        if state.commit is None:
            state.commit = compiled_fn(generate_tree_source(
                state.tree, mode="hw_commit",
                strict_memory=self.strict_memory))
        memory = self.memory
        event_of_node = {e[0]: i for i, e in enumerate(events)}
        store_vals: Dict[int, Tuple[int, Number]] = {}
        pending_stores: List[Tuple[int, Number]] = []

        def load_by_index(op_index: int, addr: int) -> Number:
            ei = event_of_node.get(op_index)
            if ei is None:
                # not timed by the engine (only possible after an engine
                # bug diverged the commit pass): sequential fallback
                for st_addr, st_val in reversed(pending_stores):
                    if st_addr == addr:
                        return st_val
                return memory[addr]
            horizon = result.final_issue[ei]
            for si in range(ei - 1, -1, -1):
                done = store_vals.get(si)
                if (done is not None and done[0] == addr
                        and result.mem_completion[si] <= horizon):
                    return done[1]
            return memory[addr]

        def store_by_index(op_index: int, addr: int, value: Number) -> None:
            ei = event_of_node.get(op_index)
            if ei is not None:
                store_vals[ei] = (addr, value)
            pending_stores.append((addr, value))

        state.commit(frame.regs, memory, self, load_by_index, store_by_index)
        for addr, value in pending_stores:
            memory[addr] = value
            if self.trace_stores:
                self.store_trace.append((addr, value))


def simulate_program(program: Program, machine: HwMachine,
                     args: Tuple[Number, ...] = (),
                     max_steps: int = 200_000_000,
                     strict_memory: bool = False) -> HwRunResult:
    """Execute *program* on the dynamically scheduled *machine*."""
    return HwSimulator(program, machine, max_steps=max_steps,
                       strict_memory=strict_memory).run(args)
