"""Functional simulator for decision-tree programs.

This plays the role of the LIFE "cycle-level infinite machine simulator"
of Section 6.1 in its *functional* capacity: it executes a program's
decision trees under their sequential semantics, producing

* the program output (used to validate that every disambiguation pass,
  in particular the SpD code transformation, preserves semantics),
* path-probability profiles, and
* dynamic alias counts per memory-reference pair (the input to the
  PERFECT disambiguator).

One walker, :meth:`Interpreter._walk`, states a tree's semantics, and
``_execute_tree`` runs it for every engine's interpreted tier: the
reference, the ``jit`` engine's cold functions and :mod:`repro.hwsim`'s.

Timing is *not* modelled here — see :mod:`repro.sim.timing` and
:mod:`repro.sched` — so the interpreter stays a pure semantic reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..ir.operations import Opcode
from ..ir.program import Program
from ..ir.tree import ExitKind
from ..ir.values import Constant, FLOAT, Operand
from .profile import ProfileData

__all__ = ["InterpreterError", "RunResult", "Interpreter", "run_program",
           "BINARY_OPS"]

Number = Union[int, float]


class InterpreterError(Exception):
    """Raised on runtime errors: bad address, division by zero,
    undefined temporary, step-limit overrun, missing exit."""


@dataclass
class RunResult:
    """Outcome of one program execution."""

    output: List[Number]
    profile: ProfileData
    steps: int
    return_value: Optional[Number] = None

    def output_equal(self, other: "RunResult", rel_tol: float = 1e-9) -> bool:
        """Compare observable outputs, tolerating float rounding noise.

        SpD's forwarding path produces bit-identical values under this
        interpreter, so exact comparison normally succeeds; the
        tolerance guards against platform-level libm differences only.
        """
        if len(self.output) != len(other.output):
            return False
        for mine, theirs in zip(self.output, other.output):
            if isinstance(mine, float) or isinstance(theirs, float):
                if not math.isclose(mine, theirs, rel_tol=rel_tol, abs_tol=1e-12):
                    return False
            elif mine != theirs:
                return False
        return True


def _c_div(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_mod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - _c_div(a, b) * b


def _undefined_guard(name: str) -> None:
    raise InterpreterError(f"guard register %{name} read before definition")


def _fdiv(a: float, b: float) -> float:
    if b == 0:
        raise InterpreterError("float division by zero")
    return a / b


_BINARY = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _c_div,
    Opcode.MOD: _c_mod,
    Opcode.AND: lambda a, b: 1 if (a and b) else 0,
    Opcode.ANDN: lambda a, b: 1 if (a and not b) else 0,
    Opcode.OR: lambda a, b: 1 if (a or b) else 0,
    Opcode.XOR: lambda a, b: 1 if bool(a) != bool(b) else 0,
    Opcode.SHL: lambda a, b: a << b,
    Opcode.SHR: lambda a, b: a >> b,
    Opcode.CMP_EQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMP_NE: lambda a, b: 1 if a != b else 0,
    Opcode.CMP_LT: lambda a, b: 1 if a < b else 0,
    Opcode.CMP_LE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMP_GT: lambda a, b: 1 if a > b else 0,
    Opcode.CMP_GE: lambda a, b: 1 if a >= b else 0,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: _fdiv,
    Opcode.FCMP_EQ: lambda a, b: 1 if a == b else 0,
    Opcode.FCMP_NE: lambda a, b: 1 if a != b else 0,
    Opcode.FCMP_LT: lambda a, b: 1 if a < b else 0,
    Opcode.FCMP_LE: lambda a, b: 1 if a <= b else 0,
    Opcode.FCMP_GT: lambda a, b: 1 if a > b else 0,
    Opcode.FCMP_GE: lambda a, b: 1 if a >= b else 0,
}

_UNARY = {
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: 0 if a else 1,
    Opcode.MOV: lambda a: a,
    Opcode.FNEG: lambda a: -a,
    Opcode.FMOV: lambda a: a,
    Opcode.I2F: float,
    Opcode.F2I: lambda a: int(a),  # C truncation toward zero
    # speculated sqrt of a negative junk value must not trap
    Opcode.FSQRT: lambda a: math.sqrt(a) if a >= 0 else 0.0,
    Opcode.FSIN: math.sin,
    Opcode.FCOS: math.cos,
    Opcode.FABS: abs,
}

#: The opcodes ``_walk`` tests each operation against, bound once: an
#: enum attribute lookup per operation is measurable there.
_LOAD, _STORE, _PRINT, _SELECT = (
    Opcode.LOAD, Opcode.STORE, Opcode.PRINT, Opcode.SELECT)

#: Distinct access traces a profiling run counts before it expands
#: them into alias pairs (a bound on memory; the pairs are the same).
SHAPE_CAPACITY = 4096

#: Public alias of the binary opcode table, so compiled code
#: (:mod:`repro.engines.codegen`) raises through the same DIV, MOD and
#: FDIV helpers, with the same messages.
BINARY_OPS = _BINARY


@dataclass
class _Frame:
    function: str
    tree: str
    regs: Dict[str, Number] = field(default_factory=dict)
    resume_tree: Optional[str] = None
    result_reg: Optional[str] = None


class Interpreter:
    """Executes a program; optionally records a profile."""

    #: a timing subclass receives every tree execution's key, exit
    #: index and access trace through ``_time``
    _timed = False

    def __init__(self, program: Program, max_steps: int = 200_000_000,
                 collect_profile: bool = True, strict_memory: bool = False,
                 trace_stores: bool = False):
        if not program.layout and (program.globals_ or any(
                f.local_arrays for f in program.functions.values())):
            program.layout_memory()
        self.program = program
        self.max_steps = max_steps
        self.collect_profile = collect_profile
        self.strict_memory = strict_memory
        #: when enabled, every committed (guard-true) store is appended
        #: to ``store_trace`` as (address, value) — the memory trace the
        #: conformance oracle compares across pipeline views
        self.trace_stores = trace_stores
        self.store_trace: List[Tuple[int, Number]] = []
        self.memory: List[Number] = [0] * program.memory_words
        self.output: List[Number] = []
        self.profile = ProfileData()
        self.steps = 0
        # observability tallies (populated only while a tracer is
        # installed; see _flush_obs).  Guard squashes are counted in the
        # skip branch and the executed-op histogram is reconstructed
        # afterwards from static per-tree opcode counts x dynamic tree
        # execution counts, so the per-op hot path carries no check.
        self._obs_on = False
        self._obs_tree_execs: Dict[Tuple[str, str], int] = {}
        self._obs_squashed: Dict[str, int] = {}
        #: (tree key, access trace) -> executions, for the alias pairs
        self._shapes: Dict[tuple, int] = {}

    # -- operand/guard evaluation -------------------------------------------

    def _read(self, regs: Dict[str, Number], operand: Operand) -> Number:
        if isinstance(operand, Constant):
            return operand.value
        value = regs.get(operand.name)
        if value is None:
            # A register that was never written holds a junk value — on
            # the real machine too.  This happens legitimately when a
            # guarded (e.g. fault-protected division) definition was
            # cancelled: its speculated consumers read junk that only a
            # cancelled path could commit.
            return 0.0 if operand.type == FLOAT else 0
        return value

    # -- execution -----------------------------------------------------------

    def run(self, args: Tuple[Number, ...] = ()) -> RunResult:
        with obs.span("sim.run") as run_span:
            result = self._run(args)
            if self._obs_on:
                self._flush_obs(run_span)
        return result

    def _run(self, args: Tuple[Number, ...]) -> RunResult:
        self._obs_on = obs.is_enabled()
        entry = self.program.functions[self.program.entry_function]
        if len(args) != len(entry.params):
            raise InterpreterError(
                f"entry function expects {len(entry.params)} args, got {len(args)}")
        regs = {p.name: v for p, v in zip(entry.params, args)}
        frame = _Frame(entry.name, entry.entry, regs)
        stack: List[_Frame] = []
        return_value: Optional[Number] = None

        try:
            while True:
                exit_ = self._execute_tree(frame)
                if exit_.kind is ExitKind.GOTO:
                    frame.tree = exit_.target
                elif exit_.kind is ExitKind.CALL:
                    callee = self.program.functions[exit_.callee]
                    values = [self._read(frame.regs, a) for a in exit_.args]
                    frame.resume_tree = exit_.target
                    frame.result_reg = exit_.result.name if exit_.result else None
                    stack.append(frame)
                    if len(stack) > 100_000:
                        raise InterpreterError("call-stack overflow")
                    frame = _Frame(callee.name, callee.entry,
                                   {p.name: v for p, v in zip(callee.params, values)})
                elif exit_.kind is ExitKind.RETURN:
                    value = (self._read(frame.regs, exit_.value)
                             if exit_.value is not None else None)
                    if not stack:
                        return_value = value
                        break
                    frame = stack.pop()
                    if frame.result_reg is not None:
                        if value is None:
                            raise InterpreterError("void return where value expected")
                        frame.regs[frame.result_reg] = value
                    frame.tree = frame.resume_tree
                else:  # HALT
                    break
        finally:
            self._record_pairs()

        return RunResult(self.output, self.profile, self.steps, return_value)

    def _execute_tree(self, frame: _Frame):
        """Run *frame* from its current tree to the next exit the call
        loop in ``_run`` acts on, and return that exit.  Here that is
        exactly one tree; an engine that runs intra-function GOTOs
        itself (the tiered JIT) may execute many.

        A profiling run and a timed one (a subclass that sets ``_timed``)
        keep the tree's access trace, with addresses renamed to classes
        by first occurrence: the profile counts it through
        :meth:`_count_trace` before the exit is chosen, and the timing
        sink ``_time`` receives it with the exit's index."""
        tree = self.program.functions[frame.function].trees[frame.tree]
        key = (frame.function, frame.tree)
        if self._obs_on:
            self._obs_tree_execs[key] = self._obs_tree_execs.get(key, 0) + 1
        profile = self.collect_profile
        trace = [] if profile or self._timed else None

        # the taken exit counts as one step so that op-free trees (an
        # empty infinite loop compiles to one) still consume budget
        self.steps += len(tree.ops) + 1
        if self.steps > self.max_steps:
            raise InterpreterError(f"step limit exceeded ({self.max_steps})")

        exit_index, committed = self._walk(
            tree, frame.regs, self.output,
            self.store_trace if self.trace_stores else None, trace,
            self._obs_squashed if self._obs_on else None)
        if trace:
            classes: Dict[int, int] = {}
            trace = [(node, is_store, classes.setdefault(addr, len(classes)))
                     for node, is_store, addr in trace]
        if profile:
            # committed (guard-true) operations: the dynamic-operation
            # count Table 6-3's per-program sizes are normalised by
            self.profile.dynamic_operations += committed
            if len(trace) > 1:
                self._count_trace(key, trace)
        if exit_index < 0:
            exit_index = self._take_exit(frame, tree)
        if profile:
            self.profile.record_tree(key, len(tree.exits), exit_index)
        elif trace is not None:
            self._time(key, exit_index, trace)
        return tree.exits[exit_index]

    def _walk(self, tree, regs: Dict[str, Number], out: List[Number],
              stores: Optional[List[Tuple[int, Number]]],
              trace: Optional[List[Tuple[int, bool, int]]],
              squashed: Optional[Dict[str, int]]) -> Tuple[int, int]:
        """Run *tree*'s operations on *regs* in list order and pick its
        exit: the tree semantics every engine's interpreted tier shares.
        PRINT values go to *out*.  Unless ``None``, *stores* gets each
        store's ``(addr, value)``, *trace* each in-range load's and every
        store's ``(node, is_store, addr)``, and *squashed* a per-opcode
        tally of guard-false operations.  Returns ``(exit index,
        committed operations)``; the index is ``-1`` when no exit fires
        or an exit guard is undefined (:meth:`_take_exit` raises the
        error)."""
        memory = self.memory
        size = len(memory)
        strict = self.strict_memory
        read = self._read
        committed = 0
        for node, op in enumerate(tree.ops):
            guard = op.guard
            if guard is not None:
                value = regs.get(guard.reg.name)
                if value is None:
                    _undefined_guard(guard.reg.name)
                if bool(value) == guard.negate:
                    if squashed is not None:
                        name = op.opcode.name
                        squashed[name] = squashed.get(name, 0) + 1
                    continue
            committed += 1
            opcode = op.opcode
            if opcode is _LOAD:
                addr = read(regs, op.srcs[0])
                if isinstance(addr, int) and 0 <= addr < size:
                    regs[op.dest.name] = memory[addr]
                    if trace is not None:
                        trace.append((node, False, addr))
                elif strict:
                    self._check_addr(addr)
                else:
                    # speculated loads never fault (paper Sections 4.1/4.6):
                    # out-of-range reads return a junk value that only a
                    # cancelled path could consume
                    regs[op.dest.name] = (0.0 if op.dest.type == FLOAT else 0)
            elif opcode is _STORE:
                value = read(regs, op.srcs[0])
                addr = read(regs, op.srcs[1])
                self._check_addr(addr)
                memory[addr] = value
                if stores is not None:
                    stores.append((addr, value))
                if trace is not None:
                    trace.append((node, True, addr))
            elif opcode is _PRINT:
                out.append(read(regs, op.srcs[0]))
            elif opcode is _SELECT:
                cond = read(regs, op.srcs[0])
                picked = op.srcs[1] if cond else op.srcs[2]
                regs[op.dest.name] = read(regs, picked)
            else:
                handler = _BINARY.get(opcode)
                if handler is not None:
                    regs[op.dest.name] = handler(
                        read(regs, op.srcs[0]), read(regs, op.srcs[1]))
                else:
                    regs[op.dest.name] = _UNARY[opcode](read(regs, op.srcs[0]))

        for index, exit_ in enumerate(tree.exits):
            guard = exit_.guard
            if guard is None:
                return index, committed
            value = regs.get(guard.reg.name)
            if value is None:
                break
            if bool(value) != guard.negate:
                return index, committed
        return -1, committed

    def _take_exit(self, frame: _Frame, tree) -> int:
        """The first exit of *tree* whose guard holds on *frame*'s
        registers; raises for an undefined guard or no exit taken."""
        for exit_index, exit_ in enumerate(tree.exits):
            guard = exit_.guard
            if guard is None:
                return exit_index
            value = frame.regs.get(guard.reg.name)
            if value is None:
                _undefined_guard(guard.reg.name)
            if bool(value) != guard.negate:
                return exit_index
        raise InterpreterError(
            f"tree {frame.function}.{frame.tree}: no exit taken")

    def _count_trace(self, key: Tuple[str, str],
                     trace: List[Tuple[int, bool, int]]) -> None:
        """Count one execution of tree *key* whose accesses, with their
        addresses as classes, were *trace*.  :meth:`_record_pairs`
        expands each distinct trace into alias pairs once."""
        shape = (key, tuple(trace))
        shapes = self._shapes
        count = shapes.get(shape)
        if count is None:
            if len(shapes) >= SHAPE_CAPACITY:
                self._record_pairs()
            shapes[shape] = 1
        else:
            shapes[shape] = count + 1

    def _record_pairs(self) -> None:
        """Record each pair of each counted trace's accesses with a store
        among them, by op ids, as many times as the trace ran.  Traces
        expand in the order they were first seen, which is the order
        the pairs would have been met execution by execution."""
        functions = self.program.functions
        record = self.profile.record_pair
        for ((func, tree), trace), count in self._shapes.items():
            ops = functions[func].trees[tree].ops
            for i, (node_i, store_i, class_i) in enumerate(trace):
                id_i = ops[node_i].op_id
                for node_j, store_j, class_j in trace[i + 1:]:
                    if store_i or store_j:
                        record((func, tree, id_i, ops[node_j].op_id),
                               class_i == class_j, count)
        self._shapes.clear()

    def _check_addr(self, addr: Number) -> None:
        if not isinstance(addr, int):
            raise InterpreterError(f"non-integer address {addr!r}")
        if not 0 <= addr < len(self.memory):
            raise InterpreterError(
                f"address {addr} out of range [0, {len(self.memory)})")

    # -- observability --------------------------------------------------------

    def _flush_obs(self, run_span) -> None:
        """Publish simulator metrics: per-tree execution counts, an
        executed-op histogram, and guard commit/squash tallies.

        Every op of a tree is *issued* each execution; ops whose guard
        evaluated false were squashed (counted dynamically), the rest
        executed.  Issued counts are therefore static per-tree opcode
        counts scaled by the dynamic execution counts.
        """
        issued: Dict[str, int] = {}
        guarded_issues = 0
        total_execs = 0
        for (func_name, tree_name), execs in self._obs_tree_execs.items():
            total_execs += execs
            obs.incr(f"sim.tree.{func_name}:{tree_name}", execs)
            obs.observe("sim.tree_executions_per_tree", execs)
            tree = self.program.functions[func_name].trees[tree_name]
            for op in tree.ops:
                name = op.opcode.name
                issued[name] = issued.get(name, 0) + execs
                if op.guard is not None:
                    guarded_issues += execs
        squashed_total = 0
        for name, count in issued.items():
            squashed = self._obs_squashed.get(name, 0)
            squashed_total += squashed
            executed = count - squashed
            if executed:
                obs.incr(f"sim.ops.{name}", executed)
        obs.incr("sim.tree_executions", total_execs)
        obs.incr("sim.guard_squashed", squashed_total)
        obs.incr("sim.guard_committed", guarded_issues - squashed_total)
        obs.incr("sim.steps", self.steps)
        run_span.annotate(steps=self.steps, output_values=len(self.output),
                          tree_executions=total_execs,
                          dynamic_ops=sum(issued.values()) - squashed_total)


def run_program(program: Program, args: Tuple[Number, ...] = (),
                collect_profile: bool = True,
                max_steps: int = 200_000_000,
                strict_memory: bool = False,
                engine: Optional[str] = None) -> RunResult:
    """Execute *program* from scratch and return its result.

    ``engine`` selects a registered execution engine by name (see
    :mod:`repro.engines`); ``None`` runs this module's reference
    interpreter directly.
    """
    if engine is None or engine == "interp":
        return Interpreter(program, max_steps=max_steps,
                           collect_profile=collect_profile,
                           strict_memory=strict_memory).run(args)
    # local import: repro.engines imports this module
    from ..engines import get_engine
    executor = get_engine(engine).executor(
        program, max_steps=max_steps, collect_profile=collect_profile,
        strict_memory=strict_memory)
    return executor.run(args)
