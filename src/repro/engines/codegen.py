"""Tree-to-Python specialization: the compilation technique of the JIT.

Each function is compiled once into a plain Python function whose
body *is* its decision trees: every guarded operation becomes an
``if`` statement over a local variable, every opcode becomes the
inline expression the interpreter's dispatch tables would have
selected, and registers become function locals (loaded from the
frame's register dict on entry, written back on exit).  The per-step
costs of the tree-walking interpreter — operand-type tests,
dispatch-dict lookups, attribute chains, bound-method calls — all
disappear; what remains per operation is one or two bytecode-level
expressions, which is the same specialization discipline the paper
applies to memory disambiguation (compile the check down to a cheap
guard).

Exactness contract — the generated code must be observationally
identical to the interpreter's tree walker
(:meth:`repro.sim.interpreter.Interpreter._walk`) under
``_execute_tree``:

* unset data registers read as the operand's typed junk value
  (``0.0`` for float operands, ``0`` otherwise);
* unset *guard* registers raise ``InterpreterError`` with the
  interpreter's exact message, and only when actually evaluated
  (exit guards after the taken exit are never read);
* speculated loads never fault: an invalid address yields the typed
  junk value unless the JIT runs with ``strict_memory``, where the
  interpreter's ``_check_addr`` raises its exact message; stores
  always check;
* ``FSQRT`` of a negative value commits ``0.0`` instead of trapping;
  DIV/MOD/FDIV raise through the interpreter's shared helpers;
* profile collection (committed-op counts, memory traces) and the
  observability squash tallies byte-match the interpreter's.

One shape is generated: the JIT's whole-function dispatch loop
(:class:`_FunctionEmitter`).  Besides the plain functional mode it has
two recording modes, which both build each tree's memory trace — a
``(node, is_store, address class)`` per in-range load and per store,
in program order, with addresses renamed to classes by first
occurrence.  *Profile* mode hands a trace with at least two accesses
to the interpreter's ``_count_trace`` before the exits are read, and
counts exits in per-tree rows.  *Timed* mode, the hardware simulator's
(:mod:`repro.hwsim.core`), calls the simulator's ``_time`` sink with
``((function, tree), exit index, trace)`` at a memory tree's exit
action, on every execution; a tree without memory operations counts
its exits in rows instead, which the simulator times once the run
ends, unless a tracer is installed, when every tree calls the sink in
execution order.

Generated sources are deterministic functions of (function structure,
flags) and therefore double as structural fingerprints for the
bounded code cache in :mod:`repro.engines.jit`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from ..ir.operations import Opcode
from ..ir.tree import DecisionTree, ExitKind
from ..ir.values import Constant, FLOAT
from ..sim.interpreter import BINARY_OPS, InterpreterError, _undefined_guard

__all__ = ["MISSING", "EXEC_GLOBALS", "touches_memory",
           "generate_function_source"]

#: Sentinel for "register not present in the frame dict" — ``None`` is
#: unusable because a register can never hold it, but ``0`` is a
#: legitimate value, so presence needs an out-of-band marker.
MISSING = object()


def _step_limit(max_steps: int) -> None:
    raise InterpreterError(f"step limit exceeded ({max_steps})")


#: Globals every compiled function runs under: the sentinel, the
#: interpreter's shared guard and div/mod helpers (identical error
#: messages) and the libm entry points the dispatch tables referenced.
EXEC_GLOBALS = {
    "_M": MISSING,
    "_ge": _undefined_guard,
    "_slim": _step_limit,
    "_ierr": InterpreterError,
    "_div": BINARY_OPS[Opcode.DIV],
    "_mod": BINARY_OPS[Opcode.MOD],
    "_fdiv": BINARY_OPS[Opcode.FDIV],
    "_sqrt": math.sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
}

#: Inline expression per binary opcode; {a}/{b} are operand expressions.
#: Semantics are transcribed from the interpreter's _BINARY table.
_BIN_EXPR = {
    Opcode.ADD: "({a} + {b})",
    Opcode.SUB: "({a} - {b})",
    Opcode.MUL: "({a} * {b})",
    Opcode.DIV: "_div({a}, {b})",
    Opcode.MOD: "_mod({a}, {b})",
    Opcode.AND: "(1 if ({a} and {b}) else 0)",
    Opcode.ANDN: "(1 if ({a} and not {b}) else 0)",
    Opcode.OR: "(1 if ({a} or {b}) else 0)",
    Opcode.XOR: "(1 if bool({a}) != bool({b}) else 0)",
    Opcode.SHL: "({a} << {b})",
    Opcode.SHR: "({a} >> {b})",
    Opcode.CMP_EQ: "(1 if {a} == {b} else 0)",
    Opcode.CMP_NE: "(1 if {a} != {b} else 0)",
    Opcode.CMP_LT: "(1 if {a} < {b} else 0)",
    Opcode.CMP_LE: "(1 if {a} <= {b} else 0)",
    Opcode.CMP_GT: "(1 if {a} > {b} else 0)",
    Opcode.CMP_GE: "(1 if {a} >= {b} else 0)",
    Opcode.FADD: "({a} + {b})",
    Opcode.FSUB: "({a} - {b})",
    Opcode.FMUL: "({a} * {b})",
    Opcode.FDIV: "_fdiv({a}, {b})",
    Opcode.FCMP_EQ: "(1 if {a} == {b} else 0)",
    Opcode.FCMP_NE: "(1 if {a} != {b} else 0)",
    Opcode.FCMP_LT: "(1 if {a} < {b} else 0)",
    Opcode.FCMP_LE: "(1 if {a} <= {b} else 0)",
    Opcode.FCMP_GT: "(1 if {a} > {b} else 0)",
    Opcode.FCMP_GE: "(1 if {a} >= {b} else 0)",
}

#: Inline expression per unary opcode (the interpreter's _UNARY table;
#: FSQRT is special-cased in the body emitter for the no-trap rule).
_UN_EXPR = {
    Opcode.NEG: "(-{a})",
    Opcode.NOT: "(0 if {a} else 1)",
    Opcode.MOV: "{a}",
    Opcode.FNEG: "(-{a})",
    Opcode.FMOV: "{a}",
    Opcode.I2F: "float({a})",
    Opcode.F2I: "int({a})",
    Opcode.FSIN: "_sin({a})",
    Opcode.FCOS: "_cos({a})",
    Opcode.FABS: "abs({a})",
}


def touches_memory(tree: DecisionTree) -> bool:
    """Whether *tree* has a LOAD or STORE: the trees whose executions
    timed code reports to the hardware simulator one by one."""
    return any(op.opcode is Opcode.LOAD or op.opcode is Opcode.STORE
               for op in tree.ops)


class _FunctionEmitter:
    """Whole-function specialization: every tree of one function
    compiled into a single dispatch loop.

    The payoff over per-tree functions is *register residency*: a GOTO
    between two trees of the same function — the shape every source
    loop compiles to (body tree ↔ join tree) — transfers control with
    ``_t = <index>; continue`` while every register stays a Python
    local.  Per-tree functions would write all live registers back to
    the frame dict and re-load them on the next tree, which was the
    dominant per-execution cost of loop-heavy programs.

    Control returns to the interpreter loop only at CALL / RETURN /
    HALT exits (and at a tree with no true exit guard, reported as
    exit index ``-1``); the function returns ``(tree_index,
    exit_index)`` and the engine resolves the exit object.  Step
    accounting, dynamic-operation counts and per-exit tallies are kept
    in locals and folded into the interpreter in a ``finally`` (steps,
    dynamic ops) or recorded through the live per-tree count lists of
    ``interp._fcounts`` (exits), so the observable totals byte-match
    the reference interpreter — including on the error paths, where a
    mid-tree fault must leave the profile exactly as the tree-walking
    interpreter would have.
    """

    def __init__(self, function, collect_profile: bool,
                 trace_stores: bool, strict_memory: bool,
                 count_squashes: bool, timed: bool):
        self.function = function
        self.collect_profile = collect_profile
        self.trace_stores = trace_stores
        self.strict_memory = strict_memory
        self.count_squashes = count_squashes
        self.timed = timed
        #: both recording modes build each tree's memory trace
        self.trace_memory = collect_profile or timed
        self.tree_names = list(function.trees)
        self.tree_index = {name: i for i, name in enumerate(self.tree_names)}
        #: the current tree's (function, tree) key, as source text
        self.tree_key = ""
        self.lines: List[str] = []
        self.reg_var: Dict[str, str] = {}
        #: register names written by at least one op of the function
        self.written: Set[str] = set()
        #: registers guaranteed present as a number at the current
        #: program point (unguarded writes); reads of these skip the
        #: sentinel test
        self.definitely_set: Set[str] = set()
        self.uses_memory = False
        self.uses_output = False
        self.uses_check_addr = False
        #: at least one op of the current tree appends to the memory
        #: trace; other trees allocate no trace list
        self.uses_mem_trace = False
        self.any_mem_trace = False
        self.uses_rows = False
        self.uses_sink = False
        self.uses_squash = False
        self.uses_obs_execs = False

    # -- small helpers -----------------------------------------------------

    def var(self, name: str) -> str:
        var = self.reg_var.get(name)
        if var is None:
            var = self.reg_var[name] = f"_r{len(self.reg_var)}"
        return var

    def read(self, operand) -> str:
        """Expression for one data-operand read (typed junk default)."""
        if isinstance(operand, Constant):
            return repr(operand.value)
        var = self.var(operand.name)
        if operand.name in self.definitely_set:
            return var
        default = "0.0" if operand.type == FLOAT else "0"
        return f"({var} if {var} is not _M else {default})"

    def emit_guard_check(self, guard, indent: str) -> str:
        """Emit the definedness check a guard read implies (raising the
        interpreter's error) and return the guard's truth expression."""
        name = guard.reg.name
        var = self.var(name)
        if name not in self.definitely_set:
            self.lines.append(f"{indent}if {var} is _M: _ge({name!r})")
        return f"not {var}" if guard.negate else var

    # -- operation bodies --------------------------------------------------

    def emit_op_body(self, op, op_index: int, indent: str) -> None:
        opcode = op.opcode
        out: List[str] = []
        if opcode is Opcode.LOAD:
            self._emit_load(op, op_index, indent, out)
        elif opcode is Opcode.STORE:
            self._emit_store(op, op_index, indent, out)
        elif opcode is Opcode.PRINT:
            self.uses_output = True
            out.append(f"{indent}_out.append({self.read(op.srcs[0])})")
        elif opcode is Opcode.SELECT:
            dest = self.var(op.dest.name)
            out.append(f"{indent}{dest} = {self.read(op.srcs[1])} "
                       f"if {self.read(op.srcs[0])} "
                       f"else {self.read(op.srcs[2])}")
        elif opcode is Opcode.FSQRT:
            dest = self.var(op.dest.name)
            out.append(f"{indent}_v = {self.read(op.srcs[0])}")
            out.append(f"{indent}{dest} = _sqrt(_v) if _v >= 0 else 0.0")
        elif opcode in _BIN_EXPR:
            dest = self.var(op.dest.name)
            expr = _BIN_EXPR[opcode].format(
                a=self.read(op.srcs[0]), b=self.read(op.srcs[1]))
            out.append(f"{indent}{dest} = {expr}")
        else:
            dest = self.var(op.dest.name)
            expr = _UN_EXPR[opcode].format(a=self.read(op.srcs[0]))
            out.append(f"{indent}{dest} = {expr}")
        self.lines.extend(out)

    def _emit_load(self, op, op_index: int, indent: str, out: List[str]) -> None:
        self.uses_memory = True
        dest = self.var(op.dest.name)
        junk = "0.0" if op.dest.type == FLOAT else "0"
        out.append(f"{indent}_a = {self.read(op.srcs[0])}")
        out.append(f"{indent}if isinstance(_a, int) and 0 <= _a < _ml:")
        out.append(f"{indent}    {dest} = memory[_a]")
        if self.trace_memory:
            self.uses_mem_trace = True
            out.append(f"{indent}    _mt.append(({op_index}, False, "
                       f"_co.setdefault(_a, len(_co))))")
        out.append(f"{indent}else:")
        if self.strict_memory:
            self.uses_check_addr = True
            out.append(f"{indent}    _ca(_a)")
        else:
            out.append(f"{indent}    {dest} = {junk}")

    def _emit_store(self, op, op_index: int, indent: str, out: List[str]) -> None:
        self.uses_memory = True
        self.uses_check_addr = True
        out.append(f"{indent}_v = {self.read(op.srcs[0])}")
        out.append(f"{indent}_a = {self.read(op.srcs[1])}")
        out.append(f"{indent}if not (isinstance(_a, int) and 0 <= _a < _ml): "
                   f"_ca(_a)")
        out.append(f"{indent}memory[_a] = _v")
        if self.trace_stores:
            out.append(f"{indent}_st.append((_a, _v))")
        if self.trace_memory:
            self.uses_mem_trace = True
            out.append(f"{indent}_mt.append(({op_index}, True, "
                       f"_co.setdefault(_a, len(_co))))")

    # -- per-tree fragments --------------------------------------------------

    def _emit_tree(self, idx: int, tname: str) -> None:
        tree = self.function.trees[tname]
        key = repr((self.function.name, tname))
        self.tree_key = key
        self.definitely_set = set()
        self.uses_mem_trace = False
        body = self.lines
        indent = "                "

        kw = "if" if idx == 0 else "elif"
        body.append(f"            {kw} _t == {idx}:")
        body.append(f"{indent}_steps += {len(tree.ops) + 1}")
        body.append(f"{indent}if _steps > _max: _slim(_max)")
        if self.count_squashes:
            self.uses_obs_execs = True
            body.append(f"{indent}_ote[{key}] = _ote.get({key}, 0) + 1")
        if self.collect_profile:
            num_unguarded = sum(1 for op in tree.ops if op.guard is None)
            body.append(f"{indent}_c = {num_unguarded}")
        trace_mark = len(body)

        for op_index, op in enumerate(tree.ops):
            if op.guard is None:
                self.emit_op_body(op, op_index, indent)
                if op.dest is not None:
                    self.written.add(op.dest.name)
                    self.definitely_set.add(op.dest.name)
            else:
                cond = self.emit_guard_check(op.guard, indent)
                body.append(f"{indent}if {cond}:")
                if self.collect_profile:
                    body.append(f"{indent}    _c += 1")
                self.emit_op_body(op, op_index, indent + "    ")
                if self.count_squashes:
                    # squashes are rare and only counted under a
                    # tracer: direct dict increments (as the reference
                    # interpreter does) beat per-site local counters
                    # that would need flushing at every exit
                    self.uses_squash = True
                    name = op.opcode.name
                    body.append(f"{indent}else:")
                    body.append(f"{indent}    _sq[{name!r}] = "
                                f"_sq.get({name!r}, 0) + 1")
                if op.dest is not None:
                    self.written.add(op.dest.name)

        if self.uses_mem_trace:
            body.insert(trace_mark, f"{indent}_mt = []; _co = {{}}")
            self.any_mem_trace = True
        if self.collect_profile:
            body.append(f"{indent}_dyn += _c")
            if self.uses_mem_trace:
                body.append(f"{indent}if len(_mt) > 1: _rap({key}, _mt)")

        # exit selection with the exit's action inlined: control never
        # reaches a later guard once an earlier exit fired, preserving
        # the interpreter's sequential never-read-after-taken rule
        for eidx, exit_ in enumerate(tree.exits):
            if exit_.guard is None:
                self._emit_exit_action(idx, eidx, exit_, indent)
                break
            cond = self.emit_guard_check(exit_.guard, indent)
            body.append(f"{indent}if {cond}:")
            self._emit_exit_action(idx, eidx, exit_, indent + "    ")
        else:
            body.append(f"{indent}_rv = ({idx}, -1)")
            body.append(f"{indent}break")

    def _emit_exit_action(self, tree_idx: int, exit_idx: int, exit_,
                          indent: str) -> None:
        body = self.lines
        if self.timed and (self.uses_mem_trace or self.count_squashes):
            self.uses_sink = True
            trace = "_mt" if self.uses_mem_trace else "()"
            body.append(f"{indent}_hw({self.tree_key}, {exit_idx}, {trace})")
        elif self.trace_memory:
            self.uses_rows = True
            body.append(f"{indent}_cb[{tree_idx}][{exit_idx}] += 1")
        if exit_.kind is ExitKind.GOTO and exit_.target in self.tree_index:
            body.append(f"{indent}_t = {self.tree_index[exit_.target]}")
            body.append(f"{indent}continue")
        else:
            body.append(f"{indent}_rv = ({tree_idx}, {exit_idx})")
            body.append(f"{indent}break")

    # -- whole-function generation -------------------------------------------

    def generate(self) -> str:
        body = self.lines
        body.append("    try:")
        body.append("        while 1:")
        for idx, tname in enumerate(self.tree_names):
            self._emit_tree(idx, tname)
        body.append("            else:")
        body.append("                raise _ierr("
                    "'unknown tree index %d' % _t)")
        body.append("    finally:")
        body.append("        interp.steps = _steps")
        if self.collect_profile:
            body.append("        interp.profile.dynamic_operations += _dyn")
        for name in sorted(self.written):
            var = self.reg_var[name]
            body.append(f"    if {var} is not _M: regs[{name!r}] = {var}")
        body.append("    return _rv")
        return "\n".join(self._emit_header() + body) + "\n"

    def _emit_header(self) -> List[str]:
        header = ["def _func_fn(regs, memory, interp, _t):"]
        if self.reg_var:
            header.append("    _get = regs.get")
        for name, var in self.reg_var.items():
            header.append(f"    {var} = _get({name!r}, _M)")
        if self.uses_memory:
            header.append("    _ml = len(memory)")
        if self.uses_output:
            header.append("    _out = interp.output")
        if self.trace_stores:
            header.append("    _st = interp.store_trace")
        if self.uses_check_addr:
            header.append("    _ca = interp._check_addr")
        header.append("    _steps = interp.steps")
        header.append("    _max = interp.max_steps")
        if self.uses_obs_execs:
            header.append("    _ote = interp._obs_tree_execs")
        if self.uses_squash:
            header.append("    _sq = interp._obs_squashed")
        if self.collect_profile:
            header.append("    _dyn = 0")
            if self.any_mem_trace:
                header.append("    _rap = interp._count_trace")
        if self.uses_rows:
            header.append(f"    _cb = interp._fcounts[{self.function.name!r}]")
        if self.uses_sink:
            header.append("    _hw = interp._time")
        return header


def generate_function_source(function, collect_profile: bool = False,
                             trace_stores: bool = False,
                             strict_memory: bool = False,
                             count_squashes: bool = False,
                             timed: bool = False) -> str:
    """Source text of the whole-function dispatch loop for the JIT
    engine (see :class:`_FunctionEmitter`): profiled with
    *collect_profile*, or timed for the hardware simulator with *timed*.
    The text is a pure function of structure + flags and doubles as the
    bounded code cache's key — with the caveat that the function and
    tree *names* appear in profile, timing and observability keys, so
    cross-program sharing needs matching names as well as matching
    structure."""
    return _FunctionEmitter(function, collect_profile, trace_stores,
                            strict_memory, count_squashes, timed).generate()
