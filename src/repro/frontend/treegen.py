"""Decision-tree generation: CFG -> guarded trees (if-conversion).

Tree headers are the function entry, every join point (>= 2
predecessors), every back-edge target (loop header) and every call
continuation.  From each header a tree grows along forward edges through
single-predecessor non-header blocks; internal branches are if-converted:

* pure temp-producing operations are *speculated* — emitted unguarded,
  exactly as in the paper's Figure 4-2, where everything without side
  effects floats above the compare;
* operations with side effects (stores, prints), writes to variable
  registers (their old value may be needed on the other path), and
  potentially-faulting arithmetic (divisions) are *guarded* with the
  materialised path condition;
* control leaves the tree through guarded exits, one per path, in
  depth-first order; the final exit's guard is dropped (it is implied).

Guard conjunctions down the branch tree are materialised with
AND/ANDN/OR operations in the same literal-set-friendly shapes the SpD
transform uses, so :class:`~repro.ir.guard_analysis.GuardAnalysis` can
reason about them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.guards import Guard
from ..ir.operations import NO_PATH, Opcode, Operation, PathLiterals
from ..ir.program import Function
from ..ir.tree import DecisionTree, ExitKind, TreeExit
from ..ir.values import BOOL, Register
from .cfg import CFGBlock, FunctionCFG, TBranch, TCall, TJump, TReturn

__all__ = ["generate_trees"]

#: Opcodes that may fault and therefore must be guarded rather than
#: speculated (the paper's loads-don't-fault assumption covers LOADs).
_GUARDED_OPCODES = frozenset({Opcode.DIV, Opcode.MOD, Opcode.FDIV})


def _reachable(cfg: FunctionCFG) -> Set[str]:
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _find_headers(cfg: FunctionCFG, reachable: Set[str]) -> Set[str]:
    preds: Dict[str, int] = {label: 0 for label in reachable}
    call_conts: Set[str] = set()
    for label in reachable:
        term = cfg.blocks[label].term
        for succ in cfg.successors(label):
            preds[succ] += 1
        if isinstance(term, TCall):
            call_conts.add(term.cont)

    # back edges via iterative DFS with an explicit on-stack set
    back_targets: Set[str] = set()
    color: Dict[str, int] = {}  # 0 unseen / 1 on stack / 2 done
    stack: List[Tuple[str, int]] = [(cfg.entry, 0)]
    color[cfg.entry] = 1
    while stack:
        label, child = stack[-1]
        succs = cfg.successors(label)
        if child < len(succs):
            stack[-1] = (label, child + 1)
            succ = succs[child]
            state = color.get(succ, 0)
            if state == 1:
                back_targets.add(succ)
            elif state == 0:
                color[succ] = 1
                stack.append((succ, 0))
        else:
            color[label] = 2
            stack.pop()

    headers = {cfg.entry} | call_conts | back_targets
    headers |= {label for label, count in preds.items() if count >= 2}
    return headers


class _TreeEmitter:
    def __init__(self, cfg: FunctionCFG, headers: Set[str], header: str):
        self.cfg = cfg
        self.headers = headers
        self.tree = DecisionTree(f"{cfg.name}.{header}")
        self._conj_cache: Dict[Tuple[str, bool, str, bool], Guard] = {}

    # -- guard materialisation ------------------------------------------------

    def _conjoin(self, base: Optional[Guard], cond: Register,
                 positive: bool) -> Guard:
        """Guard for ``base AND (cond == positive)``."""
        if base is None:
            return Guard(cond, negate=not positive)
        key = (base.reg.name, base.negate, cond.name, positive)
        cached = self._conj_cache.get(key)
        if cached is not None:
            return cached
        dest = self.tree.fresh_register(BOOL, "g")
        if positive:
            opcode = Opcode.ANDN if base.negate else Opcode.AND
            self._append(Operation(self.tree.fresh_op_id(), opcode,
                                   dest=dest, srcs=(cond, base.reg)))
            guard = Guard(dest)
        elif not base.negate:
            self._append(Operation(self.tree.fresh_op_id(), Opcode.ANDN,
                                   dest=dest, srcs=(base.reg, cond)))
            guard = Guard(dest)
        else:
            # NOT base AND NOT cond == NOT (base OR cond)
            self._append(Operation(self.tree.fresh_op_id(), Opcode.OR,
                                   dest=dest, srcs=(base.reg, cond)))
            guard = Guard(dest, negate=True)
        self._conj_cache[key] = guard
        return guard

    def _append(self, op: Operation) -> None:
        self.tree.append(op)

    # -- emission --------------------------------------------------------------

    def emit(self, label: str, guard: Optional[Guard],
             path: PathLiterals) -> None:
        block = self.cfg.blocks[label]
        for op in block.ops:
            needs_guard = (
                op.has_side_effect
                or op.opcode in _GUARDED_OPCODES
                or (op.dest is not None and op.dest.is_variable)
            )
            if guard is not None and needs_guard:
                emitted = Operation(self.tree.fresh_op_id(), op.opcode,
                                    dest=op.dest, srcs=op.srcs, guard=guard,
                                    path_literals=path, access=op.access)
            else:
                emitted = Operation(self.tree.fresh_op_id(), op.opcode,
                                    dest=op.dest, srcs=op.srcs,
                                    path_literals=NO_PATH,
                                    access=op.access)
            self._append(emitted)
        self._emit_terminator(block, guard, path)

    def _inlineable(self, label: str) -> bool:
        return label not in self.headers

    def _emit_terminator(self, block: CFGBlock, guard: Optional[Guard],
                         path: PathLiterals) -> None:
        term = block.term
        if isinstance(term, TJump):
            self._follow(term.target, guard, path)
        elif isinstance(term, TBranch):
            if term.true_target == term.false_target:
                self._follow(term.true_target, guard, path)
                return
            true_guard = self._conjoin(guard, term.cond, True)
            false_guard = self._conjoin(guard, term.cond, False)
            true_path = path | {(term.cond.name, True)}
            false_path = path | {(term.cond.name, False)}
            self._follow(term.true_target, true_guard, true_path)
            self._follow(term.false_target, false_guard, false_path)
        elif isinstance(term, TCall):
            self.tree.exits.append(TreeExit(
                kind=ExitKind.CALL, guard=guard,
                target=f"{self.cfg.name}.{term.cont}", callee=term.callee,
                args=term.args, result=term.dest, path_literals=path))
        elif isinstance(term, TReturn):
            self.tree.exits.append(TreeExit(
                kind=ExitKind.RETURN, guard=guard, value=term.value,
                path_literals=path))
        else:  # pragma: no cover - lowering always terminates blocks
            raise AssertionError(f"unterminated block {block.label}")

    def _follow(self, target: str, guard: Optional[Guard],
                path: PathLiterals) -> None:
        if self._inlineable(target):
            self.emit(target, guard, path)
        else:
            self.tree.exits.append(TreeExit(
                kind=ExitKind.GOTO, guard=guard,
                target=f"{self.cfg.name}.{target}", path_literals=path))

    def finish(self) -> DecisionTree:
        # the final exit's guard is implied by all earlier guards failing
        if self.tree.exits:
            last = self.tree.exits[-1]
            if last.guard is not None:
                self.tree.exits[-1] = TreeExit(
                    kind=last.kind, guard=None, target=last.target,
                    callee=last.callee, args=last.args, result=last.result,
                    value=last.value, path_literals=last.path_literals)
        return self.tree


def generate_trees(cfg: FunctionCFG) -> Function:
    """Convert a lowered CFG into a function of decision trees."""
    reachable = _reachable(cfg)
    headers = _find_headers(cfg, reachable)
    function = Function(cfg.name, params=list(cfg.params),
                        return_type=cfg.return_type,
                        local_arrays=list(cfg.local_arrays))
    entry_name = f"{cfg.name}.{cfg.entry}"
    for header in sorted(headers & reachable):
        emitter = _TreeEmitter(cfg, headers, header)
        emitter.emit(header, None, NO_PATH)
        function.add_tree(emitter.finish())
    function.entry = entry_name
    return function
