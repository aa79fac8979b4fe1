"""Guard-aware cleanup passes: constant folding, copy propagation, DCE.

Speculative disambiguation pays for dependence freedom with code: address
compares, guard conjunctions, forwarding MOVs and a replicated
dependence cone per application (paper Figure 6-4).  A real compiler
recovers part of that expansion with ordinary clean-up optimizations
running *after* the speculation pass; these three passes reproduce that
step for the decision-tree IR.

All three are guard-aware and exit-preserving:

* ``constfold`` folds tree operations whose operands are all constants
  into ``MOV #c`` (guards and path literals kept), and propagates the
  constants of unguarded single-definition ``MOV #c`` ops into later
  reads — including exit operands — to a fixpoint.
* ``copyprop`` forwards unguarded single-definition register copies
  (``d = MOV s``) into later data reads, guard reads (same-register
  boolean copies) and exit operands, leaving the copy itself for DCE.
* ``dce`` removes operations that can never commit — a guard proven
  contradictory by :class:`~repro.ir.guard_analysis.GuardAnalysis`, or
  statically false via a constant guard definition — strips guards that
  are statically true, and deletes side-effect-free definitions of
  temporaries no operation or exit ever reads.

Exits are never added, removed or reordered: path-probability profiles
are keyed by exit index, so the exit list is load-bearing for every
profile consumer downstream.

Folding evaluates opcodes with the *interpreter's own* semantic tables
(`repro.sim.interpreter._BINARY` / ``_UNARY``) so a folded constant is
bit-identical to what the functional simulator would have computed;
anything that could fault at fold time (division by zero, negative
shifts, negative sqrt) is simply left unfolded.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Tuple, Type

from ..ir.guard_analysis import GuardAnalysis
from ..ir.guards import Guard
from ..ir.operations import Opcode, Operation
from ..ir.program import Program
from ..ir.tree import DecisionTree
from ..ir.values import BOOL, Constant, FLOAT, Register
from ..sim.interpreter import _BINARY, _UNARY, InterpreterError
from .base import Pass, PassContext, PassResult

__all__ = [
    "CLEANUP_PASSES",
    "DEFAULT_CLEANUP",
    "ConstantFoldingPass",
    "CopyPropagationPass",
    "DeadCodeEliminationPass",
    "fold_constants",
    "propagate_copies",
    "eliminate_dead_code",
]

#: Opcodes never folded: memory and output ops have non-register
#: effects, MOV/FMOV of a constant already *is* the folded form.
_NEVER_FOLDED = frozenset(
    {Opcode.LOAD, Opcode.STORE, Opcode.PRINT, Opcode.MOV, Opcode.FMOV}
)

#: Largest constant shift amount worth materialising.
_MAX_SHIFT = 128

#: Logical operations with algebraic identities under one constant
#: operand (the interpreter normalises their results to 0/1).
_LOGICAL_OPS = frozenset({Opcode.AND, Opcode.ANDN, Opcode.OR, Opcode.XOR})


# ---------------------------------------------------------------------------
# shared small analyses
# ---------------------------------------------------------------------------


def _defs_by_name(ops: List[Operation]) -> Dict[str, List[int]]:
    defs: Dict[str, List[int]] = {}
    for pos, op in enumerate(ops):
        if op.dest is not None:
            defs.setdefault(op.dest.name, []).append(pos)
    return defs


def _read_names(tree: DecisionTree) -> set:
    """Names of every register read by any op (data or guard) or exit."""
    read = set()
    for op in tree.ops:
        for reg in op.source_registers():
            read.add(reg.name)
    for exit_ in tree.exits:
        for reg in exit_.source_registers():
            read.add(reg.name)
    return read


def _const_defs(
    ops: List[Operation], defs: Dict[str, List[int]]
) -> Dict[str, Tuple[int, Constant]]:
    """dest name -> (position, constant) for every unguarded,
    single-definition ``MOV/FMOV #c`` in the tree."""
    consts: Dict[str, Tuple[int, Constant]] = {}
    for pos, op in enumerate(ops):
        if op.opcode not in (Opcode.MOV, Opcode.FMOV):
            continue
        if op.guard is not None or op.dest is None:
            continue
        if not isinstance(op.srcs[0], Constant):
            continue
        if len(defs[op.dest.name]) != 1:
            continue
        consts[op.dest.name] = (pos, op.srcs[0])
    return consts


def _mov_for(dest: Register) -> Opcode:
    return Opcode.FMOV if dest.type == FLOAT else Opcode.MOV


# ---------------------------------------------------------------------------
# constant folding (+ constant propagation)
# ---------------------------------------------------------------------------


def _logical_identity(op: Operation) -> Optional[Operation]:
    """Simplify a logical op with exactly one constant operand.

    AND/ANDN/OR/XOR normalise their result to 0/1, so with one operand
    known the op reduces to a constant, a NOT, or a copy of the other
    operand.  The copy forms are only exact when the surviving operand
    is itself 0/1-valued, i.e. a BOOL register; guard registers are
    where these patterns arise (grafting and SpD conjoin reach
    conditions with AND/ANDN, and constant folding of an address or
    branch compare feeds a literal into them).  Leaving such ops
    unfolded is not merely a missed win: a constant operand breaks the
    complementary AND/ANDN shape that
    :class:`~repro.ir.guard_analysis.GuardAnalysis` matches to prove the
    two versions disjoint, and the dependence builder then serialises
    them — cleanup would make the tree *slower* than the uncleaned one.
    """
    const_pos = [i for i, s in enumerate(op.srcs) if isinstance(s, Constant)]
    if len(const_pos) != 1:
        return None
    truth = bool(op.srcs[const_pos[0]].value)
    other = op.srcs[1 - const_pos[0]]

    def to_const(value: int) -> Operation:
        return dc_replace(op, opcode=Opcode.MOV, srcs=(Constant(value),))

    def to_copy() -> Optional[Operation]:
        if isinstance(other, Register) and other.type != BOOL:
            return None  # copy would skip the 0/1 normalisation
        return dc_replace(op, opcode=Opcode.MOV, srcs=(other,))

    def to_not() -> Operation:
        return dc_replace(op, opcode=Opcode.NOT, srcs=(other,))

    if op.opcode is Opcode.AND:
        return to_copy() if truth else to_const(0)
    if op.opcode is Opcode.OR:
        return to_const(1) if truth else to_copy()
    if op.opcode is Opcode.XOR:
        return to_not() if truth else to_copy()
    if op.opcode is Opcode.ANDN:  # a AND NOT b
        if const_pos[0] == 0:  # a constant
            return to_not() if truth else to_const(0)
        return to_const(0) if truth else to_copy()
    return None


def _fold_once(tree: DecisionTree) -> int:
    ops = tree.ops
    folded = 0
    for pos, op in enumerate(ops):
        if op.opcode in _NEVER_FOLDED:
            continue
        if op.opcode in _LOGICAL_OPS:
            simplified = _logical_identity(op)
            if simplified is not None:
                ops[pos] = simplified
                folded += 1
                continue
        if op.opcode is Opcode.SELECT:
            if not isinstance(op.srcs[0], Constant):
                continue
            picked = op.srcs[1] if op.srcs[0].value else op.srcs[2]
            ops[pos] = Operation(
                op_id=op.op_id,
                opcode=_mov_for(op.dest),
                dest=op.dest,
                srcs=(picked,),
                guard=op.guard,
                path_literals=op.path_literals,
            )
            folded += 1
            continue
        if not all(isinstance(src, Constant) for src in op.srcs):
            continue
        values = [src.value for src in op.srcs]
        if op.opcode in (Opcode.SHL, Opcode.SHR):
            if not 0 <= values[1] <= _MAX_SHIFT:
                continue
        try:
            if op.opcode in _BINARY:
                value = _BINARY[op.opcode](values[0], values[1])
            elif op.opcode is Opcode.FSQRT:
                if values[0] < 0:
                    continue
                value = _UNARY[op.opcode](values[0])
            elif op.opcode in _UNARY:
                value = _UNARY[op.opcode](values[0])
            else:
                continue
        except (InterpreterError, ValueError, ZeroDivisionError, OverflowError):
            continue  # would fault at run time: leave it to the guard
        ops[pos] = Operation(
            op_id=op.op_id,
            opcode=_mov_for(op.dest),
            dest=op.dest,
            srcs=(Constant(value),),
            guard=op.guard,
            path_literals=op.path_literals,
        )
        folded += 1
    return folded


def _propagate_constants_once(tree: DecisionTree) -> int:
    ops = tree.ops
    consts = _const_defs(ops, _defs_by_name(ops))
    if not consts:
        return 0
    replaced = 0
    for pos, op in enumerate(ops):
        new_srcs = []
        dirty = False
        for src in op.srcs:
            if isinstance(src, Register):
                entry = consts.get(src.name)
                if entry is not None and entry[0] < pos:
                    new_srcs.append(entry[1])
                    dirty = True
                    replaced += 1
                    continue
            new_srcs.append(src)
        if dirty:
            ops[pos] = op.with_srcs(tuple(new_srcs))
    for idx, exit_ in enumerate(tree.exits):
        fields: Dict[str, object] = {}
        args = tuple(
            consts[a.name][1]
            if isinstance(a, Register) and a.name in consts
            else a
            for a in exit_.args
        )
        if args != exit_.args:
            fields["args"] = args
            replaced += sum(1 for a, b in zip(args, exit_.args) if a is not b)
        value = exit_.value
        if isinstance(value, Register) and value.name in consts:
            fields["value"] = consts[value.name][1]
            replaced += 1
        if fields:
            tree.exits[idx] = dc_replace(exit_, **fields)
    return replaced


def fold_constants(tree: DecisionTree) -> Dict[str, int]:
    """Fold and propagate constants in *tree* to a fixpoint."""
    stats = {"folded": 0, "const_reads": 0}
    while True:
        folded = _fold_once(tree)
        propagated = _propagate_constants_once(tree)
        stats["folded"] += folded
        stats["const_reads"] += propagated
        if not folded and not propagated:
            return stats


# ---------------------------------------------------------------------------
# copy propagation
# ---------------------------------------------------------------------------


def _propagate_copies_once(tree: DecisionTree) -> int:
    ops = tree.ops
    defs = _defs_by_name(ops)
    copies: Dict[str, Tuple[int, Register]] = {}
    for pos, op in enumerate(ops):
        if op.opcode not in (Opcode.MOV, Opcode.FMOV) or op.guard is not None:
            continue
        src = op.srcs[0]
        if not isinstance(src, Register) or op.dest is None:
            continue
        if src.name == op.dest.name:
            continue
        if len(defs[op.dest.name]) != 1:
            continue
        # the source must keep its value for the rest of the tree —
        # every definition of it has to precede the copy
        if any(d >= pos for d in defs.get(src.name, ())):
            continue
        copies[op.dest.name] = (pos, src)

    if not copies:
        return 0

    def forward(reg: Register, at: int) -> Optional[Register]:
        entry = copies.get(reg.name)
        if entry is not None and entry[0] < at:
            return entry[1]
        return None

    replaced = 0
    for pos, op in enumerate(ops):
        new_srcs = []
        dirty = False
        for src in op.srcs:
            fwd = forward(src, pos) if isinstance(src, Register) else None
            if fwd is not None:
                new_srcs.append(fwd)
                dirty = True
                replaced += 1
            else:
                new_srcs.append(src)
        guard = op.guard
        if guard is not None:
            fwd = forward(guard.reg, pos)
            if fwd is not None and fwd.type == BOOL:
                guard = Guard(fwd, guard.negate)
                dirty = True
                replaced += 1
        if dirty:
            ops[pos] = dc_replace(op, srcs=tuple(new_srcs), guard=guard)
    end = len(ops)
    for idx, exit_ in enumerate(tree.exits):
        fields: Dict[str, object] = {}
        args = tuple(
            forward(a, end) or a if isinstance(a, Register) else a
            for a in exit_.args
        )
        if args != exit_.args:
            fields["args"] = args
            replaced += sum(1 for a, b in zip(args, exit_.args) if a is not b)
        if isinstance(exit_.value, Register):
            fwd = forward(exit_.value, end)
            if fwd is not None:
                fields["value"] = fwd
                replaced += 1
        if exit_.guard is not None:
            fwd = forward(exit_.guard.reg, end)
            if fwd is not None and fwd.type == BOOL:
                fields["guard"] = Guard(fwd, exit_.guard.negate)
                replaced += 1
        if fields:
            tree.exits[idx] = dc_replace(exit_, **fields)
    return replaced


def propagate_copies(tree: DecisionTree) -> Dict[str, int]:
    """Forward register copies in *tree* to a fixpoint."""
    stats = {"copy_reads": 0}
    while True:
        replaced = _propagate_copies_once(tree)
        if not replaced:
            return stats
        stats["copy_reads"] += replaced


# ---------------------------------------------------------------------------
# dead-code elimination
# ---------------------------------------------------------------------------


def _guard_verdict(
    op_pos: int,
    guard: Guard,
    consts: Dict[str, Tuple[int, Constant]],
    analysis: GuardAnalysis,
) -> Optional[bool]:
    """Statically decide a guard: True (always commits), False (never
    commits), or None (unknown)."""
    entry = consts.get(guard.reg.name)
    if entry is not None and entry[0] < op_pos:
        truth = bool(entry[1].value)
        return (not truth) if guard.negate else truth
    literals = analysis.guard_literals(guard)
    if literals is not None:
        if any((atom, not pol) in literals for atom, pol in literals):
            return False  # contradictory conjunction: can never be true
    return None


def _dce_once(tree: DecisionTree, stats: Dict[str, int]) -> bool:
    ops = tree.ops
    defs = _defs_by_name(ops)
    consts = _const_defs(ops, defs)
    analysis = GuardAnalysis(tree)
    read = _read_names(tree)
    kept: List[Operation] = []
    changed = False
    for pos, op in enumerate(ops):
        if op.guard is not None:
            verdict = _guard_verdict(pos, op.guard, consts, analysis)
            if verdict is False:
                # a never-committing op is a no-op; removing a temporary
                # definition additionally requires that nothing reads the
                # register, so the def-before-use discipline survives
                removable = (
                    op.has_side_effect
                    or op.dest is None
                    or op.dest.is_variable
                    or op.dest.name not in read
                )
                if removable:
                    stats["never_committing"] += 1
                    changed = True
                    continue
            elif verdict is True:
                op = op.with_guard(None)
                stats["guards_stripped"] += 1
                changed = True
        if (
            not op.has_side_effect
            and op.dest is not None
            and not op.dest.is_variable
            and op.dest.name not in read
        ):
            stats["unread"] += 1
            changed = True
            continue
        kept.append(op)
    tree.ops = kept
    return changed


def eliminate_dead_code(tree: DecisionTree) -> Dict[str, int]:
    """Remove dead and never-committing code from *tree* to a fixpoint."""
    stats = {"unread": 0, "never_committing": 0, "guards_stripped": 0}
    while _dce_once(tree, stats):
        pass
    return stats


# ---------------------------------------------------------------------------
# pass wrappers
# ---------------------------------------------------------------------------


class _TreeCleanupPass(Pass):
    """Shared driver: apply a per-tree rewrite across the program."""

    def rewrite(self, tree: DecisionTree) -> Dict[str, int]:
        raise NotImplementedError

    def run(self, program: Program, ctx: PassContext) -> PassResult:
        totals: Dict[str, int] = {}
        for _function_name, tree in program.all_trees():
            for key, count in self.rewrite(tree).items():
                totals[key] = totals.get(key, 0) + count
        return PassResult(
            program,
            changed=any(totals.values()),
            stats=totals,
        )


class ConstantFoldingPass(_TreeCleanupPass):
    name = "constfold"
    description = "fold constant tree operations and propagate the results"

    def rewrite(self, tree: DecisionTree) -> Dict[str, int]:
        return fold_constants(tree)


class CopyPropagationPass(_TreeCleanupPass):
    name = "copyprop"
    description = "forward unguarded register copies into their readers"

    def rewrite(self, tree: DecisionTree) -> Dict[str, int]:
        return propagate_copies(tree)


class DeadCodeEliminationPass(_TreeCleanupPass):
    name = "dce"
    description = "remove never-committing guarded ops and unread temporaries"

    def rewrite(self, tree: DecisionTree) -> Dict[str, int]:
        return eliminate_dead_code(tree)


#: Name -> class of every cleanup pass (``--passes``, ``repro passes``).
CLEANUP_PASSES: Dict[str, Type[Pass]] = {
    cls.name: cls
    for cls in (ConstantFoldingPass, CopyPropagationPass, DeadCodeEliminationPass)
}

#: The recommended cleanup sequence: folding first (it feeds copies),
#: then register-copy propagation, then guard-aware dead-code
#: elimination to sweep up everything the first two orphaned.
DEFAULT_CLEANUP: Tuple[str, ...] = ("constfold", "copyprop", "dce")
