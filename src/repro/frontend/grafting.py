"""Grafting: enlarging decision trees by tail duplication.

Paper Section 7 (future work): "Our experience with the Stanford
Integer Benchmarks shows that the trees in integer programs are often
too small to have pairs of ambiguous memory references.  Enlarging
trees through code replication techniques such as *grafting* should
expose more opportunities for applying SpD."

Grafting inlines the body of a small successor tree into the GOTO exit
that targets it: the callee's operations are appended (guard-conjoined
with the exit's path condition, temporaries renamed fresh) and the exit
is replaced by the callee's exits (likewise conjoined).  The target
tree itself stays in the function — other predecessors may still jump
to it; unreachable trees are pruned at the end.

Restrictions keeping the transform simple and obviously sound:

* only GOTO exits are grafted (CALL/RETURN exits stay);
* a tree is never grafted into itself (loop back edges survive);
* growth is bounded per tree (``max_growth``) and graft targets are
  size-capped (``max_target_size``).

Grafting is a plain function on a compiled program, not a pass:
:class:`repro.pipeline.core.Pipeline` calls :func:`graft_program`
between compilation and profiling when its ``graft`` option is set.
Profiles are tree-structure-specific, so the grafted program is the
one that gets profiled (see also the grafting ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..ir.guards import Guard
from ..ir.operations import NO_PATH, Opcode, Operation
from ..ir.program import Function, Program
from ..ir.tree import DecisionTree, ExitKind, TreeExit
from ..ir.validate import validate_program
from ..ir.values import BOOL, Operand, Register

__all__ = ["GraftConfig", "GraftStats", "graft_program"]


@dataclass(frozen=True)
class GraftConfig:
    """Bounds on tail duplication."""

    max_target_size: int = 24   #: largest tree (in ops) worth inlining
    max_growth: float = 3.0     #: per-tree size bound relative to original
    max_passes: int = 3         #: graft rounds (a graft can enable another)

    def __post_init__(self) -> None:
        if self.max_target_size < 1:
            raise ValueError("max_target_size must be >= 1")
        if self.max_growth < 1.0:
            raise ValueError("max_growth must be >= 1.0")


@dataclass
class GraftStats:
    """What grafting did to a program."""

    grafts: int = 0
    trees_removed: int = 0
    ops_before: int = 0
    ops_after: int = 0

    @property
    def growth(self) -> float:
        if not self.ops_before:
            return 0.0
        return self.ops_after / self.ops_before - 1.0


class _Grafter:
    def __init__(self, function: Function, config: GraftConfig):
        self.function = function
        self.config = config
        self.base_sizes = {name: tree.size()
                           for name, tree in function.trees.items()}

    # -- guard plumbing ------------------------------------------------------

    def _conjoin(self, tree: DecisionTree, sink: List[Operation],
                 base: Optional[Guard], extra: Optional[Guard]) -> Optional[Guard]:
        """Guard for ``base AND extra``, materialising one op if needed."""
        if extra is None:
            return base
        if base is None:
            return extra
        if base == extra:
            return base
        dest = tree.fresh_register(BOOL, "g")
        if not base.negate and not extra.negate:
            op = Operation(tree.fresh_op_id(), Opcode.AND, dest=dest,
                           srcs=(base.reg, extra.reg))
            guard = Guard(dest)
        elif not base.negate:
            op = Operation(tree.fresh_op_id(), Opcode.ANDN, dest=dest,
                           srcs=(base.reg, extra.reg))
            guard = Guard(dest)
        elif not extra.negate:
            op = Operation(tree.fresh_op_id(), Opcode.ANDN, dest=dest,
                           srcs=(extra.reg, base.reg))
            guard = Guard(dest)
        else:
            # NOT a AND NOT b == NOT (a OR b)
            op = Operation(tree.fresh_op_id(), Opcode.OR, dest=dest,
                           srcs=(base.reg, extra.reg))
            guard = Guard(dest, negate=True)
        sink.append(op)
        return guard

    # -- the graft -----------------------------------------------------------

    def _graftable_exit(self, tree: DecisionTree) -> Optional[int]:
        """Index of the first GOTO exit worth grafting, or None."""
        budget = int(self.base_sizes[tree.name] * self.config.max_growth)
        for index, exit_ in enumerate(tree.exits):
            if exit_.kind is not ExitKind.GOTO:
                continue
            target = self.function.trees.get(exit_.target)
            if target is None or target.name == tree.name:
                continue
            if target.size() > self.config.max_target_size:
                continue
            # the target must not jump straight back into this tree or
            # itself (that would be a loop body, not a tail)
            if any(e.target in (tree.name, target.name)
                   for e in target.exits if e.target is not None):
                continue
            if tree.size() + target.size() > budget:
                continue
            return index
        return None

    def _reach_guard(self, tree: DecisionTree, sink: List[Operation],
                     index: int) -> Optional[Guard]:
        """The condition under which exit *index* is actually taken.

        Non-last exits carry their full path condition already (treegen
        materialises mutually exclusive guards).  The last exit's guard
        is implied — None — so for *guarding inlined side effects* it
        must be reconstructed as the conjunction of the earlier exits'
        inverted guards.
        """
        exit_ = tree.exits[index]
        if exit_.guard is not None:
            return exit_.guard
        acc: Optional[Guard] = None
        for earlier in tree.exits[:index]:
            if earlier.guard is None:
                continue
            acc = self._conjoin(tree, sink, acc, earlier.guard.inverted())
        return acc

    def graft_one(self, tree: DecisionTree) -> bool:
        """Graft one exit of *tree*; True if anything changed."""
        index = self._graftable_exit(tree)
        if index is None:
            return False
        exit_ = tree.exits[index]
        target = self.function.trees[exit_.target]

        # rename the target's temporaries so they cannot collide with
        # this tree's (variable registers are shared on purpose)
        rename: Dict[str, Register] = {}

        def mapped(reg: Register) -> Register:
            if reg.is_variable:
                return reg
            fresh = rename.get(reg.name)
            if fresh is None:
                fresh = tree.fresh_register(reg.type, "gr")
                rename[reg.name] = fresh
            return fresh

        def map_operand(operand: Operand) -> Operand:
            if isinstance(operand, Register):
                return mapped(operand)
            return operand

        def map_guard(guard: Optional[Guard]) -> Optional[Guard]:
            if guard is None:
                return None
            return Guard(mapped(guard.reg), guard.negate)

        new_ops: List[Operation] = []
        path = exit_.path_literals
        reach = self._reach_guard(tree, new_ops, index)
        for op in target.ops:
            inlined_guard = self._conjoin(
                tree, new_ops, reach, map_guard(op.guard))
            needs_guard = (op.has_side_effect
                           or op.opcode in (Opcode.DIV, Opcode.MOD, Opcode.FDIV)
                           or (op.dest is not None and op.dest.is_variable))
            new_ops.append(Operation(
                op_id=tree.fresh_op_id(),
                opcode=op.opcode,
                dest=mapped(op.dest) if op.dest is not None else None,
                srcs=tuple(map_operand(s) for s in op.srcs),
                guard=inlined_guard if needs_guard else map_guard(op.guard),
                path_literals=path | op.path_literals or NO_PATH,
                access=op.access,
            ))

        new_exits: List[TreeExit] = []
        # Spliced exits must carry COMPLETE path conditions, not just
        # reach AND sub-guard: order alone would select correctly, but
        # a later graft pass derives its reach from a spliced exit's
        # guard (see _reach_guard) and trusts it to be the full path
        # condition.  The target's final fallback exit (guard None) is
        # the subtle case — its complete condition is "no earlier
        # sub-exit fired", accumulated below; guarding its copy with
        # bare reach would let a second-round graft execute inlined
        # side effects on paths where an earlier spliced exit was
        # taken (observed as a doubled loop increment).
        none_earlier: Optional[Guard] = None
        last_index = len(target.exits) - 1
        for sub_index, sub_exit in enumerate(target.exits):
            sub_guard = map_guard(sub_exit.guard)
            if sub_guard is None and sub_index == last_index:
                sub_guard = none_earlier
            elif sub_guard is not None and sub_index != last_index:
                none_earlier = self._conjoin(tree, new_ops, none_earlier,
                                             sub_guard.inverted())
            guard = self._conjoin(tree, new_ops, reach, sub_guard)
            new_exits.append(TreeExit(
                kind=sub_exit.kind,
                guard=guard,
                target=sub_exit.target,
                callee=sub_exit.callee,
                args=tuple(map_operand(a) for a in sub_exit.args),
                result=sub_exit.result,
                value=(map_operand(sub_exit.value)
                       if sub_exit.value is not None else None),
                path_literals=path | sub_exit.path_literals or NO_PATH,
            ))

        tree.ops.extend(new_ops)
        tree.exits[index:index + 1] = new_exits
        # first-true-wins order is preserved: the inlined exits occupy
        # the grafted exit's slot and fire exactly when it would have
        self._fix_last_exit(tree)
        return True

    @staticmethod
    def _fix_last_exit(tree: DecisionTree) -> None:
        """Keep the 'last exit unconditional' invariant after splicing."""
        last = tree.exits[-1]
        if last.guard is not None:
            tree.exits[-1] = TreeExit(
                kind=last.kind, guard=None, target=last.target,
                callee=last.callee, args=last.args, result=last.result,
                value=last.value, path_literals=last.path_literals)


def _prune_unreachable(function: Function) -> int:
    """Drop trees no longer reachable from the entry (within the
    function; call continuations are reachable via their CALL exits)."""
    reachable: Set[str] = set()
    stack = [function.entry]
    while stack:
        name = stack.pop()
        if name in reachable or name not in function.trees:
            continue
        reachable.add(name)
        for exit_ in function.trees[name].exits:
            if exit_.target is not None:
                stack.append(exit_.target)
    removed = [name for name in function.trees if name not in reachable]
    for name in removed:
        del function.trees[name]
    return len(removed)


def graft_program(program: Program,
                  config: GraftConfig = GraftConfig()) -> Tuple[Program, GraftStats]:
    """Return a grafted copy of *program* plus statistics.

    The input program is not modified.  The result is validated; its
    observable behaviour is identical (tested property-based), but its
    decision trees are larger, which is the point.
    """
    with obs.span("frontend.graft") as span:
        grafted = program.copy()
        stats = GraftStats(ops_before=program.size())
        for function in grafted.functions.values():
            grafter = _Grafter(function, config)
            for _pass in range(config.max_passes):
                changed = False
                for tree in list(function.trees.values()):
                    while grafter.graft_one(tree):
                        stats.grafts += 1
                        changed = True
                if not changed:
                    break
            stats.trees_removed += _prune_unreachable(function)
        stats.ops_after = grafted.size()
        validate_program(grafted)
        span.incr("grafts", stats.grafts)
        span.incr("trees_removed", stats.trees_removed)
        span.annotate(ops_before=stats.ops_before, ops_after=stats.ops_after)
    return grafted, stats

