"""Decision trees: the scheduling unit of the guarded LIFE machine.

A decision tree (paper Section 4.1, after Hsu & Davidson) is the largest
group of basic blocks with a single entry point, multiple exit points and
no backward edges.  If-conversion folds the tree's internal branches into
guards, so a tree is represented here as a *flat, sequentially ordered*
list of guarded operations followed by an ordered list of exits.

Sequential semantics (what the functional simulator executes, and the
reference against which every transformation is validated):

1. Execute the operations in list order; an operation whose guard
   evaluates false is skipped.
2. Evaluate the exits in list order; the first exit whose guard
   evaluates true is taken (the last exit must be unconditional).

The scheduler and timing models are free to reorder operations subject
to the dependence graph; list order itself carries no timing meaning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import obs
from .frozen import slotted
from .guards import Guard
from .operations import NO_PATH, Operation, PathLiterals
from .values import Operand, Register

__all__ = ["ExitKind", "TreeExit", "DecisionTree"]

#: The fields a loaded tree keeps packed until one of them is read.
_PACKED_FIELDS = ("ops", "exits", "spd_resolved", "next_op_id",
                  "next_temp_id")


class ExitKind(enum.Enum):
    """How control leaves a decision tree."""
    GOTO = "goto"      #: jump to another tree in the same function
    CALL = "call"      #: call a function, then continue at another tree
    RETURN = "return"  #: return (with optional value) to the caller
    HALT = "halt"      #: end the program (only valid in main)


@slotted
@dataclass(frozen=True)
class TreeExit:
    """One exit point of a decision tree.

    ``guard`` follows the same semantics as operation guards.  ``target``
    names the continuation tree for GOTO and CALL; for CALL, control
    resumes at ``target`` after the callee returns.  ``path_literals``
    identifies the branch path this exit terminates, which is the key
    used for path-probability profiling.
    """

    kind: ExitKind
    guard: Optional[Guard] = None
    target: Optional[str] = None
    callee: Optional[str] = None
    args: Tuple[Operand, ...] = ()
    result: Optional[Register] = None          # CALL: register receiving the return value
    value: Optional[Operand] = None            # RETURN: returned operand
    path_literals: PathLiterals = NO_PATH

    def __post_init__(self) -> None:
        if self.kind in (ExitKind.GOTO, ExitKind.CALL) and self.target is None:
            raise ValueError(f"{self.kind} exit requires a target tree")
        if self.kind is ExitKind.CALL and self.callee is None:
            raise ValueError("CALL exit requires a callee")

    def source_registers(self) -> Tuple[Register, ...]:
        regs = [a for a in self.args if isinstance(a, Register)]
        if isinstance(self.value, Register):
            regs.append(self.value)
        if self.guard is not None:
            regs.append(self.guard.reg)
        return tuple(regs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        guard = f"{self.guard!r} " if self.guard else ""
        if self.kind is ExitKind.GOTO:
            return f"<exit {guard}goto {self.target}>"
        if self.kind is ExitKind.CALL:
            return f"<exit {guard}call {self.callee} -> {self.target}>"
        if self.kind is ExitKind.RETURN:
            return f"<exit {guard}return {self.value!r}>"
        return f"<exit {guard}halt>"


@dataclass
class DecisionTree:
    """A guarded, if-converted decision tree.

    ``ops`` is the sequential operation list; ``exits`` the ordered exit
    list.  ``spd_resolved`` records (earlier_op_id, later_op_id) pairs
    whose ambiguous memory dependence has been *resolved* by speculative
    disambiguation — the dependence builder must not re-create an
    ambiguous arc for them.

    A tree pickles as its name, its size and one flat tuple of atomic
    values (:mod:`repro.ir.treepack`).  A loaded tree holds only those
    until one of the other fields is first read, which decodes all of
    them into plain instance attributes and counts
    ``ir.trees_decoded``; :meth:`size` answers without decoding, and an
    undecoded tree pickles its tuple back unchanged.
    """

    name: str
    ops: List[Operation] = field(default_factory=list)
    exits: List[TreeExit] = field(default_factory=list)
    spd_resolved: set = field(default_factory=set)
    next_op_id: int = 0
    next_temp_id: int = 0

    # -- pickling ---------------------------------------------------------

    def _still_packed(self) -> bool:
        state = self.__dict__
        return "_packed" in state and state.keys().isdisjoint(_PACKED_FIELDS)

    def __getstate__(self) -> Tuple[str, int, tuple]:
        if self._still_packed():
            return self.name, self._size, self._packed
        return self.name, self.size(), pack_tree(self)

    def __setstate__(self, state: Tuple[str, int, tuple]) -> None:
        self.name, self._size, self._packed = state

    def __getattr__(self, name: str):
        # reached only for an attribute missing from the instance: on a
        # loaded tree, a field that is still packed
        state = self.__dict__
        if name not in _PACKED_FIELDS or "_packed" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        for field_name, value in zip(_PACKED_FIELDS,
                                     unpack_tree(state["_packed"])):
            state.setdefault(field_name, value)  # a field set since stays
        del state["_packed"], state["_size"]
        obs.incr("ir.trees_decoded")
        return state[name]

    # -- construction helpers ---------------------------------------------

    def fresh_op_id(self) -> int:
        op_id = self.next_op_id
        self.next_op_id += 1
        return op_id

    def fresh_register(self, type_: str, prefix: str = "t") -> Register:
        reg = Register(f"{prefix}{self.next_temp_id}.{self.name}", type_)
        self.next_temp_id += 1
        return reg

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        if op.op_id >= self.next_op_id:
            self.next_op_id = op.op_id + 1
        return op

    # -- queries ------------------------------------------------------------

    def op_index(self, op_id: int) -> int:
        """Index in ``ops`` of the operation with the given id."""
        for idx, op in enumerate(self.ops):
            if op.op_id == op_id:
                return idx
        raise KeyError(f"no operation {op_id} in tree {self.name}")

    def op_by_id(self, op_id: int) -> Operation:
        return self.ops[self.op_index(op_id)]

    def size(self) -> int:
        """Tree size in operations, the paper's code-size metric
        (operations rather than VLIW instructions; exits count as the
        branch operations they compile to).  A loaded tree answers
        from its pickled header without decoding."""
        if self._still_packed():
            return self._size
        return len(self.ops) + len(self.exits)

    def exit_paths(self) -> List[PathLiterals]:
        """Path-literal sets of the exits, in exit order."""
        return [exit_.path_literals for exit_ in self.exits]

    def copy(self) -> "DecisionTree":
        """A deep-enough copy: operations/exits are immutable, lists are
        fresh, so transforming the copy never mutates the original.

        The copy shares this tree's dependence-graph skeleton holder
        (:meth:`graph_skeleton`): a graph built on either, under any
        oracle, reuses the skeleton the first build on either made, for
        as long as the tree holds the same operation and exit objects
        in the same order.  A copy that SpD changes builds and keeps a
        skeleton of its own."""
        clone = DecisionTree(
            name=self.name,
            ops=list(self.ops),
            exits=list(self.exits),
            spd_resolved=set(self.spd_resolved),
            next_op_id=self.next_op_id,
            next_temp_id=self.next_temp_id,
        )
        clone._skeleton_holder = self.__dict__.setdefault(
            "_skeleton_holder", [None])
        return clone

    # -- dependence-graph skeleton ----------------------------------------

    def graph_skeleton(self) -> Optional[object]:
        """The dependence-graph skeleton (:mod:`repro.ir.depgraph`) in
        the holder this tree shares with its copies, or None.  It may
        describe another state of the tree: the builder checks that it
        fits before using it.  The holder is never pickled."""
        holder = self.__dict__.get("_skeleton_holder")
        return None if holder is None else holder[0]

    def keep_graph_skeleton(self, skeleton: object) -> None:
        """Keep *skeleton*, built on this tree's current state.  The
        first one fills the holder shared with the copies; a later one
        describes a changed state, so this tree takes a holder of its
        own and leaves the shared one to the trees it still fits."""
        holder = self.__dict__.get("_skeleton_holder")
        if holder is not None and holder[0] is None:
            holder[0] = skeleton
        else:
            self._skeleton_holder = [skeleton]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<tree {self.name}: {len(self.ops)} ops, {len(self.exits)} exits>"


# the codec builds this module's classes, so it can only be imported once
# they exist
from .treepack import pack_tree, unpack_tree  # noqa: E402
