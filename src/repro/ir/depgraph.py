"""Dependence graphs over decision trees.

Nodes are the tree's operations (indices ``0..n-1``) followed by its
exits (indices ``n..n+e-1``).  Arcs always point forward in list order
— the IR invariant that definitions precede uses makes this possible —
so every timing model can evaluate the graph in a single pass.

Memory dependences are classified by an *alias oracle*, the pluggable
interface behind the paper's four disambiguators (Table 6-4): the oracle
answers NO (never alias), YES (definitely alias) or MAYBE for each pair
of memory references, and MAYBE pairs become *ambiguous* arcs — the arcs
speculative disambiguation exists to attack.

Guard-awareness: operations with provably disjoint guards (the alias and
no-alias versions produced by SpD) never receive arcs against each
other; without this the transformed code would re-serialise.

A graph is built in two steps.  The first builds the tree state's
*skeleton*, everything no oracle decides: the register arcs, the
candidate memory pairs (store-involved, guards not disjoint) and the
PRINT-chain, exit-order, exit-read and COMMIT arcs.  The second drops
the pairs in ``tree.spd_resolved``, asks the oracle about the rest and
lists the register arcs, then the memory arcs, then the rest — the
order of the one-pass builder this replaced, so packed graphs did not
change.  A tree keeps its skeleton in a holder that
:meth:`DecisionTree.copy` shares, so the four views of one compiled
program and SpD's first graph of each tree reuse one skeleton.  A
skeleton is used only while the tree holds the very operation and exit
objects it was built from, in the same order (checked by identity:
SpD and cleanup replace those lists, the frontend appends to them); a
changed tree builds a new one.  Skeletons are never pickled, and
arcs, being frozen, are shared between the graphs built from one.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .frozen import slotted
from .guard_analysis import GuardAnalysis
from .guards import Guard
from .operations import Operation
from .tree import DecisionTree, TreeExit
from .values import Register

__all__ = [
    "ArcKind",
    "Arc",
    "AliasAnswer",
    "AliasOracle",
    "DependenceGraph",
    "build_dependence_graph",
    "naive_oracle",
]


class ArcKind(enum.Enum):
    """What a dependence arc protects; drives its timing rule."""

    # hash by identity, as Opcode does: kind-keyed lookups are hot
    __hash__ = object.__hash__

    REG_RAW = "reg_raw"
    REG_WAR = "reg_war"
    REG_WAW = "reg_waw"
    MEM_RAW = "mem_raw"
    MEM_WAR = "mem_war"
    MEM_WAW = "mem_waw"
    ORDER = "order"        #: serialised side effects (PRINT chain)
    COMMIT = "commit"      #: committing op must complete before its exit
    EXIT_ORDER = "exit_order"  #: exits resolve in list order


#: Memory arc kinds, the candidates for disambiguation.
MEMORY_ARC_KINDS = frozenset({ArcKind.MEM_RAW, ArcKind.MEM_WAR, ArcKind.MEM_WAW})


class AliasAnswer(enum.Enum):
    """The three answers of a static disambiguator (paper Section 2.2)."""

    NO = "no"        #: never alias
    YES = "yes"      #: alias at least sometimes; keep a definite arc
    MAYBE = "maybe"  #: unknown; keep an *ambiguous* arc


#: Oracle signature: classify a pair of memory operations (earlier, later).
AliasOracle = Callable[[Operation, Operation], AliasAnswer]


def naive_oracle(op_a: Operation, op_b: Operation) -> AliasAnswer:
    """The NAIVE disambiguator: no analysis, everything may alias."""
    return AliasAnswer.MAYBE


@slotted
@dataclass(frozen=True)
class Arc:
    """A dependence arc between two graph nodes (forward in list order).

    ``key`` — the (src op_id, dst op_id) pair — survives tree rebuilds
    that keep op identities, and is the handle used by profiles and by
    the SpD heuristic.
    """

    src: int
    dst: int
    kind: ArcKind
    ambiguous: bool = False
    via_guard: bool = False
    key: Tuple[int, int] = (-1, -1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        amb = "?" if self.ambiguous else ""
        return f"<{self.src}->{self.dst} {self.kind.value}{amb}>"


#: ``ArcKind`` by its index in the packed form; reordering the enum
#: changes that encoding, so it needs a ``PIPELINE_VERSION`` bump.
_ARC_KINDS: Tuple[ArcKind, ...] = tuple(ArcKind)
_KIND_INDEX: Dict[ArcKind, int] = {kind: index for index, kind
                                   in enumerate(_ARC_KINDS)}


def _pack_arcs(arcs: Sequence[Arc]) -> Tuple[int, ...]:
    """Six ints per arc, in list order: ``src``, ``dst``, the index of
    ``kind`` in ``tuple(ArcKind)``, ``ambiguous | via_guard << 1``,
    ``key[0]`` and ``key[1]``."""
    packed: List[int] = []
    for arc in arcs:
        packed += (arc.src, arc.dst, _KIND_INDEX[arc.kind],
                   arc.ambiguous | arc.via_guard << 1, *arc.key)
    return tuple(packed)


def _unpack_arcs(packed: Tuple[int, ...]) -> List[Arc]:
    """The arc list :func:`_pack_arcs` encoded, in the same order."""
    return [Arc(src, dst, _ARC_KINDS[kind], bool(flags & 1),
                bool(flags & 2), (key_src, key_dst))
            for src, dst, kind, flags, key_src, key_dst
            in zip(*[iter(packed)] * 6)]


class DependenceGraph:
    """The arcs over one decision tree.

    A pickled graph holds its arcs as one flat tuple of ints
    (:func:`_pack_arcs`): no :class:`Arc` objects, no key tuples and no
    adjacency.  A loaded graph keeps that tuple until :attr:`arcs` is
    first read, which decodes it into the arc list once, in the
    original order; a loaded graph that is only reported or re-stored
    never builds an :class:`Arc`.  A graph built in the process is never
    packed.
    """

    def __init__(self, tree: DecisionTree, arcs: Sequence[Arc]):
        self.tree = tree
        self.num_ops = len(tree.ops)
        self.num_nodes = self.num_ops + len(tree.exits)
        self._arcs: Optional[List[Arc]] = list(arcs)
        self._packed: Optional[Tuple[int, ...]] = None
        for arc in self._arcs:
            if not 0 <= arc.src < arc.dst < self.num_nodes:
                raise ValueError(f"arc {arc} out of range or not forward")

    def __getstate__(self) -> Dict[str, object]:
        return {"tree": self.tree, "num_ops": self.num_ops,
                "num_nodes": self.num_nodes,
                "packed": (self._packed if self._arcs is None
                           else _pack_arcs(self._arcs))}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.tree = state["tree"]
        self.num_ops = state["num_ops"]
        self.num_nodes = state["num_nodes"]
        self._arcs = None
        self._packed = state["packed"]

    @property
    def arcs(self) -> List[Arc]:
        """The arcs in list order, decoded from the pickled form on the
        first read after a load."""
        if self._arcs is None:
            self._arcs = _unpack_arcs(self._packed)
            self._packed = None
            obs.incr("depgraph.arcs_decoded")
        return self._arcs

    # -- node helpers -----------------------------------------------------

    def node_op(self, node: int) -> Optional[Operation]:
        return self.tree.ops[node] if node < self.num_ops else None

    def node_exit(self, node: int) -> Optional[TreeExit]:
        if node >= self.num_ops:
            return self.tree.exits[node - self.num_ops]
        return None

    def exit_node(self, exit_index: int) -> int:
        return self.num_ops + exit_index

    # -- arc queries --------------------------------------------------------

    def ambiguous_arcs(self) -> List[Arc]:
        """All ambiguous memory arcs, the candidate set for SpD."""
        return [a for a in self.arcs if a.ambiguous]

    def memory_arcs(self) -> List[Arc]:
        return [a for a in self.arcs if a.kind in MEMORY_ARC_KINDS]


def _reaching_defs(
    defs: Sequence[Tuple[int, Optional[Guard]]], reader_guard: Optional[Guard],
    disjoint,
) -> List[int]:
    """Indices of defs that may reach a read under *reader_guard*.

    Walk the def list backwards; an unconditional def (or one whose
    guard equals the reader's) kills everything earlier.
    """
    reaching: List[int] = []
    for idx, def_guard in reversed(defs):
        if disjoint(def_guard, reader_guard):
            continue
        reaching.append(idx)
        if def_guard is None or def_guard == reader_guard:
            break
    return reaching


#: One candidate memory pair of a skeleton: the earlier and the later
#: node, their operations, the arc kind an aliasing answer gives the
#: pair, and the pair's op-id key.
MemoryPair = Tuple[int, int, Operation, Operation, ArcKind, Tuple[int, int]]


class _Skeleton:
    """What no alias oracle decides in one tree state's graph.

    ``head`` holds the register arcs, ``pairs`` the store-involved
    memory pairs whose guards are not disjoint (in the order the graph
    lists their arcs), and ``tail`` the PRINT-chain, exit-order,
    exit-read and COMMIT arcs.  A skeleton describes the operations
    and exits it was built from and :meth:`fits` a tree only while the
    tree holds those very objects, in that order.
    """

    __slots__ = ("ops", "exits", "head", "pairs", "tail")

    def __init__(self, tree: DecisionTree):
        ops = self.ops = tuple(tree.ops)
        exits = self.exits = tuple(tree.exits)
        num_ops = len(ops)
        disjoint = GuardAnalysis(tree).disjoint
        # each node's half of an arc key: its op id, or -(exit index + 1)
        ids = [op.op_id for op in ops]
        ids += range(-1, -len(exits) - 1, -1)

        # ---- register dependences, keyed by register name -------------------
        head: List[Arc] = []
        defs: Dict[str, List[Tuple[int, Optional[Guard]]]] = {}
        reads: Dict[str, List[Tuple[int, Optional[Guard]]]] = {}

        def add_read_arcs(arcs: List[Arc], node: int, name: str,
                          node_guard: Optional[Guard],
                          via_guard: bool) -> None:
            for def_idx in _reaching_defs(defs.get(name, ()), node_guard,
                                          disjoint):
                arcs.append(Arc(def_idx, node, ArcKind.REG_RAW,
                                via_guard=via_guard,
                                key=(ids[def_idx], ids[node])))

        for j, op in enumerate(ops):
            guard = op.guard
            # one read entry per distinct register, in operand order
            read_names = dict.fromkeys(src.name for src in op.srcs
                                       if isinstance(src, Register))
            for name in read_names:
                add_read_arcs(head, j, name, guard, False)
            if guard is not None:
                add_read_arcs(head, j, guard.reg.name, guard, True)
                read_names[guard.reg.name] = None
            for name in read_names:
                reads.setdefault(name, []).append((j, guard))
            if op.dest is not None:
                name = op.dest.name
                for read_idx, read_guard in reads.get(name, ()):
                    if read_idx != j and not disjoint(read_guard, guard):
                        head.append(Arc(read_idx, j, ArcKind.REG_WAR,
                                        key=(ids[read_idx], ids[j])))
                for def_idx, def_guard in defs.get(name, ()):
                    if not disjoint(def_guard, guard):
                        head.append(Arc(def_idx, j, ArcKind.REG_WAW,
                                        key=(ids[def_idx], ids[j])))
                if guard is None:
                    defs[name] = [(j, None)]
                    reads[name] = []
                else:
                    defs.setdefault(name, []).append((j, guard))

        # ---- candidate memory pairs -----------------------------------------
        pairs: List[MemoryPair] = []
        memory = [i for i, op in enumerate(ops) if op.is_memory]
        for a_pos, i in enumerate(memory):
            op_i = ops[i]
            store_i = op_i.is_store
            for j in memory[a_pos + 1:]:
                op_j = ops[j]
                store_j = op_j.is_store
                if not (store_i or store_j):
                    continue  # load-load pairs never conflict
                if disjoint(op_i.guard, op_j.guard):
                    continue
                kind = (ArcKind.MEM_WAW if store_i and store_j
                        else ArcKind.MEM_RAW if store_i else ArcKind.MEM_WAR)
                pairs.append((i, j, op_i, op_j, kind, (ids[i], ids[j])))

        # ---- serialised PRINT chain -----------------------------------------
        tail: List[Arc] = []
        prints = [i for i, op in enumerate(ops) if op.is_print]
        for prev, nxt in zip(prints, prints[1:]):
            tail.append(Arc(prev, nxt, ArcKind.ORDER,
                            key=(ids[prev], ids[nxt])))

        # ---- exits ----------------------------------------------------------
        # the operations that commit, each with its negated branch
        # literals: it lies on every exit path that contains none of
        # them.  Guards added by SpD are data conditions, not path
        # literals, so both SpD versions are (conservatively, and
        # faithfully to a static VLIW schedule) present on the path.
        committing = [
            (i, frozenset((name, not polarity)
                          for name, polarity in op.path_literals))
            for i, op in enumerate(ops)
            if op.has_side_effect or (op.dest is not None
                                      and op.dest.is_variable)]
        guard_names: List[str] = []
        for e_idx, exit_ in enumerate(exits):
            node = num_ops + e_idx
            # exits resolve in list order ("first true guard wins")
            if e_idx > 0:
                tail.append(Arc(node - 1, node, ArcKind.EXIT_ORDER,
                                key=(ids[node - 1], ids[node])))
            # the data operands of the exit (call args, return value),
            # then the branch condition of this exit and of every
            # earlier exit: all must be ready before this exit can resolve
            if exit_.guard is not None:
                guard_names.append(exit_.guard.reg.name)
            read_names = dict.fromkeys(
                a.name for a in (*exit_.args, exit_.value)
                if isinstance(a, Register))
            read_names.update(dict.fromkeys(guard_names))
            for name in read_names:
                add_read_arcs(tail, node, name, None, False)
            # commit ordering: anything that commits on this path must
            # issue no later than the exit
            path = exit_.path_literals
            for i, negated in committing:
                if negated.isdisjoint(path):
                    tail.append(Arc(i, node, ArcKind.COMMIT,
                                    key=(ids[i], ids[node])))

        self.head, self.pairs, self.tail = head, pairs, tail
        obs.incr("depgraph.skeletons")

    def fits(self, tree: DecisionTree) -> bool:
        """Whether *tree* holds exactly the operation and exit objects
        this skeleton was built from, in the same order."""
        ops, exits = tree.ops, tree.exits
        return (len(ops) == len(self.ops) and len(exits) == len(self.exits)
                and all(map(operator.is_, ops, self.ops))
                and all(map(operator.is_, exits, self.exits)))


def _skeleton_of(tree: DecisionTree) -> _Skeleton:
    """The skeleton of *tree*'s current state: the one its holder keeps
    when that still fits, else a new one, which the tree then keeps."""
    skeleton = tree.graph_skeleton()
    if skeleton is None or not skeleton.fits(tree):
        skeleton = _Skeleton(tree)
        tree.keep_graph_skeleton(skeleton)
    return skeleton


def build_dependence_graph(
    tree: DecisionTree, oracle: AliasOracle = naive_oracle
) -> DependenceGraph:
    """Construct the full dependence graph of a decision tree.

    Register dependences come from def-use scanning with guard
    disjointness; memory dependences from the alias oracle; COMMIT arcs
    tie every operation that can commit on a path to that path's exit.
    Everything but the oracle's answers comes from the tree state's
    skeleton (built on the first call for that state); the graph lists
    the skeleton's register arcs, then the memory arcs of the pairs
    that SpD has not resolved and the oracle does not answer NO, then
    the skeleton's order, exit and COMMIT arcs.
    """
    skeleton = _skeleton_of(tree)
    resolved = tree.spd_resolved
    memory: List[Arc] = []
    ambiguous = 0
    for i, j, op_i, op_j, kind, key in skeleton.pairs:
        if key in resolved:
            continue
        answer = oracle(op_i, op_j)
        if answer is AliasAnswer.NO:
            continue
        maybe = answer is AliasAnswer.MAYBE
        memory.append(Arc(i, j, kind, ambiguous=maybe, key=key))
        ambiguous += maybe
    arcs = skeleton.head + memory + skeleton.tail
    if obs.is_enabled():
        obs.incr("depgraph.builds")
        obs.incr("depgraph.arcs", len(arcs))
        obs.incr("depgraph.ambiguous_arcs", ambiguous)
    return DependenceGraph(tree, arcs)
