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
"""

from __future__ import annotations

import enum
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
    defs: List[Tuple[int, Optional[Guard]]], reader_guard: Optional[Guard],
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


def build_dependence_graph(
    tree: DecisionTree, oracle: AliasOracle = naive_oracle
) -> DependenceGraph:
    """Construct the full dependence graph of a decision tree.

    Register dependences come from def-use scanning with guard
    disjointness; memory dependences from the alias oracle; COMMIT arcs
    tie every operation that can commit on a path to that path's exit.
    """
    arcs: List[Arc] = []
    ops = tree.ops
    num_ops = len(ops)
    disjoint = GuardAnalysis(tree).disjoint

    def key_of(src: int, dst: int) -> Tuple[int, int]:
        src_id = ops[src].op_id if src < num_ops else -(src - num_ops + 1)
        dst_id = ops[dst].op_id if dst < num_ops else -(dst - num_ops + 1)
        return (src_id, dst_id)

    # ---- register dependences -------------------------------------------
    defs: Dict[Register, List[Tuple[int, Optional[Guard]]]] = {}
    reads: Dict[Register, List[Tuple[int, Optional[Guard]]]] = {}

    def add_read_arcs(node: int, reg: Register, node_guard: Optional[Guard],
                      via_guard: bool) -> None:
        for def_idx in _reaching_defs(defs.get(reg, []), node_guard, disjoint):
            arcs.append(Arc(def_idx, node, ArcKind.REG_RAW,
                            via_guard=via_guard, key=key_of(def_idx, node)))

    for j, op in enumerate(ops):
        # one read entry per distinct register, in operand order
        read_regs = dict.fromkeys(op.data_source_registers())
        for reg in read_regs:
            add_read_arcs(j, reg, op.guard, via_guard=False)
        if op.guard is not None:
            add_read_arcs(j, op.guard.reg, op.guard, via_guard=True)
            read_regs[op.guard.reg] = None
        for reg in read_regs:
            reads.setdefault(reg, []).append((j, op.guard))
        if op.dest is not None:
            reg = op.dest
            for read_idx, read_guard in reads.get(reg, []):
                if read_idx != j and not disjoint(read_guard, op.guard):
                    arcs.append(Arc(read_idx, j, ArcKind.REG_WAR,
                                    key=key_of(read_idx, j)))
            for def_idx, def_guard in defs.get(reg, []):
                if not disjoint(def_guard, op.guard):
                    arcs.append(Arc(def_idx, j, ArcKind.REG_WAW,
                                    key=key_of(def_idx, j)))
            if op.guard is None:
                defs[reg] = [(j, None)]
                reads[reg] = []
            else:
                defs.setdefault(reg, []).append((j, op.guard))

    # ---- memory dependences -----------------------------------------------
    mem_indices = tree.memory_ops()
    for a_pos, i in enumerate(mem_indices):
        op_i = ops[i]
        for j in mem_indices[a_pos + 1:]:
            op_j = ops[j]
            if not (op_i.is_store or op_j.is_store):
                continue  # load-load pairs never conflict
            if disjoint(op_i.guard, op_j.guard):
                continue
            if (op_i.op_id, op_j.op_id) in tree.spd_resolved:
                continue
            answer = oracle(op_i, op_j)
            if answer is AliasAnswer.NO:
                continue
            if op_i.is_store and op_j.is_load:
                kind = ArcKind.MEM_RAW
            elif op_i.is_load and op_j.is_store:
                kind = ArcKind.MEM_WAR
            else:
                kind = ArcKind.MEM_WAW
            arcs.append(Arc(i, j, kind,
                            ambiguous=(answer is AliasAnswer.MAYBE),
                            key=key_of(i, j)))

    # ---- serialised PRINT chain -------------------------------------------
    print_indices = [i for i, op in enumerate(ops) if op.is_print]
    for prev, nxt in zip(print_indices, print_indices[1:]):
        arcs.append(Arc(prev, nxt, ArcKind.ORDER, key=key_of(prev, nxt)))

    # ---- exits ---------------------------------------------------------------
    for e_idx, exit_ in enumerate(tree.exits):
        node = num_ops + e_idx
        # exits resolve in list order ("first true guard wins")
        if e_idx > 0:
            arcs.append(Arc(node - 1, node, ArcKind.EXIT_ORDER,
                            key=key_of(node - 1, node)))
        # the data operands of the exit (call args, return value), then
        # the branch condition of this exit and of every earlier exit:
        # all must be ready before this exit can resolve
        read_regs = dict.fromkeys(
            a for a in (*exit_.args, exit_.value) if isinstance(a, Register))
        for earlier in tree.exits[: e_idx + 1]:
            if earlier.guard is not None:
                read_regs[earlier.guard.reg] = None
        for reg in read_regs:
            add_read_arcs(node, reg, None, via_guard=False)
        # commit ordering: anything that commits on this path must issue
        # no later than the exit
        path = exit_.path_literals
        for i, op in enumerate(ops):
            if not tree.commits_on_path(op, path):
                continue
            if op.has_side_effect or (op.dest is not None and op.dest.is_variable):
                arcs.append(Arc(i, node, ArcKind.COMMIT, key=key_of(i, node)))

    graph = DependenceGraph(tree, arcs)
    if obs.is_enabled():
        obs.incr("depgraph.builds")
        obs.incr("depgraph.arcs", len(graph.arcs))
        obs.incr("depgraph.ambiguous_arcs", len(graph.ambiguous_arcs()))
    return graph
