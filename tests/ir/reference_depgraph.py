"""The dependence-graph builder as it was before the shared skeleton,
kept as a test-only reference.

This is the original one-pass :func:`build_dependence_graph`: it scans
the tree's registers, memory pairs, PRINT chain and exits afresh on
every call, whatever the oracle.  It is copied unchanged, together
with ``_reaching_defs`` and the two ``DecisionTree`` methods only it
used (here the functions ``_memory_ops`` and ``_commits_on_path``),
except that it counts no ``depgraph.*`` metric: a reference build is
not a build of the program under test.  The parity tests require the
shared-skeleton builder (:func:`repro.ir.build_dependence_graph`) to
return the very same arcs, field by field and in the same order;
``benchmarks/depgraph_parity.py`` runs the same comparison over the
whole corpus.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.depgraph import (AliasAnswer, AliasOracle, Arc, ArcKind,
                               DependenceGraph, naive_oracle)
from repro.ir.guard_analysis import GuardAnalysis
from repro.ir.guards import Guard
from repro.ir.operations import Operation, PathLiterals
from repro.ir.tree import DecisionTree
from repro.ir.values import Register

__all__ = ["build_dependence_graph", "graph_diff"]


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


def _memory_ops(tree: DecisionTree) -> List[int]:
    """Indices of LOAD/STORE operations in list order."""
    return [i for i, op in enumerate(tree.ops) if op.is_memory]


def _commits_on_path(op: Operation, path: PathLiterals) -> bool:
    """Whether *op* can commit when the tree leaves through a path.

    An operation lies on a path if its branch literals do not
    contradict the path's.  Guards added by speculative
    disambiguation are data conditions, not path literals, so both
    SpD versions are (conservatively, and faithfully to a static
    VLIW schedule) considered present on the path.
    """
    for reg_name, polarity in op.path_literals:
        if (reg_name, not polarity) in path:
            return False
    return True


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
    mem_indices = _memory_ops(tree)
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
            if not _commits_on_path(op, path):
                continue
            if op.has_side_effect or (op.dest is not None and op.dest.is_variable):
                arcs.append(Arc(i, node, ArcKind.COMMIT, key=key_of(i, node)))

    return DependenceGraph(tree, arcs)


def graph_diff(graph: DependenceGraph, reference: DependenceGraph) -> str:
    """Empty when *graph* and *reference* have the same node counts and
    the same arcs, field by field and in the same order; otherwise the
    first difference."""
    if (graph.num_ops, graph.num_nodes) != (reference.num_ops,
                                            reference.num_nodes):
        return (f"nodes {graph.num_ops}+{graph.num_nodes - graph.num_ops} "
                f"!= {reference.num_ops}"
                f"+{reference.num_nodes - reference.num_ops}")
    arcs, expected = graph.arcs, reference.arcs
    for index, (arc, want) in enumerate(zip(arcs, expected)):
        if arc != want:
            return f"arc {index}: {arc!r} != {want!r}"
    if len(arcs) != len(expected):
        return f"{len(arcs)} arcs != {len(expected)}"
    return ""
