"""Unit tests for dependence-graph construction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.ir import (BOOL, AliasAnswer, ArcKind, Constant, DecisionTree,
                      ExitKind, Guard, Opcode, Operation, Register,
                      TreeBuilder, TreeExit, build_dependence_graph,
                      naive_oracle)


def arcs_of(graph, kind):
    return [(a.src, a.dst) for a in graph.arcs if a.kind is kind]


def simple_mem_tree(guarded_disjoint=False):
    """store a[0]; load a[1]; plus an optional disjoint-guard setup."""
    b = TreeBuilder("t")
    value = b.value(Opcode.FADD, [1.0, 2.0])
    if guarded_disjoint:
        cond = b.value(Opcode.CMP_LT, [Register("v.i"), 5])
        b.store(value, 100, guard=Guard(cond))
        b.store(value, 101, guard=Guard(cond, negate=True))
    else:
        b.store(value, 100)
        b.load(101, "float")
    b.halt()
    return b.tree


class TestRegisterDependences:
    def test_raw_def_use(self):
        b = TreeBuilder("t")
        x = b.value(Opcode.ADD, [1, 2])
        b.value(Opcode.ADD, [x, 3])
        b.halt()
        graph = build_dependence_graph(b.tree)
        assert (0, 1) in arcs_of(graph, ArcKind.REG_RAW)

    def test_war_read_then_write(self):
        b = TreeBuilder("t")
        v = Register("v.x")
        b.assign(v, 1)                      # def
        b.value(Opcode.ADD, [v, 1])         # read
        b.assign(v, 2)                      # overwrite: WAR with the read
        b.halt()
        graph = build_dependence_graph(b.tree)
        assert (1, 2) in arcs_of(graph, ArcKind.REG_WAR)
        assert (0, 2) in arcs_of(graph, ArcKind.REG_WAW)

    def test_unconditional_def_kills_earlier(self):
        b = TreeBuilder("t")
        v = Register("v.x")
        b.assign(v, 1)
        b.assign(v, 2)
        b.value(Opcode.ADD, [v, 1])
        b.halt()
        graph = build_dependence_graph(b.tree)
        raw = arcs_of(graph, ArcKind.REG_RAW)
        assert (1, 2) in raw
        assert (0, 2) not in raw  # killed by the second def

    def test_guard_read_marked_via_guard(self):
        b = TreeBuilder("t")
        cond = b.value(Opcode.CMP_LT, [Register("v.i"), 5])
        b.emit(Opcode.MOV, [1], dest=Register("v.x"), guard=Guard(cond))
        b.halt()
        graph = build_dependence_graph(b.tree)
        guard_arcs = [a for a in graph.arcs
                      if a.kind is ArcKind.REG_RAW and a.via_guard]
        assert [(a.src, a.dst) for a in guard_arcs] == [(0, 1)]


class TestMemoryDependences:
    def test_naive_oracle_answers_maybe(self):
        a = simple_mem_tree()
        graph = build_dependence_graph(a, naive_oracle)
        mem = [arc for arc in graph.arcs if arc.kind is ArcKind.MEM_RAW]
        assert len(mem) == 1 and mem[0].ambiguous

    def test_load_load_pairs_skipped(self):
        b = TreeBuilder("t")
        b.load(100, "float")
        b.load(100, "float")
        b.halt()
        graph = build_dependence_graph(b.tree, naive_oracle)
        assert not graph.memory_arcs()

    def test_disjoint_guards_no_arc(self):
        tree = simple_mem_tree(guarded_disjoint=True)
        graph = build_dependence_graph(tree, naive_oracle)
        assert not graph.memory_arcs()

    def test_oracle_no_removes_arc(self):
        tree = simple_mem_tree()
        graph = build_dependence_graph(tree, lambda a, b: AliasAnswer.NO)
        assert not graph.memory_arcs()

    def test_oracle_yes_definite_arc(self):
        tree = simple_mem_tree()
        graph = build_dependence_graph(tree, lambda a, b: AliasAnswer.YES)
        mem = graph.memory_arcs()
        assert len(mem) == 1 and not mem[0].ambiguous

    def test_spd_resolved_pair_skipped(self):
        tree = simple_mem_tree()
        store = next(op for op in tree.ops if op.is_store)
        load = next(op for op in tree.ops if op.is_load)
        tree.spd_resolved.add((store.op_id, load.op_id))
        graph = build_dependence_graph(tree, naive_oracle)
        assert not graph.memory_arcs()

    @pytest.mark.parametrize("first,second,kind", [
        ("store", "load", ArcKind.MEM_RAW),
        ("load", "store", ArcKind.MEM_WAR),
        ("store", "store", ArcKind.MEM_WAW),
    ])
    def test_arc_kind_classification(self, first, second, kind):
        b = TreeBuilder("t")
        value = b.value(Opcode.FADD, [1.0, 2.0])
        for which in (first, second):
            if which == "store":
                b.store(value, 100)
            else:
                b.load(100, "float")
        b.halt()
        graph = build_dependence_graph(b.tree, naive_oracle)
        kinds = [a.kind for a in graph.memory_arcs()]
        assert kind in kinds


class TestPrintOrdering:
    def test_print_chain_serialised(self):
        b = TreeBuilder("t")
        b.emit(Opcode.PRINT, [1])
        b.emit(Opcode.PRINT, [2])
        b.emit(Opcode.PRINT, [3])
        b.halt()
        graph = build_dependence_graph(b.tree)
        order = arcs_of(graph, ArcKind.ORDER)
        assert (0, 1) in order and (1, 2) in order


class TestExits:
    def test_commit_arcs_to_exit(self):
        tree = simple_mem_tree()
        graph = build_dependence_graph(tree, naive_oracle)
        store_pos = next(i for i, op in enumerate(tree.ops) if op.is_store)
        exit_node = graph.exit_node(0)
        commits = arcs_of(graph, ArcKind.COMMIT)
        assert (store_pos, exit_node) in commits

    def test_exit_ordering_arcs(self):
        b = TreeBuilder("t")
        cond = b.value(Opcode.CMP_LT, [Register("v.i"), 5])
        b.goto("t2", guard=Guard(cond))
        b.halt()
        graph = build_dependence_graph(b.tree)
        first_exit = graph.exit_node(0)
        second_exit = graph.exit_node(1)
        assert (first_exit, second_exit) in arcs_of(graph, ArcKind.EXIT_ORDER)

    def test_exit_condition_is_data_dependence(self):
        b = TreeBuilder("t")
        cond = b.value(Opcode.CMP_LT, [Register("v.i"), 5])
        b.goto("t2", guard=Guard(cond))
        b.halt()
        graph = build_dependence_graph(b.tree)
        raw = arcs_of(graph, ArcKind.REG_RAW)
        assert (0, graph.exit_node(0)) in raw
        # the later exit also needs the earlier condition resolved
        assert (0, graph.exit_node(1)) in raw

    def test_temp_write_has_no_commit_arc(self):
        b = TreeBuilder("t")
        b.value(Opcode.ADD, [1, 2])  # pure temp
        b.halt()
        graph = build_dependence_graph(b.tree)
        assert (0, graph.exit_node(0)) not in arcs_of(graph, ArcKind.COMMIT)

    def test_variable_write_has_commit_arc(self):
        b = TreeBuilder("t")
        b.assign(Register("v.x"), 1)
        b.halt()
        graph = build_dependence_graph(b.tree)
        assert (0, graph.exit_node(0)) in arcs_of(graph, ArcKind.COMMIT)

    def test_commit_arcs_follow_branch_literals(self):
        """An operation commits to an exit unless one of its branch
        literals contradicts the exit's path; an operation without
        literals commits to every exit."""
        tree = DecisionTree("t")
        tree.append(Operation(0, Opcode.MOV, dest=Register("v.x"),
                              srcs=(Constant(1),),
                              path_literals=frozenset({("c", True)})))
        tree.append(Operation(1, Opcode.MOV, dest=Register("v.y"),
                              srcs=(Constant(2),)))
        cond = Guard(Register("c", BOOL))
        tree.exits += [
            TreeExit(ExitKind.GOTO, guard=cond, target="t1",
                     path_literals=frozenset({("c", True)})),
            TreeExit(ExitKind.GOTO, guard=cond.inverted(), target="t2",
                     path_literals=frozenset({("c", False)})),
            TreeExit(ExitKind.HALT, path_literals=frozenset({("d", False)}))]
        graph = build_dependence_graph(tree)
        commits = arcs_of(graph, ArcKind.COMMIT)
        assert [(0, graph.exit_node(0)), (0, graph.exit_node(2))] == [
            arc for arc in commits if arc[0] == 0]
        assert [(1, graph.exit_node(e)) for e in range(3)] == [
            arc for arc in commits if arc[0] == 1]


class TestGraphStructure:
    def test_arcs_point_forward(self, example22_program):
        for _f, tree in example22_program.all_trees():
            graph = build_dependence_graph(tree)
            for arc in graph.arcs:
                assert arc.src < arc.dst

    def test_each_arc_generated_once(self, example22_program):
        trees = [tree for _f, tree in example22_program.all_trees()]
        for tree in [simple_mem_tree(), *trees]:
            idents = [(arc.src, arc.dst, arc.kind, arc.via_guard)
                      for arc in build_dependence_graph(tree).arcs]
            assert len(idents) == len(set(idents))

    def test_packed_arcs_do_not_depend_on_the_hash_seed(self):
        """Arc order is stored in packed graphs, so it must not follow
        ``PYTHONHASHSEED`` (set iteration order)."""
        assert _packed_digest(0) == _packed_digest(2)

    def test_ambiguous_arcs_join_store_involved_pairs(self, example22_program):
        for _f, tree in example22_program.all_trees():
            graph = build_dependence_graph(tree)
            for arc in graph.ambiguous_arcs():
                op_a = tree.ops[arc.src]
                op_b = tree.ops[arc.dst]
                assert op_a.is_memory and op_b.is_memory
                assert op_a.is_store or op_b.is_store


#: Digest of the packed arcs of every kernel tree's NAIVE graph.
_PACKED_DIGEST = """
import hashlib
from repro.bench import SUITE
from repro.frontend import compile_source
from repro.ir.depgraph import _pack_arcs, build_dependence_graph
digest = hashlib.sha256()
for name in sorted(SUITE):
    for _f, tree in compile_source(SUITE[name].source).all_trees():
        packed = _pack_arcs(build_dependence_graph(tree).arcs)
        digest.update(repr(packed).encode())
print(digest.hexdigest())
"""


def _packed_digest(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", _PACKED_DIGEST], env=env,
                          capture_output=True, text=True,
                          check=True).stdout
