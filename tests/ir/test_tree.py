"""Unit tests for decision trees and exits."""

import pytest

from repro.ir import (ArcKind, Constant, DecisionTree, ExitKind, Guard,
                      Opcode, Operation, Register, TreeExit, BOOL,
                      build_dependence_graph)


def make_tree():
    tree = DecisionTree("t0")
    value = tree.fresh_register("int")
    tree.append(Operation(tree.fresh_op_id(), Opcode.MOV, dest=value,
                          srcs=(Constant(1),)))
    tree.exits.append(TreeExit(kind=ExitKind.HALT))
    return tree


class TestTreeExit:
    def test_goto_requires_target(self):
        with pytest.raises(ValueError):
            TreeExit(kind=ExitKind.GOTO)

    def test_call_requires_callee(self):
        with pytest.raises(ValueError):
            TreeExit(kind=ExitKind.CALL, target="t1")

    def test_source_registers(self):
        cond = Register("c", BOOL)
        value = Register("v.x")
        exit_ = TreeExit(kind=ExitKind.RETURN, guard=Guard(cond), value=value)
        assert set(exit_.source_registers()) == {cond, value}

    def test_call_args_in_source_registers(self):
        arg = Register("v.a")
        exit_ = TreeExit(kind=ExitKind.CALL, target="t1", callee="f",
                         args=(arg, Constant(2)))
        assert arg in exit_.source_registers()


class TestDecisionTree:
    def test_fresh_ids_unique(self):
        tree = DecisionTree("t")
        ids = {tree.fresh_op_id() for _ in range(10)}
        assert len(ids) == 10

    def test_fresh_registers_unique(self):
        tree = DecisionTree("t")
        regs = {tree.fresh_register("int") for _ in range(10)}
        assert len(regs) == 10

    def test_append_advances_id_counter(self):
        tree = DecisionTree("t")
        tree.append(Operation(5, Opcode.MOV, dest=Register("t0"),
                              srcs=(Constant(1),)))
        assert tree.fresh_op_id() == 6

    def test_op_index_and_lookup(self):
        tree = make_tree()
        op_id = tree.ops[0].op_id
        assert tree.op_index(op_id) == 0
        assert tree.op_by_id(op_id) is tree.ops[0]
        with pytest.raises(KeyError):
            tree.op_index(999)

    def test_size_counts_ops_and_exits(self):
        tree = make_tree()
        assert tree.size() == len(tree.ops) + len(tree.exits) == 2

    def test_copy_is_independent(self):
        tree = make_tree()
        clone = tree.copy()
        clone.ops.append(Operation(clone.fresh_op_id(), Opcode.MOV,
                                   dest=clone.fresh_register("int"),
                                   srcs=(Constant(2),)))
        clone.spd_resolved.add((1, 2))
        assert len(tree.ops) == 1
        assert not tree.spd_resolved


def commits_on_path(op, path):
    """Whether *op* commits to an exit whose path literals are *path*:
    the dependence graph of a one-op, one-exit tree has a COMMIT arc."""
    tree = DecisionTree("t")
    tree.append(op)
    tree.exits.append(TreeExit(kind=ExitKind.HALT, path_literals=path))
    graph = build_dependence_graph(tree)
    return any(arc.kind is ArcKind.COMMIT and arc.src == 0
               and arc.dst == graph.exit_node(0) for arc in graph.arcs)


class TestCommitsOnPath:
    def test_unconditional_op_commits_everywhere(self):
        op = Operation(0, Opcode.MOV, dest=Register("v.x"),
                       srcs=(Constant(1),))
        assert commits_on_path(op, frozenset({("c", True)}))
        assert commits_on_path(op, frozenset({("c", False)}))

    def test_contradicting_literal_blocks_commit(self):
        op = Operation(0, Opcode.MOV, dest=Register("v.x"),
                       srcs=(Constant(1),),
                       path_literals=frozenset({("c", True)}))
        assert not commits_on_path(op, frozenset({("c", False)}))
        assert commits_on_path(op, frozenset({("c", True)}))
        # an unrelated path literal does not contradict
        assert commits_on_path(op, frozenset({("d", False)}))
