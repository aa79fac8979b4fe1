"""The packed pickle form of a decision tree (repro.ir.treepack)."""

import pickle

import pytest

from repro import obs
from repro.ir import (BOOL, FLOAT, AffineExpr, Constant, DecisionTree,
                      ExitKind, Guard, MemAccess, Opcode, Operation, Region,
                      RegionKind, Register, TreeExit)
from repro.ir.treepack import pack_tree, unpack_tree


def make_tree():
    """A tree using every operand, guard, path and access form."""
    tree = DecisionTree("f.t0")
    cond = Register("g0", BOOL)
    x = Register("v.x")
    y = Register("t1.f", FLOAT)
    access = MemAccess(Region(RegionKind.GLOBAL, "a"),
                       AffineExpr(3, {"i": 2, "j": -1}),
                       {"i": (0, 9), "j": (None, 4)})
    tree.append(Operation(0, Opcode.CMP_GT, cond, (x, Constant(0))))
    tree.append(Operation(1, Opcode.LOAD, y, (x,), Guard(cond),
                          frozenset({("g0", True)}), access))
    tree.append(Operation(2, Opcode.STORE, None, (y, x), Guard(cond, True),
                          frozenset({("g0", False)}), access))
    tree.append(Operation(3, Opcode.STORE, None, (Constant(0.0), x),
                          access=MemAccess()))
    tree.append(Operation(4, Opcode.SELECT, x,
                          (cond, Constant(-0.0), Constant(2.5))))
    tree.append(Operation(5, Opcode.ADD, x, (x, x, x, Constant(1))))
    tree.append(Operation(6, Opcode.PRINT, srcs=()))
    tree.exits += [
        TreeExit(ExitKind.GOTO, Guard(cond), target="f.t1",
                 path_literals=frozenset({("g0", True)})),
        TreeExit(ExitKind.CALL, Guard(cond, True), target="f.t2",
                 callee="h", args=(x, Constant(7), y), result=x),
        TreeExit(ExitKind.RETURN, value=Constant(0)),
        TreeExit(ExitKind.HALT),
    ]
    tree.spd_resolved = {(1, 2), (2, 3)}
    tree.next_temp_id = 5
    return tree


def loaded(tree):
    return pickle.loads(pickle.dumps(tree))


class TestRoundTrip:
    def test_every_field_survives(self):
        tree = make_tree()
        copy = loaded(tree)
        assert copy.size() == tree.size() == 11
        assert copy.ops == tree.ops
        assert copy.exits == tree.exits
        assert copy.spd_resolved == tree.spd_resolved
        assert copy.next_op_id == tree.next_op_id == 7
        assert copy.next_temp_id == 5
        assert copy == tree

    def test_equal_constants_stay_distinct(self):
        ops = loaded(make_tree()).ops
        zero, neg_zero = ops[0].srcs[1].value, ops[4].srcs[1].value
        assert (type(zero), repr(zero)) == (int, "0")
        assert (type(neg_zero), repr(neg_zero)) == (float, "-0.0")
        assert repr(ops[3].srcs[0].value) == "0.0"

    def test_shared_access_stays_shared(self):
        ops = loaded(make_tree()).ops
        assert ops[1].access is ops[2].access
        assert ops[3].access == MemAccess()

    def test_direct_codec_round_trip(self):
        tree = make_tree()
        ops, exits, resolved, next_op, next_temp = unpack_tree(
            pack_tree(tree))
        assert (ops, exits, resolved, next_op, next_temp) == (
            tree.ops, tree.exits, tree.spd_resolved, tree.next_op_id,
            tree.next_temp_id)

    def test_packed_form_is_atomic(self):
        atomic = (int, str, float, bool, type(None))
        assert all(isinstance(item, atomic)
                   for item in pack_tree(make_tree()))
        name, size, packed = make_tree().__getstate__()
        assert (name, size) == ("f.t0", 11)
        assert packed == pack_tree(make_tree())

    def test_empty_tree(self):
        copy = loaded(DecisionTree("empty"))
        assert copy.size() == 0
        assert copy == DecisionTree("empty")


class TestLaziness:
    def test_size_reads_the_header(self):
        copy = loaded(make_tree())
        with obs.tracing() as tracer:
            assert copy.size() == 11
        assert "ir.trees_decoded" not in tracer.metrics.counters
        assert "_packed" in vars(copy)

    def test_first_read_decodes_once(self):
        copy = loaded(make_tree())
        with obs.tracing() as tracer:
            ops = copy.ops
            assert copy.ops is ops
            assert copy.exits and copy.spd_resolved
        assert tracer.metrics.counters["ir.trees_decoded"] == 1
        assert "_packed" not in vars(copy) and "_size" not in vars(copy)

    def test_undecoded_tree_repickles_its_tuple(self):
        tree = make_tree()
        copy = loaded(tree)
        assert copy.__getstate__() == tree.__getstate__()
        assert pickle.dumps(copy) == pickle.dumps(tree)
        assert "_packed" in vars(copy)

    def test_decoded_tree_repacks_its_edits(self):
        copy = loaded(make_tree())
        copy.ops.pop()
        copy.spd_resolved.add((4, 5))
        again = loaded(copy)
        assert again.size() == 10
        assert again == copy

    def test_field_set_before_any_read_is_kept(self):
        copy = loaded(make_tree())
        copy.ops = []
        assert copy.size() == 4  # the new ops, the packed exits
        assert copy.ops == [] and len(copy.exits) == 4
        assert loaded(copy).ops == []

    def test_other_missing_attributes_raise(self):
        copy = loaded(make_tree())
        assert not hasattr(copy, "no_such_field")
        assert "_packed" in vars(copy)
        with pytest.raises(AttributeError, match="no_such_field"):
            DecisionTree("t").no_such_field


def test_non_bool_guard_register_fails_at_decode():
    tree = make_tree()
    name, size, packed = tree.__getstate__()
    bad = tuple("int" if item == BOOL else item for item in packed)
    copy = DecisionTree.__new__(DecisionTree)
    copy.__setstate__((name, size, bad))  # loading checks nothing
    assert copy.size() == size
    with pytest.raises(ValueError, match="guard register must be bool"):
        copy.ops
    with pytest.raises(ValueError):  # still packed: the next read fails too
        copy.exits
