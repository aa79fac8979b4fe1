"""The nine frozen IR value classes are slotted (repro.ir.frozen).

Each keeps the behaviour of a plain frozen dataclass: no assignment,
value equality and hashing, ``dataclasses.replace``; and each pickles
positionally through its constructor, so its checks run on load.
"""

import dataclasses
import pickle

import pytest

from repro.frontend.driver import compile_source
from repro.ir import (BOOL, AffineExpr, Arc, ArcKind, Constant, ExitKind,
                      Guard, MemAccess, Opcode, Operation, Region, RegionKind,
                      Register, TreeExit)
from repro.ir.operations import NO_PATH

FLAG = Register("g0", BOOL)
AFFINE = AffineExpr(1, {"i": 2})
ACCESS = MemAccess(Region(RegionKind.GLOBAL, "a"), AFFINE, {"i": (0, 9)})

#: one populated instance of each class, and one field to replace
SAMPLES = [
    (Register("v.x"), "name", "v.y"),
    (Constant(3), "value", 4.5),
    (Guard(FLAG, negate=True), "negate", False),
    (Operation(1, Opcode.LOAD, dest=Register("t0"),
               srcs=(Register("p.a"),), guard=Guard(FLAG),
               path_literals=frozenset({("g0", True)}), access=ACCESS),
     "op_id", 7),
    (TreeExit(ExitKind.CALL, guard=Guard(FLAG), target="main.b1",
              callee="f", args=(Constant(1),), result=Register("t1"),
              path_literals=frozenset({("g0", False)})),
     "target", "main.b2"),
    (Arc(0, 3, ArcKind.MEM_RAW, ambiguous=True, key=(4, 9)), "dst", 2),
    (Region(RegionKind.PARAM, "f.a"), "name", "f.b"),
    (ACCESS, "region", None),
    (AFFINE, "const", 5),
]
IDS = [type(sample).__name__ for sample, _, _ in SAMPLES]


def _hash_or_none(value):
    """The hash, or None for the classes that hold a dict (MemAccess,
    AffineExpr, an Operation with an access): unhashable stays so."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("sample,field,new", SAMPLES, ids=IDS)
class TestSlottedValue:
    def test_has_no_instance_dict(self, sample, field, new):
        assert not hasattr(sample, "__dict__")
        assert type(sample).__slots__ == tuple(
            f.name for f in dataclasses.fields(sample))

    def test_assignment_raises_frozen_instance_error(self, sample, field,
                                                     new):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, field, new)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(sample, field)

    def test_pickle_round_trip_is_equal_with_equal_hash(self, sample, field,
                                                        new):
        loaded = pickle.loads(pickle.dumps(sample))
        assert type(loaded) is type(sample)
        assert loaded == sample
        assert _hash_or_none(loaded) == _hash_or_none(sample)

    def test_replace_builds_a_changed_copy(self, sample, field, new):
        changed = dataclasses.replace(sample, **{field: new})
        assert getattr(changed, field) == new
        assert changed != sample
        assert dataclasses.replace(sample) == sample


def test_loading_reruns_the_constructor_checks():
    bad = object.__new__(Register)
    object.__setattr__(bad, "name", "x")
    object.__setattr__(bad, "type", "complex")
    payload = pickle.dumps(bad)
    with pytest.raises(ValueError, match="unknown register type"):
        pickle.loads(payload)


def test_loaded_affine_expr_drops_zero_terms_and_owns_its_dict():
    coeffs = {"i": 0, "j": 3}
    expr = AffineExpr(2, coeffs)
    coeffs["k"] = 1
    assert expr.coeffs == {"j": 3}
    assert pickle.loads(pickle.dumps(expr)).coeffs == {"j": 3}


def test_empty_path_literals_are_one_shared_set():
    program = compile_source(
        "int g[4];\n"
        "int main() { int i; for (i = 0; i < 4; i = i + 1) {"
        " if (i > 1) { g[i] = i; } } print(g[3]); return 0; }\n")
    trees = [tree for function in program.functions.values()
             for tree in function.trees.values()]
    empties = [item.path_literals for tree in trees
               for item in (*tree.ops, *tree.exits)
               if not item.path_literals]
    assert empties and all(empty is NO_PATH for empty in empties)
    assert Operation(0, Opcode.ADD).path_literals is NO_PATH
    assert TreeExit(ExitKind.HALT).path_literals is NO_PATH
    loaded = pickle.loads(pickle.dumps(trees))
    assert len({id(item.path_literals) for tree in loaded
                for item in (*tree.ops, *tree.exits)
                if not item.path_literals}) == 1
