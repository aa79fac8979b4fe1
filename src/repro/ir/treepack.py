"""The pickled form of a decision tree: one flat tuple of atomic values.

A stored program holds thousands of operations, and unpickling each as
an object (plus its registers, guards, path sets and memory accesses)
dominated the cost of loading a program that is then only reported.  So
a :class:`~repro.ir.tree.DecisionTree` pickles as its name, its size and
the tuple :func:`pack_tree` returns, which holds only ints, strs,
floats, bools and ``None``; :func:`unpack_tree` rebuilds the fields
through the IR constructors, so every ``__post_init__`` check runs at
decode time.

The tuple is read front to back; every table precedes its first use,
and every count precedes what it counts:

* ``next_op_id``, ``next_temp_id``;
* operands: a count, then per operand a register's name and type, or a
  constant's value (a register name is the only str);
* guards: a count, then per guard its register's operand ref and
  ``negate``;
* path-literal sets other than the empty one: a count, then per set
  its size and ``register name, polarity`` pairs;
* memory accesses: a count, then per access its region (``None``, or
  the index of its kind in ``tuple(RegionKind)`` and its name), its
  subscript (``None``, or its constant, a count and ``symbol,
  coefficient`` pairs) and its bounds (a count and ``symbol, low,
  high`` triples);
* operations: a count, then per operation ``op_id``, the index of its
  opcode in ``tuple(Opcode)``, dest, guard, path, access, the number of
  sources and the sources;
* exits: a count, then per exit the index of its kind in
  ``tuple(ExitKind)``, guard, ``target``, ``callee``, result, value,
  path, the number of arguments and the arguments;
* ``spd_resolved``: a count, then the pairs.

Operands, guards, paths and accesses are refs into their tables:
``0`` for none (for a path: the empty set, ``NO_PATH``), else the
1-based index, so each decoded table starts with ``None`` (``NO_PATH``)
and every ref is a plain index.  Reordering any of the enums above
changes the encoding, so it needs a ``PIPELINE_VERSION`` bump.

Both directions are on hot paths (every store put encodes each tree; a
stage that misses over a stored artifact decodes them), and a tree has
a dozen operations on average, so the format keeps per-tree work small:
one pass each way, values shared within the tree stored once, enum
members found by ``id`` (``Enum.__hash__`` runs in Python).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .affine import AffineExpr
from .guards import Guard
from .memory import MemAccess, Region, RegionKind
from .operations import NO_PATH, Opcode, Operation
from .tree import DecisionTree, ExitKind, TreeExit
from .values import Constant, Register

__all__ = ["pack_tree", "unpack_tree"]

_OPCODES: Tuple[Opcode, ...] = tuple(Opcode)
_OPCODE_INDEX: Dict[int, int] = {id(op): i for i, op in enumerate(_OPCODES)}
_EXIT_KINDS: Tuple[ExitKind, ...] = tuple(ExitKind)
_EXIT_INDEX: Dict[int, int] = {id(k): i for i, k in enumerate(_EXIT_KINDS)}
_REGION_KINDS: Tuple[RegionKind, ...] = tuple(RegionKind)
_REGION_INDEX: Dict[int, int] = {id(k): i for i, k
                                 in enumerate(_REGION_KINDS)}


def pack_tree(tree: DecisionTree) -> Tuple[object, ...]:
    """*tree*'s operations, exits, ``spd_resolved`` and id counters as
    one flat tuple of atomic values (layout in the module docstring)."""
    operands: Dict[object, int] = {}
    operand_items: List[object] = []
    guards: Dict[Tuple[int, bool], int] = {}
    paths: Dict[frozenset, int] = {NO_PATH: 0}
    path_items: List[object] = []
    accesses: Dict[int, int] = {}
    access_items: List[object] = []

    def operand(value) -> int:
        if value is None:
            return 0
        if value.__class__ is Register:
            key = (value.name, value.type)
        else:  # 0, 0.0 and -0.0 are equal but distinct constants
            key = (value.value.__class__, repr(value.value))
        ref = operands.get(key)
        if ref is None:
            ref = operands[key] = len(operands) + 1
            if value.__class__ is Register:
                operand_items.extend(key)
            else:
                operand_items.append(value.value)
        return ref

    def guard(value) -> int:
        if value is None:
            return 0
        key = (operand(value.reg), value.negate)
        ref = guards.get(key)
        if ref is None:
            ref = guards[key] = len(guards) + 1
        return ref

    def path(literals) -> int:
        ref = paths.get(literals)
        if ref is None:
            ref = paths[literals] = len(paths)
            path_items.append(len(literals))
            for literal in literals:
                path_items.extend(literal)
        return ref

    def access(value) -> int:
        ref = accesses.get(id(value))  # SpD copies share their access
        if ref is not None:
            return ref
        ref = accesses[id(value)] = len(accesses) + 1
        region = value.region
        if region is None:
            access_items.append(None)
        else:
            access_items.extend((_REGION_INDEX[id(region.kind)],
                                 region.name))
        subscript = value.subscript
        if subscript is None:
            access_items.append(None)
        else:
            access_items.extend((subscript.const, len(subscript.coeffs)))
            for item in subscript.coeffs.items():
                access_items.extend(item)
        access_items.append(len(value.bounds))
        for symbol, (low, high) in value.bounds.items():
            access_items.extend((symbol, low, high))
        return ref

    # most operations have no guard, path literals or access: those
    # skip the helper call
    body: List[object] = [len(tree.ops)]
    for op in tree.ops:
        srcs = op.srcs
        body += (op.op_id, _OPCODE_INDEX[id(op.opcode)], operand(op.dest),
                 0 if op.guard is None else guard(op.guard),
                 0 if op.path_literals is NO_PATH
                 else path(op.path_literals),
                 0 if op.access is None else access(op.access),
                 len(srcs), *map(operand, srcs))
    body.append(len(tree.exits))
    for exit_ in tree.exits:
        args = exit_.args
        body += (_EXIT_INDEX[id(exit_.kind)], guard(exit_.guard),
                 exit_.target, exit_.callee, operand(exit_.result),
                 operand(exit_.value), path(exit_.path_literals), len(args),
                 *map(operand, args))
    body.append(len(tree.spd_resolved))
    for pair in tree.spd_resolved:
        body += pair
    return (tree.next_op_id, tree.next_temp_id, len(operands),
            *operand_items, len(guards), *[item for key in guards
                                            for item in key],
            len(paths) - 1, *path_items, len(accesses), *access_items, *body)


def unpack_tree(packed: Tuple[object, ...]
                ) -> Tuple[List[Operation], List[TreeExit], Set, int, int]:
    """``(ops, exits, spd_resolved, next_op_id, next_temp_id)`` decoded
    from :func:`pack_tree`'s tuple, every object built through its
    constructor."""
    nxt = iter(packed).__next__
    next_op_id = nxt()
    next_temp_id = nxt()
    operands: List[object] = [None]
    for _ in range(nxt()):
        head = nxt()
        operands.append(Register(head, nxt()) if head.__class__ is str
                        else Constant(head))
    guards: List[object] = [None]
    for _ in range(nxt()):
        guards.append(Guard(operands[nxt()], nxt()))
    paths: List[frozenset] = [NO_PATH]
    for _ in range(nxt()):
        paths.append(frozenset([(nxt(), nxt()) for _ in range(nxt())]))
    accesses: List[object] = [None]
    for _ in range(nxt()):
        accesses.append(_unpack_access(nxt))
    opcodes = _OPCODES
    ops: List[Operation] = []
    append = ops.append
    for _ in range(nxt()):
        op_id = nxt()
        opcode = nxt()
        dest = nxt()
        guard = nxt()
        path = nxt()
        access = nxt()
        count = nxt()
        append(Operation(
            op_id, opcodes[opcode], operands[dest],
            (operands[nxt()], operands[nxt()]) if count == 2
            else (operands[nxt()],) if count == 1
            else tuple([operands[nxt()] for _ in range(count)]),
            guards[guard], paths[path], accesses[access]))
    exits: List[TreeExit] = []
    for _ in range(nxt()):
        kind = nxt()
        guard = nxt()
        target = nxt()
        callee = nxt()
        result = nxt()
        value = nxt()
        path = nxt()
        exits.append(TreeExit(
            _EXIT_KINDS[kind], guards[guard], target, callee,
            tuple([operands[nxt()] for _ in range(nxt())]),
            operands[result], operands[value], paths[path]))
    spd_resolved = {(nxt(), nxt()) for _ in range(nxt())}
    return ops, exits, spd_resolved, next_op_id, next_temp_id


def _unpack_access(nxt) -> MemAccess:
    """One memory access, read through *nxt* (its layout in the module
    docstring)."""
    region = kind = nxt()
    if kind is not None:
        region = Region(_REGION_KINDS[kind], nxt())
    subscript = const = nxt()
    if const is not None:
        subscript = AffineExpr(const, {nxt(): nxt() for _ in range(nxt())})
    return MemAccess(region, subscript,
                     {nxt(): (nxt(), nxt()) for _ in range(nxt())})
