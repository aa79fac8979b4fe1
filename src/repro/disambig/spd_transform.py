"""The speculative disambiguation code transformation (paper Section 4).

Given an ambiguous memory dependence arc inside a decision tree, the
transform produces code that anticipates *both* outcomes of the alias:

* **RAW** (store S -> load L, Figure 4-4): an address compare ``c`` is
  inserted; the load and its dependent operations become the *no-alias*
  version (the arc is dropped, so the load can be hoisted above the
  store); a replicated *alias* version receives the stored value by
  direct forwarding, eliminating the store->load latency; side-effect
  and escaping operations of the two versions are guarded by the two
  polarities of ``c`` (conjoined with any pre-existing guard).
* **WAR** (load L1 -> store S1, Figure 4-5): a new load L3 from S1's
  address is inserted before L1; the alias version of L1's dependents
  reads L3 (the pre-store value), the no-alias version keeps L1; the
  arc is dropped so S1 may ascend past L1.  Cost 2 + n_L.
* **WAW** (store S1 -> store S2, Figure 4-6): the arc is dropped so S2
  may execute first; S1 is additionally guarded by "addresses differ
  (or S2 does not commit)", because an aliasing S1 would have been
  overwritten by S2 anyway.  Cost 1.

Operations are replicated *interleaved* (each copy directly after its
original), which preserves the sequential def-before-use discipline the
functional simulator checks; the list scheduler is what actually moves
the speculative version early.

Guard conjunctions are materialised with AND/ANDN/OR operations; the
alias/no-alias guard pairs are constructed so that
:class:`~repro.ir.guard_analysis.GuardAnalysis` proves them disjoint —
otherwise the two versions would serialise against each other.

When a precondition fails (an address register redefined between the
references, a non-hoistable address chain, ...), the transform raises
:class:`SpDNotApplicable` and the guidance heuristic moves on to the
next candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.depgraph import Arc, ArcKind
from ..ir.guards import Guard
from ..ir.operations import Opcode, Operation
from ..ir.tree import DecisionTree
from ..ir.values import BOOL, FLOAT, Operand, Register

__all__ = ["SpDNotApplicable", "SpDApplication", "apply_spd",
           "apply_spd_combined"]


class SpDNotApplicable(Exception):
    """The transformation's preconditions do not hold for this arc."""


@dataclass(frozen=True)
class SpDApplication:
    """Record of one successful SpD application."""

    kind: ArcKind
    pair: Tuple[int, int]      #: (earlier op_id, later op_id) of the resolved arc
    ops_added: int             #: code-size cost in operations
    replicated: int            #: operations in the duplicated dependence cone
    compare_op_id: int         #: op_id of the inserted address compare


# ---------------------------------------------------------------------------
# small analyses
# ---------------------------------------------------------------------------

def _def_positions(ops: List[Operation], reg: Register) -> List[int]:
    return [i for i, op in enumerate(ops) if op.dest == reg]


def _require_stable(ops: List[Operation], operand: Operand,
                    after: int, until: Optional[int], what: str) -> None:
    """Fail unless register *operand* has no definitions in positions
    ``(after, until)`` (until=None means to the end of the tree)."""
    if not isinstance(operand, Register):
        return
    stop = until if until is not None else len(ops)
    for op in ops[after + 1:stop]:
        if op.dest == operand:
            raise SpDNotApplicable(f"{what}: %{operand.name} redefined in between")


def _dependents(ops: List[Operation], root: int) -> Set[int]:
    """Indices of *root* plus everything directly or indirectly data
    dependent on it (register flow, including guard reads) — the
    paper's n_L cone."""
    result = {root}
    dest = ops[root].dest
    dest_names: Set[str] = {dest.name} if dest is not None else set()
    for k in range(root + 1, len(ops)):
        op = ops[k]
        names = {r.name for r in op.source_registers()}
        if names & dest_names:
            result.add(k)
            if op.dest is not None:
                dest_names.add(op.dest.name)
    return result


def _escaping(tree: DecisionTree, dup: Set[int]) -> Set[int]:
    """Duplicated ops whose result is observable outside the replicated
    cone: variable-register writes and values read by exits.  (All
    register readers of a cone value are in the cone by construction.)"""
    exit_reads = {reg.name for exit_ in tree.exits
                  for reg in exit_.source_registers()}
    escaping = set()
    for d in dup:
        dest = tree.ops[d].dest
        if dest is None:
            continue
        if dest.is_variable or dest.name in exit_reads:
            escaping.add(d)
    return escaping


# ---------------------------------------------------------------------------
# hoisting pure address chains (needed by WAW)
# ---------------------------------------------------------------------------

def _hoist_chain(tree: DecisionTree, operand: Operand, insert_pos: int,
                 read_pos: int) -> None:
    """Move the pure defining chain of *operand* (as read at ``read_pos``)
    above ``insert_pos``.

    Only unguarded side-effect-free non-load chains qualify, each moved
    register must have a unique reaching definition, no operation
    jumped over may redefine a chain input, and no operation jumped
    over may read or write a chain result (it would see the hoisted
    value instead of the old one).  Raises :class:`SpDNotApplicable`
    when any condition fails.
    """
    if not isinstance(operand, Register):
        return
    ops = tree.ops

    def reaching_def(reg: Register, use_pos: int) -> Optional[int]:
        """Position of *reg*'s unique reaching def, None if live-in;
        fails when several defs precede the use (ambiguous value)."""
        before = [d for d in _def_positions(ops, reg) if d < use_pos]
        if not before:
            return None
        if len(before) > 1 and before[-2] >= insert_pos:
            raise SpDNotApplicable(
                f"hoist: %{reg.name} multiply defined in hoist region")
        return before[-1]

    root = reaching_def(operand, read_pos)
    if root is None or root < insert_pos:
        return  # already available
    chain: Set[int] = set()

    def collect(idx: int) -> None:
        if idx in chain:
            return
        op = ops[idx]
        if op.has_side_effect or op.guard is not None or op.opcode is Opcode.LOAD:
            raise SpDNotApplicable(f"hoist: op {op.op_id} not a pure ALU op")
        chain.add(idx)
        for reg in op.data_source_registers():
            sub = reaching_def(reg, idx)
            if sub is not None and sub >= insert_pos:
                collect(sub)

    collect(root)
    for idx in sorted(chain):
        for reg in ops[idx].data_source_registers():
            for k in range(insert_pos, idx):
                if k not in chain and ops[k].dest == reg:
                    raise SpDNotApplicable(
                        f"hoist: input %{reg.name} redefined in jumped span")
        dest = ops[idx].dest
        for k in range(insert_pos, idx):
            if k not in chain and (ops[k].dest == dest
                                   or dest in ops[k].source_registers()):
                raise SpDNotApplicable(
                    f"hoist: %{dest.name} used in jumped span")
    moved = [ops[i] for i in sorted(chain)]
    remaining = [op for i, op in enumerate(ops) if i not in chain]
    tree.ops = remaining[:insert_pos] + moved + remaining[insert_pos:]


# ---------------------------------------------------------------------------
# guard materialisation
# ---------------------------------------------------------------------------

class _GuardCombiner:
    """Materialises ``base AND ce`` / ``base AND NOT ce`` guards.

    ``ce`` is the store's commit-and-alias condition register.  Helper
    operations are appended to caller-provided sinks right before first
    use, and cached so each distinct conjunction costs one operation.
    """

    def __init__(self, tree: DecisionTree, ce_reg: Register):
        self.tree = tree
        self.ce = ce_reg
        self._cache: Dict[Tuple[str, bool, bool], Guard] = {}

    def combine(self, base: Optional[Guard], alias: bool,
                sink: List[Operation]) -> Guard:
        if base is None:
            return Guard(self.ce, negate=not alias)
        key = (base.reg.name, base.negate, alias)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        tree = self.tree
        dest = tree.fresh_register(BOOL, "g")
        if alias:
            # base AND ce
            opcode = Opcode.ANDN if base.negate else Opcode.AND
            op = Operation(tree.fresh_op_id(), opcode, dest=dest,
                           srcs=(self.ce, base.reg))
            guard = Guard(dest)
        elif not base.negate:
            # base AND NOT ce
            op = Operation(tree.fresh_op_id(), Opcode.ANDN, dest=dest,
                           srcs=(base.reg, self.ce))
            guard = Guard(dest)
        else:
            # NOT base AND NOT ce  ==  NOT (base OR ce)   (De Morgan)
            op = Operation(tree.fresh_op_id(), Opcode.OR, dest=dest,
                           srcs=(base.reg, self.ce))
            guard = Guard(dest, negate=True)
        sink.append(op)
        self._cache[key] = guard
        return guard


# ---------------------------------------------------------------------------
# the three transformations
# ---------------------------------------------------------------------------

def apply_spd(tree: DecisionTree, arc: Arc) -> SpDApplication:
    """Apply speculative disambiguation to one ambiguous arc, mutating
    *tree* in place.  ``arc`` must come from a dependence graph built on
    the tree's current state."""
    if not arc.ambiguous:
        raise SpDNotApplicable("arc is not ambiguous")
    if arc.kind is ArcKind.MEM_RAW:
        return _apply_raw_or_war(tree, arc, war=False)
    if arc.kind is ArcKind.MEM_WAR:
        return _apply_raw_or_war(tree, arc, war=True)
    if arc.kind is ArcKind.MEM_WAW:
        return _apply_waw(tree, arc)
    raise SpDNotApplicable(f"not a memory arc: {arc.kind}")


def _mov_opcode(reg: Register) -> Opcode:
    return Opcode.FMOV if reg.type == FLOAT else Opcode.MOV


def _apply_raw_or_war(tree: DecisionTree, arc: Arc, war: bool) -> SpDApplication:
    ops = tree.ops
    size_before = len(ops)
    if war:
        load_pos, store_pos = arc.src, arc.dst
    else:
        store_pos, load_pos = arc.src, arc.dst
    store = ops[store_pos]
    load = ops[load_pos]
    if not (store.is_store and load.is_load):
        raise SpDNotApplicable("arc endpoints are not a store/load pair")

    dup = _dependents(ops, load_pos)
    insert_pos = load_pos if not war else load_pos  # cone root: the load
    pair = ((store.op_id, load.op_id) if not war
            else (load.op_id, store.op_id))

    # -- precondition checks -------------------------------------------------
    if war:
        # compare and L3 go above L1; S1's address/guard chains must be
        # liftable there, and stay stable down to the store itself
        _hoist_chain(tree, store.address, insert_pos, store_pos)
        if store.guard is not None:
            _hoist_chain(tree, store.guard.reg,
                         tree.op_index(load.op_id),
                         tree.op_index(store.op_id))
        ops = tree.ops  # hoisting rebuilt the list
        store_pos = tree.op_index(store.op_id)
        load_pos = tree.op_index(load.op_id)
        insert_pos = load_pos
        dup = _dependents(ops, load_pos)
        _require_stable(ops, store.address, insert_pos - 1, store_pos,
                        "WAR store address")
        if store.guard is not None:
            _require_stable(ops, store.guard.reg, insert_pos - 1, None,
                            "WAR store guard")
    else:
        # compare reads the store's address at the load's position
        _require_stable(ops, store.address, store_pos, load_pos,
                        "RAW store address")
        if isinstance(store.store_value, Register):
            _require_stable(ops, store.store_value, store_pos, None,
                            "RAW forwarded value")
        if store.guard is not None:
            _require_stable(ops, store.guard.reg, store_pos, None,
                            "RAW store guard")

    # -- pre-block: compare (+ commit conjunction) (+ WAR's L3) -------------
    pre: List[Operation] = []
    cmp_reg = tree.fresh_register(BOOL, "g")
    cmp_op = Operation(tree.fresh_op_id(), Opcode.CMP_EQ, dest=cmp_reg,
                       srcs=(store.address, load.address))
    pre.append(cmp_op)
    if store.guard is None:
        ce_reg = cmp_reg
    else:
        ce_reg = tree.fresh_register(BOOL, "g")
        opcode = Opcode.ANDN if store.guard.negate else Opcode.AND
        pre.append(Operation(tree.fresh_op_id(), opcode, dest=ce_reg,
                             srcs=(cmp_reg, store.guard.reg)))

    if not war:
        # RAW forwarding is only valid when *this* store is the last
        # aliasing writer: a store between S and L that also hits L's
        # address would supply the value instead.  Extend the commit
        # condition: ce = (c AND gS) AND NOT (c' AND gS') per
        # intervening store.  (Figure 4-4 assumes a lone pair; this is
        # the general-case condition.)
        for between_pos in range(store_pos + 1, load_pos):
            mid = ops[between_pos]
            if not mid.is_store:
                continue
            _require_stable(ops, mid.address, between_pos, load_pos,
                            "RAW intervening store address")
            if mid.guard is not None:
                _require_stable(ops, mid.guard.reg, between_pos, load_pos,
                                "RAW intervening store guard")
            mid_cmp = tree.fresh_register(BOOL, "g")
            pre.append(Operation(tree.fresh_op_id(), Opcode.CMP_EQ,
                                 dest=mid_cmp,
                                 srcs=(mid.address, load.address)))
            if mid.guard is not None:
                mid_commit = tree.fresh_register(BOOL, "g")
                opcode = Opcode.ANDN if mid.guard.negate else Opcode.AND
                pre.append(Operation(tree.fresh_op_id(), opcode,
                                     dest=mid_commit,
                                     srcs=(mid_cmp, mid.guard.reg)))
            else:
                mid_commit = mid_cmp
            narrowed = tree.fresh_register(BOOL, "g")
            pre.append(Operation(tree.fresh_op_id(), Opcode.ANDN,
                                 dest=narrowed,
                                 srcs=(ce_reg, mid_commit)))
            ce_reg = narrowed

    combiner = _GuardCombiner(tree, ce_reg)

    forward_source: Operand
    if war:
        l3_dest = tree.fresh_register(load.dest.type if load.dest else FLOAT)
        pre.append(Operation(tree.fresh_op_id(), Opcode.LOAD, dest=l3_dest,
                             srcs=(store.address,), access=store.access))
        forward_source = l3_dest
    else:
        forward_source = store.store_value

    escaping = _escaping(tree, dup)
    subst: Dict[str, Operand] = {}
    out: List[Operation] = []

    for pos, op in enumerate(ops):
        if pos == insert_pos:
            out.extend(pre)
        if pos not in dup:
            out.append(op)
            continue
        is_root = pos == load_pos
        if is_root:
            if pos in escaping:
                out.append(op.with_guard(
                    combiner.combine(op.guard, alias=False, sink=out)))
                copy_guard = combiner.combine(op.guard, alias=True, sink=out)
                out.append(Operation(
                    tree.fresh_op_id(), _mov_opcode(op.dest), dest=op.dest,
                    srcs=(forward_source,), guard=copy_guard,
                    path_literals=op.path_literals))
            else:
                out.append(op)
                subst[op.dest.name] = forward_source
            continue
        copy_srcs = tuple(
            subst.get(src.name, src) if isinstance(src, Register) else src
            for src in op.srcs)
        # access describes the *address*; keep it unless that operand changed
        access = op.access
        if op.is_memory:
            addr_index = 0 if op.is_load else 1
            if copy_srcs[addr_index] != op.srcs[addr_index]:
                access = None
        if op.has_side_effect or pos in escaping:
            out.append(op.with_guard(
                combiner.combine(op.guard, alias=False, sink=out)))
            copy_guard = combiner.combine(op.guard, alias=True, sink=out)
            out.append(Operation(
                tree.fresh_op_id(), op.opcode, dest=op.dest, srcs=copy_srcs,
                guard=copy_guard, path_literals=op.path_literals,
                access=access))
        else:
            out.append(op)
            fresh = tree.fresh_register(op.dest.type)
            subst[op.dest.name] = fresh
            out.append(Operation(
                tree.fresh_op_id(), op.opcode, dest=fresh, srcs=copy_srcs,
                guard=op.guard, path_literals=op.path_literals,
                access=access))

    tree.ops = out
    tree.spd_resolved.add(pair)
    return SpDApplication(
        kind=ArcKind.MEM_WAR if war else ArcKind.MEM_RAW,
        pair=pair,
        ops_added=len(out) - size_before,
        replicated=len(dup),
        compare_op_id=cmp_op.op_id,
    )


def _apply_waw(tree: DecisionTree, arc: Arc) -> SpDApplication:
    ops = tree.ops
    size_before = len(ops)
    store1 = ops[arc.src]
    store2 = ops[arc.dst]
    if not (store1.is_store and store2.is_store):
        raise SpDNotApplicable("WAW arc endpoints are not both stores")
    pair = (store1.op_id, store2.op_id)

    s1_pos = arc.src
    # the compare (and S2's commit condition) must be computable above S1
    _hoist_chain(tree, store2.address, s1_pos, arc.dst)
    s1_pos = tree.op_index(store1.op_id)
    if store2.guard is not None:
        _hoist_chain(tree, store2.guard.reg, s1_pos,
                     tree.op_index(store2.op_id))
        s1_pos = tree.op_index(store1.op_id)
    ops = tree.ops
    s2_pos = tree.op_index(store2.op_id)
    _require_stable(ops, store2.address, s1_pos - 1, s2_pos, "WAW S2 address")
    if store2.guard is not None:
        _require_stable(ops, store2.guard.reg, s1_pos - 1, s2_pos, "WAW S2 guard")
    # suppressing S1 is only sound if nothing reads S1's value before S2
    # overwrites it: a load between the stores may observe S1
    for mid in ops[s1_pos + 1:s2_pos]:
        if mid.is_load:
            raise SpDNotApplicable(
                "WAW: a load between the stores may read S1's value")

    pre: List[Operation] = []
    cmp_reg = tree.fresh_register(BOOL, "g")
    cmp_op = Operation(tree.fresh_op_id(), Opcode.CMP_EQ, dest=cmp_reg,
                       srcs=(store1.address, store2.address))
    pre.append(cmp_op)
    if store2.guard is None:
        ce_reg = cmp_reg
    else:
        ce_reg = tree.fresh_register(BOOL, "g")
        opcode = Opcode.ANDN if store2.guard.negate else Opcode.AND
        pre.append(Operation(tree.fresh_op_id(), opcode, dest=ce_reg,
                             srcs=(cmp_reg, store2.guard.reg)))
    combiner = _GuardCombiner(tree, ce_reg)
    new_guard = combiner.combine(store1.guard, alias=False, sink=pre)

    out = ops[:s1_pos] + pre + [store1.with_guard(new_guard)] + ops[s1_pos + 1:]
    tree.ops = out
    tree.spd_resolved.add(pair)
    return SpDApplication(
        kind=ArcKind.MEM_WAW,
        pair=pair,
        ops_added=len(out) - size_before,
        replicated=0,
        compare_op_id=cmp_op.op_id,
    )


# ---------------------------------------------------------------------------
# combined multi-pair transformation (paper Section 7)
# ---------------------------------------------------------------------------

def apply_spd_combined(tree: DecisionTree, arcs: List[Arc]) -> SpDApplication:
    """Speculatively disambiguate several RAW pairs with *two* versions.

    The one-at-a-time transform of Section 4 can produce up to 2^n code
    copies for n pairs.  Section 7 proposes the alternative implemented
    here: "use alias probabilities ... to generate one version of code
    for the most likely outcome [no alias anywhere].  Then generate
    another version of the code that will execute correctly, albeit
    more slowly, for the other 2^n - 1 outcomes."

    Construction: one compare per pair; ``u = OR(commit-and-alias_i)``;
    the *fast* version replicates the union of the loads' dependence
    cones with fresh loads unconstrained by the involved stores, guarded
    ``NOT u``; the original code keeps every arc and becomes the *slow*
    version, its side effects guarded ``u``.  Cost: n compares, n-1 ORs,
    any guard conjunctions, plus one copy of the union cone — linear in
    n instead of exponential.

    Measured limitation (Ablation D): under *pure guarded execution* the
    slow version still occupies the static schedule, and the tree's exit
    must wait for whatever might commit — so the fast copies hoist but
    the tree time does not drop.  Cashing in the fast path needs an
    explicit branch on ``u``, which is exactly Nicolau's run-time
    disambiguation that the paper contrasts in Section 2.3.  The
    one-at-a-time transform avoids this because its alias version uses
    *forwarding* and is itself short.
    """
    if not arcs:
        raise SpDNotApplicable("no arcs given")
    ops = tree.ops
    size_before = len(ops)
    pairs = []
    for arc in arcs:
        if not arc.ambiguous or arc.kind is not ArcKind.MEM_RAW:
            raise SpDNotApplicable("combined transform handles ambiguous "
                                   "RAW arcs only")
        store, load = ops[arc.src], ops[arc.dst]
        if not (store.is_store and load.is_load):
            raise SpDNotApplicable("arc endpoints are not a store/load pair")
        if (arc.src, arc.dst) not in pairs:
            pairs.append((arc.src, arc.dst))
    # which stores each load is being released from (a fan of stores
    # into one load is the natural case here — one fresh load shakes
    # off all of them at once)
    by_load: Dict[int, Set[int]] = {}
    for store_pos, load_pos in pairs:
        by_load.setdefault(load_pos, set()).add(store_pos)

    # -- make every pair's address (and store guard) available at the
    # compare point by hoisting pure chains, exactly as the WAW
    # transform does; fail if any chain is not liftable -----------------
    pair_ids = [(ops[s].op_id, ops[ld].op_id) for s, ld in pairs]

    def positions():
        return [(tree.op_index(sid), tree.op_index(lid))
                for sid, lid in pair_ids]

    for _round in range(4 * len(pair_ids)):
        ops = tree.ops
        pair_positions = positions()
        insert_pos = min(ld for _s, ld in pair_positions)
        moved_something = False
        for store_pos, load_pos in pair_positions:
            store, load = ops[store_pos], ops[load_pos]
            for operand, use_pos in ((store.address, store_pos),
                                     (load.address, load_pos)):
                _hoist_chain(tree, operand, insert_pos, use_pos)
                if tree.ops is not ops:
                    moved_something = True
                    break
            if moved_something:
                break
            if store.guard is not None:
                _hoist_chain(tree, store.guard.reg, insert_pos, store_pos)
                if tree.ops is not ops:
                    moved_something = True
                    break
        if not moved_something:
            break
    else:
        raise SpDNotApplicable("combined: address hoisting did not converge")

    ops = tree.ops
    pairs = positions()
    by_load = {}
    for store_pos, load_pos in pairs:
        by_load.setdefault(load_pos, set()).add(store_pos)
    insert_pos = min(ld for _s, ld in pairs)
    for store_pos, load_pos in pairs:
        store = ops[store_pos]
        _require_stable(ops, store.address, insert_pos - 1, store_pos,
                        "combined store address")
        if store.guard is not None:
            _require_stable(ops, store.guard.reg, insert_pos - 1, None,
                            "combined store guard")

    # -- compares, commit conditions, and the OR chain ----------------------
    pre: List[Operation] = []
    compare_ids = []
    commit_regs: List[Register] = []
    for store_pos, load_pos in pairs:
        store, load = ops[store_pos], ops[load_pos]
        cmp_reg = tree.fresh_register(BOOL, "g")
        cmp_op = Operation(tree.fresh_op_id(), Opcode.CMP_EQ, dest=cmp_reg,
                           srcs=(store.address, load.address))
        pre.append(cmp_op)
        compare_ids.append(cmp_op.op_id)
        if store.guard is None:
            commit_regs.append(cmp_reg)
        else:
            ce_reg = tree.fresh_register(BOOL, "g")
            opcode = Opcode.ANDN if store.guard.negate else Opcode.AND
            pre.append(Operation(tree.fresh_op_id(), opcode, dest=ce_reg,
                                 srcs=(cmp_reg, store.guard.reg)))
            commit_regs.append(ce_reg)
    any_alias = commit_regs[0]
    for reg in commit_regs[1:]:
        merged = tree.fresh_register(BOOL, "g")
        pre.append(Operation(tree.fresh_op_id(), Opcode.OR, dest=merged,
                             srcs=(any_alias, reg)))
        any_alias = merged
    combiner = _GuardCombiner(tree, any_alias)

    # -- the union cone -------------------------------------------------------
    dup: Set[int] = set()
    for _store_pos, load_pos in pairs:
        dup |= _dependents(ops, load_pos)
    load_positions = set(by_load)
    escaping = _escaping(tree, dup)

    subst: Dict[str, Operand] = {}
    out: List[Operation] = []
    fast_pairs: Set[Tuple[int, int]] = set()

    def release(load_pos: int, copy_id: int) -> None:
        """The fast copy of this load is freed from exactly the stores
        it was paired with; arcs against any other store survive."""
        for store_pos in by_load[load_pos]:
            fast_pairs.add((ops[store_pos].op_id, copy_id))

    for pos, op in enumerate(ops):
        if pos == insert_pos:
            out.extend(pre)
        if pos not in dup:
            out.append(op)
            continue
        if pos in load_positions and pos not in escaping:
            # originals (slow version) keep the load as-is; the fast
            # version gets a fresh load, freed from its paired stores
            out.append(op)
            fresh = tree.fresh_register(op.dest.type)
            copy = Operation(tree.fresh_op_id(), Opcode.LOAD, dest=fresh,
                             srcs=op.srcs, guard=op.guard,
                             path_literals=op.path_literals,
                             access=op.access)
            subst[op.dest.name] = fresh
            release(pos, copy.op_id)
            out.append(copy)
            continue
        copy_srcs = tuple(
            subst.get(src.name, src) if isinstance(src, Register) else src
            for src in op.srcs)
        access = op.access
        if op.is_memory:
            addr_index = 0 if op.is_load else 1
            if copy_srcs[addr_index] != op.srcs[addr_index]:
                access = None
        if op.has_side_effect or pos in escaping:
            out.append(op.with_guard(
                combiner.combine(op.guard, alias=True, sink=out)))
            copy_guard = combiner.combine(op.guard, alias=False, sink=out)
            copy = Operation(tree.fresh_op_id(), op.opcode, dest=op.dest,
                             srcs=copy_srcs, guard=copy_guard,
                             path_literals=op.path_literals, access=access)
            if pos in load_positions:
                release(pos, copy.op_id)
            out.append(copy)
        else:
            out.append(op)
            fresh = tree.fresh_register(op.dest.type)
            subst[op.dest.name] = fresh
            copy = Operation(tree.fresh_op_id(), op.opcode, dest=fresh,
                             srcs=copy_srcs, guard=op.guard,
                             path_literals=op.path_literals, access=access)
            if pos in load_positions:
                release(pos, copy.op_id)
            out.append(copy)

    tree.ops = out
    tree.spd_resolved.update(fast_pairs)
    return SpDApplication(
        kind=ArcKind.MEM_RAW,
        pair=(ops[pairs[0][0]].op_id, ops[pairs[0][1]].op_id),
        ops_added=len(out) - size_before,
        replicated=len(dup),
        compare_op_id=compare_ids[0],
    )
