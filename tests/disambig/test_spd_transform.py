"""Unit tests for the SpD code transformation (paper Section 4).

Every test validates *semantic preservation* by executing the tree
before and after the transform, and most check the paper's structural
claims (cost model, critical-path reduction, guard disjointness).
"""

import pytest

from repro.disambig import SpDNotApplicable, apply_spd
from repro.frontend import compile_source
from repro.ir import (ArcKind, ArrayDecl, Constant, Function, Guard, Opcode,
                      Program, Register, TreeBuilder, build_dependence_graph,
                      validate_program)
from repro.ir.guard_analysis import GuardAnalysis
from repro.machine import machine
from repro.sim import infinite_machine_timing, run_program

from ..conftest import build_raw_tree_program


def ambiguous_arc(tree, kind=None):
    graph = build_dependence_graph(tree)
    arcs = [a for a in graph.ambiguous_arcs()
            if kind is None or a.kind is kind]
    assert arcs, "expected an ambiguous arc"
    return arcs[0]


def check_semantics_preserved(program, transform):
    """Run before, apply transform to a copy, run after, compare."""
    before = run_program(program.copy())
    transformed = program.copy()
    transform(transformed)
    validate_program(transformed)
    after = run_program(transformed)
    assert before.output_equal(after), (before.output, after.output)
    return transformed


class TestRAW:
    @pytest.mark.parametrize("i,j", [(3, 3), (3, 5), (0, 15)])
    def test_semantics_preserved(self, i, j):
        program = build_raw_tree_program(i, j)

        def transform(p):
            tree = p.functions["main"].trees["t0"]
            apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))

        check_semantics_preserved(program, transform)

    def test_cost_model(self):
        """Paper Section 4.3: RAW cost is 1 + n_L (compare plus the
        replicated dependence cone) for unguarded base code."""
        program = build_raw_tree_program(2, 4)
        tree = program.functions["main"].trees["t0"]
        size_before = len(tree.ops)
        app = apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))
        # cone: load + fmul + print -> n_L = 2 replicable ops... the
        # print is a side effect so it is replicated too; the load is
        # substituted away. replicated = |cone| = 3 (load, fmul, print)
        assert app.kind is ArcKind.MEM_RAW
        assert app.ops_added == 1 + (app.replicated - 1)
        assert len(tree.ops) == size_before + app.ops_added

    def test_critical_path_shortened_for_both_outcomes(self):
        """Paper Section 4.3: 'for both the case where the addresses
        alias and the case where they do not, the resulting code will
        always run faster' given enough resources."""
        program = build_raw_tree_program(2, 4)
        tree = program.functions["main"].trees["t0"]
        graph = build_dependence_graph(tree)
        mach = machine(None, 6)
        before = infinite_machine_timing(graph, mach).path_times
        apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))
        after = infinite_machine_timing(
            build_dependence_graph(tree), mach).path_times
        assert after[0] < before[0]

    def test_arc_resolved_in_rebuilt_graph(self):
        program = build_raw_tree_program(2, 4)
        tree = program.functions["main"].trees["t0"]
        arc = ambiguous_arc(tree, ArcKind.MEM_RAW)
        apply_spd(tree, arc)
        graph = build_dependence_graph(tree)
        assert arc.key not in {a.key for a in graph.ambiguous_arcs()}

    def test_versions_have_disjoint_guards(self):
        program = build_raw_tree_program(2, 4)
        tree = program.functions["main"].trees["t0"]
        apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))
        prints = [op for op in tree.ops if op.is_print]
        assert len(prints) == 2
        analysis = GuardAnalysis(tree)
        assert analysis.disjoint(prints[0].guard, prints[1].guard)

    def test_compare_reads_both_addresses(self):
        program = build_raw_tree_program(2, 4)
        tree = program.functions["main"].trees["t0"]
        store = next(op for op in tree.ops if op.is_store)
        load = next(op for op in tree.ops if op.is_load)
        app = apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))
        compare = tree.op_by_id(app.compare_op_id)
        assert compare.opcode is Opcode.CMP_EQ
        assert set(compare.srcs) == {store.address, load.address}

    def test_forwarded_value_redefined_not_applicable(self):
        """If the stored value register is clobbered after the store,
        forwarding would read the wrong value: must refuse."""
        program = Program()
        program.globals_.append(ArrayDecl("a", "float", (8,)))
        f = Function("main")
        b = TreeBuilder("t0")
        v = Register("v.x", "float")
        b.assign(v, 1.5)
        b.store(v, 2)
        b.assign(v, 9.9)            # clobbers the forwarded value
        loaded = b.load(3, "float")
        b.emit(Opcode.PRINT, [loaded])
        b.halt()
        f.add_tree(b.tree)
        program.add_function(f)
        program.layout_memory()
        tree = program.functions["main"].trees["t0"]
        with pytest.raises(SpDNotApplicable):
            apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))


class TestRAWGuardedStore:
    def build(self, cond_lhs, i, j):
        """Store under an if-conversion guard, then load."""
        program = Program()
        program.globals_.append(ArrayDecl("a", "float", (16,)))
        f = Function("main")
        b = TreeBuilder("t0")
        cond = b.value(Opcode.CMP_LT, [cond_lhs, 5])
        value = b.value(Opcode.FADD, [2.5, 0.0])
        b.store(value, i, guard=Guard(cond))
        loaded = b.load(j, "float")
        out = b.value(Opcode.FMUL, [loaded, 10.0])
        b.emit(Opcode.PRINT, [out])
        b.halt()
        f.add_tree(b.tree)
        program.add_function(f)
        program.layout_memory()
        return program

    @pytest.mark.parametrize("cond_lhs", [1, 9])   # guard true / false
    @pytest.mark.parametrize("i,j", [(3, 3), (3, 4)])
    def test_guarded_store_semantics(self, cond_lhs, i, j):
        program = self.build(cond_lhs, i, j)

        def transform(p):
            tree = p.functions["main"].trees["t0"]
            apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))

        check_semantics_preserved(program, transform)

    def test_commit_condition_conjoined(self):
        """The alias guard must be (compare AND store guard): if the
        store does not commit, the load saw memory, not the forward."""
        program = self.build(9, 3, 3)  # guard false, same address
        tree = program.functions["main"].trees["t0"]
        apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_RAW))
        and_ops = [op for op in tree.ops if op.opcode is Opcode.AND]
        assert and_ops, "expected materialised guard conjunction"


class TestWAW:
    def build_waw(self, i, j):
        program = Program()
        program.globals_.append(ArrayDecl("a", "float", (8,)))
        f = Function("main")
        b = TreeBuilder("t0")
        v1 = b.value(Opcode.FADD, [1.0, 0.5])
        addr1 = b.value(Opcode.ADD, [i, 0])
        b.store(v1, addr1)
        v2 = b.value(Opcode.FADD, [2.0, 0.25])
        addr2 = b.value(Opcode.ADD, [j, 0])
        b.store(v2, addr2)
        out = b.load(Constant(i), "float")
        b.emit(Opcode.PRINT, [out])
        out2 = b.load(Constant(j), "float")
        b.emit(Opcode.PRINT, [out2])
        b.halt()
        f.add_tree(b.tree)
        program.add_function(f)
        program.layout_memory()
        return program

    @pytest.mark.parametrize("i,j", [(3, 3), (3, 5)])
    def test_semantics_preserved(self, i, j):
        program = self.build_waw(i, j)

        def transform(p):
            tree = p.functions["main"].trees["t0"]
            apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_WAW))

        check_semantics_preserved(program, transform)

    def test_cost_is_one_compare(self):
        """Paper Section 4.5: 'only one address comparison operation is
        required' (plus nothing else for unguarded stores)."""
        program = self.build_waw(3, 5)
        tree = program.functions["main"].trees["t0"]
        app = apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_WAW))
        assert app.kind is ArcKind.MEM_WAW
        # compare + the address chain hoist adds no ops; the first
        # store's re-guard costs nothing for unguarded stores
        assert app.ops_added == 1
        assert app.replicated == 0

    def test_address_chain_not_hoisted_over_a_reader(self):
        """S2's address is defined after a print of the old value:
        hoisting the definition above S1 would make the print see the
        new value, so the transform must refuse."""
        program = compile_source("""
            int ga[16];
            int main() {
                int x0 = 0;
                int x1 = 1;
                ga[x0] = 0; print(x1); x1 = 0; ga[x1] = 0;
                print(ga[0]);
                return 0;
            }
        """)
        tree = program.functions["main"].trees["main.b0_entry"]
        before = [op.op_id for op in tree.ops]
        with pytest.raises(SpDNotApplicable, match="used in jumped span"):
            apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_WAW))
        assert [op.op_id for op in tree.ops] == before
        assert run_program(program).output == [1, 0]

    def test_first_store_suppressed_on_alias(self):
        program = self.build_waw(3, 3)
        tree = program.functions["main"].trees["t0"]
        apply_spd(tree, ambiguous_arc(tree, ArcKind.MEM_WAW))
        stores = [op for op in tree.ops if op.is_store]
        assert stores[0].guard is not None and stores[0].guard.negate
        assert stores[1].guard is None


class TestWAR:
    def build_war(self, i, j):
        """load a[i]; dependent compute; store a[j]."""
        program = Program()
        program.globals_.append(ArrayDecl("a", "float", (8,)))
        f = Function("main")
        b = TreeBuilder("t0")
        # pre-set memory so the load sees something
        init = b.value(Opcode.FADD, [4.0, 0.5])
        b.store(init, Constant(i))
        loaded = b.load(Constant(i), "float")
        out = b.value(Opcode.FMUL, [loaded, 3.0])
        store_val = b.value(Opcode.FADD, [7.0, 0.0])
        b.store(store_val, Constant(j))
        b.emit(Opcode.PRINT, [out])
        after = b.load(Constant(j), "float")
        b.emit(Opcode.PRINT, [after])
        b.halt()
        f.add_tree(b.tree)
        program.add_function(f)
        program.layout_memory()
        return program

    def war_arc(self, tree):
        graph = build_dependence_graph(tree)
        arcs = [a for a in graph.ambiguous_arcs()
                if a.kind is ArcKind.MEM_WAR
                and tree.ops[a.src].is_load]
        assert arcs
        return arcs[0]

    @pytest.mark.parametrize("i,j", [(3, 3), (3, 5)])
    def test_semantics_preserved(self, i, j):
        program = self.build_war(i, j)

        def transform(p):
            tree = p.functions["main"].trees["t0"]
            apply_spd(tree, self.war_arc(tree))

        check_semantics_preserved(program, transform)

    def test_cost_model(self):
        """Paper Section 4.4: WAR cost is 2 + n_L (compare + new load +
        the replicated cone)."""
        program = self.build_war(3, 5)
        tree = program.functions["main"].trees["t0"]
        app = apply_spd(tree, self.war_arc(tree))
        assert app.kind is ArcKind.MEM_WAR
        assert app.ops_added == 2 + (app.replicated - 1)

    def test_new_load_reads_store_address(self):
        program = self.build_war(3, 5)
        tree = program.functions["main"].trees["t0"]
        arc = self.war_arc(tree)
        store = tree.ops[arc.dst]
        loads_before = [op for op in tree.ops if op.is_load]
        apply_spd(tree, arc)
        loads_after = [op for op in tree.ops if op.is_load]
        new_loads = [op for op in loads_after if op not in loads_before]
        assert any(op.address == store.address for op in new_loads)


class TestNonApplicability:
    def test_non_ambiguous_arc_rejected(self, raw_tree_program):
        tree = raw_tree_program.functions["main"].trees["t0"]
        graph = build_dependence_graph(tree)
        reg_arc = next(a for a in graph.arcs if a.kind is ArcKind.REG_RAW)
        with pytest.raises(SpDNotApplicable):
            apply_spd(tree, reg_arc)
