"""Unit tests for the functional simulator."""

import pytest

from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator
from repro.frontend import compile_source
from repro.ir import (ArrayDecl, Function, Guard, Opcode,
                      Program, TreeBuilder)
from repro.sim import Interpreter, InterpreterError, run_program


def single_tree_program(build, globals_=()):
    program = Program()
    for decl in globals_:
        program.globals_.append(decl)
    function = Function("main")
    builder = TreeBuilder("t0")
    build(builder)
    builder.halt()
    function.add_tree(builder.tree)
    program.add_function(function)
    program.layout_memory()
    return program


class TestGuardedExecution:
    def test_guard_skips_operation(self):
        def build(b):
            cond = b.value(Opcode.CMP_LT, [5, 3])  # false
            b.emit(Opcode.PRINT, [1], guard=Guard(cond))
            b.emit(Opcode.PRINT, [2], guard=Guard(cond, negate=True))
        result = run_program(single_tree_program(build))
        assert result.output == [2]

    def test_guarded_store_skipped(self):
        def build(b):
            cond = b.value(Opcode.CMP_LT, [5, 3])
            b.store(9.0, 0, guard=Guard(cond))
            b.emit(Opcode.PRINT, [b.load(0, "float")])
        program = single_tree_program(
            build, [ArrayDecl("a", "float", (4,))])
        assert run_program(program).output == [0]


class TestMemorySemantics:
    def test_store_then_load(self, raw_tree_program):
        result = run_program(raw_tree_program)
        assert result.output == [7.0]  # (3.5 + 0.0) forwarded, times 2

    def test_out_of_range_store_faults(self):
        def build(b):
            b.store(1.0, 9999)
        with pytest.raises(InterpreterError, match="address"):
            run_program(single_tree_program(
                build, [ArrayDecl("a", "float", (4,))]))

    def test_out_of_range_load_is_lenient_by_default(self):
        """Speculated loads never fault (paper Sections 4.1/4.6)."""
        def build(b):
            b.emit(Opcode.PRINT, [b.load(9999, "float")])
        program = single_tree_program(build, [ArrayDecl("a", "float", (4,))])
        assert run_program(program).output == [0.0]

    def test_strict_memory_mode_faults_on_bad_load(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.load(9999, "float")])
        program = single_tree_program(build, [ArrayDecl("a", "float", (4,))])
        with pytest.raises(InterpreterError):
            run_program(program, strict_memory=True)


class TestRuntimeErrors:
    def test_division_by_zero(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.DIV, [1, 0])])
        with pytest.raises(InterpreterError, match="division by zero"):
            run_program(single_tree_program(build))

    def test_step_limit(self):
        source = "int main() { while (1) { } return 0; }"
        with pytest.raises(InterpreterError, match="step limit"):
            run_program(compile_source(source), max_steps=1000)

    def test_call_stack_overflow(self):
        source = """
            int f(int n) { return f(n + 1); }
            int main() { return f(0); }
        """
        with pytest.raises(InterpreterError, match="overflow|step limit"):
            run_program(compile_source(source), max_steps=10_000_000)


class TestCSemantics:
    @pytest.mark.parametrize("a,b,q,r", [
        (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
    ])
    def test_division_truncates_toward_zero(self, a, b, q, r):
        source = f"int main() {{ print({a} / {b}); print({a} % {b}); return 0; }}"
        # negative literals arrive via unary minus; constant folding and
        # the interpreter must agree
        assert run_program(compile_source(source)).output == [q, r]

    def test_f2i_truncates(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.F2I, [2.9])])
            b.emit(Opcode.PRINT, [b.value(Opcode.F2I, [-2.9])])
        assert run_program(single_tree_program(build)).output == [2, -2]


class TestProfiling:
    def test_exit_counts(self, example22_program):
        result = run_program(example22_program)
        profile = result.profile
        loop_key = next(k for k in profile.tree_counts if "for" in k[1])
        assert profile.tree_counts[loop_key] == 101  # 100 iters + exit check
        counts = profile.exit_counts[loop_key]
        assert sum(counts) == 101

    def test_alias_pair_counts(self, example22_program):
        """Example 2-2: the a[2i] store and a[i+4] load alias exactly
        once (i = 4) in 100 co-executions — alias probability 0.01."""
        result = run_program(example22_program)
        profile = result.profile
        hits = [stats for key, stats in profile.pair_stats.items()
                if stats.executed == 100 and stats.aliased == 1]
        assert hits, "expected the Example 2-2 pair in the profile"
        assert hits[0].alias_probability == pytest.approx(0.01)

    def test_profile_disabled(self, example22_program):
        result = run_program(example22_program, collect_profile=False)
        assert not result.profile.tree_counts
        assert not result.profile.pair_stats

    def test_steps_counted(self, example22_program):
        assert run_program(example22_program).steps > 100

    @pytest.mark.parametrize("engine", ["interp", "jit"])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_pair_keys_are_op_ids(self, pipeline, name, engine):
        """Each ``pair_stats`` key ``(f, t, a, b)`` names two memory
        operations of tree ``t`` by ``op_id``, a store among them, with
        ``a`` placed before ``b``.  A SPEC view's operations are not
        numbered by position, unlike a freshly compiled program's."""
        program = pipeline.view(name, get_benchmark(name).source,
                                Disambiguator.SPEC, 2).program
        profile = run_program(program.copy(), engine=engine).profile
        assert profile.pair_stats
        memory_ops = (Opcode.LOAD, Opcode.STORE)
        for func, tree, id_a, id_b in profile.pair_stats:
            placed = {op.op_id: (node, op.opcode) for node, op in enumerate(
                program.functions[func].trees[tree].ops)}
            (node_a, opcode_a), (node_b, opcode_b) = (
                placed[id_a], placed[id_b])
            assert opcode_a in memory_ops and opcode_b in memory_ops
            assert Opcode.STORE in (opcode_a, opcode_b)
            assert node_a < node_b


class TestOutputComparison:
    def test_output_equal_exact(self, example22_result):
        assert example22_result.output_equal(example22_result)

    def test_output_equal_tolerates_tiny_float_noise(self, example22_result):
        from repro.sim import RunResult
        from repro.sim.profile import ProfileData
        perturbed = [v * (1 + 1e-12) if isinstance(v, float) else v
                     for v in example22_result.output]
        other = RunResult(perturbed, ProfileData(), 0)
        assert example22_result.output_equal(other)

    def test_output_unequal_lengths(self, example22_result):
        from repro.sim import RunResult
        from repro.sim.profile import ProfileData
        other = RunResult(example22_result.output[:-1], ProfileData(), 0)
        assert not example22_result.output_equal(other)


class TestReturnValue:
    def test_main_return_value(self):
        source = "int main() { return 42; }"
        assert run_program(compile_source(source)).return_value == 42

    def test_entry_args(self):
        program = compile_source("int main() { return 0; }")
        with pytest.raises(InterpreterError, match="expects 0 args"):
            Interpreter(program).run((1,))


class TestRemainingOpcodes:
    """Opcodes the frontend never emits but the IR supports (SELECT,
    shifts, XOR) — exercised directly."""

    def test_select(self):
        def build(b):
            cond = b.value(Opcode.CMP_LT, [1, 2])
            picked = b.value(Opcode.SELECT, [cond, 10, 20])
            b.emit(Opcode.PRINT, [picked])
            other = b.value(Opcode.CMP_LT, [2, 1])
            picked2 = b.value(Opcode.SELECT, [other, 10, 20])
            b.emit(Opcode.PRINT, [picked2])
        result = run_program(single_tree_program(build))
        assert result.output == [10, 20]

    def test_shifts(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.SHL, [3, 4])])
            b.emit(Opcode.PRINT, [b.value(Opcode.SHR, [48, 4])])
        assert run_program(single_tree_program(build)).output == [48, 3]

    def test_xor_and_not(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.XOR, [1, 0])])
            b.emit(Opcode.PRINT, [b.value(Opcode.XOR, [1, 1])])
            b.emit(Opcode.PRINT, [b.value(Opcode.NOT, [0])])
        assert run_program(single_tree_program(build)).output == [1, 0, 1]

    def test_andn(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.ANDN, [1, 0])])
            b.emit(Opcode.PRINT, [b.value(Opcode.ANDN, [1, 1])])
        assert run_program(single_tree_program(build)).output == [1, 0]

    def test_float_unaries(self):
        def build(b):
            b.emit(Opcode.PRINT, [b.value(Opcode.FNEG, [2.5])])
            b.emit(Opcode.PRINT, [b.value(Opcode.FABS, [-3.25])])
            b.emit(Opcode.PRINT, [b.value(Opcode.FSQRT, [-1.0])])  # lenient
        assert run_program(single_tree_program(build)).output == [-2.5, 3.25, 0.0]
