"""Unit and behavioural tests for grafting (tree enlargement).

Paper Section 7: enlarging trees through code replication (grafting)
should expose more SpD opportunities.  The non-negotiable property is
semantic preservation; structure tests check trees actually grow and
the bounds hold.
"""

import pytest

from repro.frontend import GraftConfig, compile_source, graft_program
from repro.ir import ExitKind, validate_program
from repro.sim import run_program


IF_CHAIN = """
int a[8];
int main() {
    int x = 3;
    if (x > 1) { a[0] = 1; } else { a[1] = 2; }
    a[2] = 3;
    if (x > 2) { a[3] = 4; }
    print(a[0]); print(a[1]); print(a[2]); print(a[3]);
    return 0;
}
"""

LOOP_WITH_TAIL = """
int a[16];
int main() {
    int i; int s = 0;
    for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
    s = a[3] + a[5];
    print(s);
    return 0;
}
"""


def graft_source(source, config=GraftConfig()):
    program = compile_source(source)
    reference = run_program(program.copy(), collect_profile=False)
    grafted, stats = graft_program(program, config)
    validate_program(grafted)
    result = run_program(grafted.copy(), collect_profile=False)
    assert reference.output_equal(result)
    return program, grafted, stats


class TestSemantics:
    def test_if_chain(self):
        graft_source(IF_CHAIN)

    def test_loop_with_tail(self):
        graft_source(LOOP_WITH_TAIL)

    @pytest.mark.parametrize("name", ["fft", "quick", "queen", "perm",
                                      "tree", "espresso"])
    def test_benchmarks_preserved(self, name):
        from repro.bench import get_benchmark
        graft_source(get_benchmark(name).source)


class TestStructure:
    def test_join_trees_merged(self):
        """The if-else join trees get inlined: fewer, larger trees."""
        program, grafted, stats = graft_source(IF_CHAIN)
        assert stats.grafts >= 1
        assert len(list(grafted.all_trees())) <= len(list(program.all_trees()))

    def test_input_not_mutated(self):
        program = compile_source(IF_CHAIN)
        size = program.size()
        graft_program(program)
        assert program.size() == size

    def test_loop_back_edges_survive(self):
        _program, grafted, _stats = graft_source(LOOP_WITH_TAIL)
        self_loops = [
            (tree.name, e) for _f, tree in grafted.all_trees()
            for e in tree.exits
            if e.kind is ExitKind.GOTO and e.target == tree.name]
        assert self_loops, "the for-loop back edge must remain"

    def test_growth_bounded(self):
        config = GraftConfig(max_growth=1.5)
        program = compile_source(IF_CHAIN)
        base_sizes = {t.name: t.size() for _f, t in program.all_trees()}
        grafted, _stats = graft_program(program, config)
        for _f, tree in grafted.all_trees():
            base = base_sizes.get(tree.name)
            if base:
                # one graft may overshoot slightly; the *next* is refused
                assert tree.size() <= base * 1.5 + GraftConfig().max_target_size

    def test_unreachable_trees_pruned(self):
        _program, grafted, stats = graft_source(IF_CHAIN)
        # every remaining tree is reachable from its function entry
        for function in grafted.functions.values():
            reachable = {function.entry}
            stack = [function.entry]
            while stack:
                tree = function.trees[stack.pop()]
                for exit_ in tree.exits:
                    if exit_.target and exit_.target not in reachable:
                        reachable.add(exit_.target)
                        stack.append(exit_.target)
            assert set(function.trees) == reachable

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraftConfig(max_target_size=0)
        with pytest.raises(ValueError):
            GraftConfig(max_growth=0.5)


class TestSpDInteraction:
    def test_grafting_never_hurts_spec(self):
        """The Section 7 hypothesis, as an invariant: with grafted trees
        SPEC-over-STATIC is at least as good (modulo 1-cycle scheduler
        noise) as without, on a wide machine."""
        from repro.machine import machine
        from repro.pipeline import Pipeline

        from ..conftest import spec_over_static
        mach = machine(8, 6)
        base = Pipeline()
        grafted = Pipeline(graft=GraftConfig())
        for name in ("perm", "quick", "queen"):
            assert (spec_over_static(grafted, name, mach)
                    >= spec_over_static(base, name, mach) - 0.02), name
