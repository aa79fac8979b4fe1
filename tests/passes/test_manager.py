"""Pass manager contract: pass names, ordering, graph dropping, dumps."""

import pytest

from repro.ir.program import Program
from repro.ir.validate import IRValidationError
from repro.passes import (CLEANUP_PASSES, DEFAULT_CLEANUP, Pass, PassContext,
                          PassManager, PassPipelineConfig, PassResult,
                          UnknownPassError, build_cleanup_passes)


class _Recorder(Pass):
    """Test pass that logs its invocation and optionally mutates."""

    def __init__(self, name, log, changed=False, mutate=None):
        self.name = name
        self.log = log
        self.changed = changed
        self.mutate = mutate

    def run(self, program, ctx):
        self.log.append(self.name)
        if self.mutate is not None:
            self.mutate(program)
        return PassResult(program, changed=self.changed)


class TestRegistry:
    """The name -> class table of the cleanup passes."""

    def test_builtins_registered(self):
        assert set(CLEANUP_PASSES) == set(DEFAULT_CLEANUP)
        for name, cls in CLEANUP_PASSES.items():
            assert cls.name == name

    def test_unknown_name_lists_known(self):
        for name in ("nope", "lower", "graft"):
            with pytest.raises(UnknownPassError,
                               match=r"unknown pass .*constfold.*spd"):
                build_cleanup_passes((name,))

    def test_cleanup_builder_orders_and_rejects(self):
        passes = build_cleanup_passes(("dce", "constfold"))
        assert [p.name for p in passes] == ["dce", "constfold"]
        with pytest.raises(UnknownPassError, match="disambig-stage"):
            build_cleanup_passes(("spd",))


class TestPipelineConfig:
    def test_cache_key_is_the_pass_list(self):
        config = PassPipelineConfig(cleanup=("dce",))
        assert config.cache_key() == {"cleanup": ["dce"]}

    def test_observational_knobs_not_in_cache_key(self):
        loud = PassPipelineConfig(cleanup=("dce",), dump_after=("dce",))
        quiet = PassPipelineConfig(cleanup=("dce",))
        assert loud.cache_key() == quiet.cache_key()

    def test_validated_rejects_unknown_and_misplaced(self):
        with pytest.raises(UnknownPassError):
            PassPipelineConfig(cleanup=("nope",)).validated()
        with pytest.raises(UnknownPassError):
            PassPipelineConfig(cleanup=("lower",)).validated()
        with pytest.raises(UnknownPassError):
            PassPipelineConfig(dump_after=("nope",)).validated()
        config = PassPipelineConfig(cleanup=DEFAULT_CLEANUP,
                                    dump_after=("spd",))
        assert config.validated() is config


class TestManagerRun:
    def test_passes_run_in_order(self):
        log = []
        manager = PassManager([_Recorder("a", log), _Recorder("b", log),
                               _Recorder("c", log)])
        manager.run(Program())
        assert log == ["a", "b", "c"]

    def test_program_threads_through(self):
        replacement = Program()

        class Swap(Pass):
            name = "swap"

            def run(self, program, ctx):
                return PassResult(replacement, changed=False)

        seen = []
        out = PassManager([Swap(), _Recorder("probe", [],
                                             mutate=seen.append)]).run(
            Program())
        assert out is replacement
        assert seen == [replacement]

    def test_depgraph_invalidation_keeps_only_the_pass_graphs(
            self, raw_tree_program):
        """A changing pass leaves only the graphs it built; an unchanged
        pass leaves every graph alone."""
        old_graph, own_graph = object(), object()

        class Builder(_Recorder):
            def run(self, program_, ctx_):
                ctx_.graphs[("main", "t1")] = own_graph
                return super().run(program_, ctx_)

        ctx = PassContext(graphs={("main", "t0"): old_graph})

        def run(*passes):
            PassManager(list(passes)).run(raw_tree_program, ctx)

        run(_Recorder("same", [], changed=False))
        assert ctx.graphs == {("main", "t0"): old_graph}
        run(Builder("build", [], changed=True))
        assert ctx.graphs == {("main", "t1"): own_graph}
        run(_Recorder("drop", [], changed=True))
        assert ctx.graphs == {}

    def test_reports_have_op_deltas(self, raw_tree_program):
        def drop_one(program):
            tree = program.functions["main"].trees["t0"]
            tree.ops = [op for op in tree.ops
                        if op.dest is None or "junk" not in op.dest.name]

        manager = PassManager([_Recorder("noop", []),
                               _Recorder("shrink", [], changed=True,
                                         mutate=drop_one)])
        program = raw_tree_program.copy()
        tree = program.functions["main"].trees["t0"]
        from repro.ir import Register
        junk = Register("junk0.main", "int")
        tree.ops.insert(0, tree.ops[0].with_dest(junk).with_id(
            tree.fresh_op_id()))
        manager.run(program)
        noop, shrink = manager.reports
        assert noop["delta"] == 0 and noop["changed"] is False
        assert shrink["delta"] == -1 and shrink["changed"] is True
        assert shrink["ops_before"] == noop["ops_after"]

    def test_validation_catches_broken_pass(self, raw_tree_program):
        def corrupt(program):
            tree = program.functions["main"].trees["t0"]
            del tree.ops[0]  # drops a def its reader still needs

        manager = PassManager([_Recorder("bad", [], changed=True,
                                         mutate=corrupt)])
        with pytest.raises(IRValidationError):
            manager.run(raw_tree_program.copy())


class TestDumpAfter:
    def test_named_pass_dumped_via_sink(self, raw_tree_program):
        dumps = []
        manager = PassManager(
            [_Recorder("a", []), _Recorder("b", [])],
            dump_after=("b",),
            dump_sink=lambda name, text: dumps.append((name, text)))
        manager.run(raw_tree_program.copy())
        assert [name for name, _ in dumps] == ["b"]
        assert "tree t0" in dumps[0][1]

    def test_no_dump_by_default(self, raw_tree_program, capsys):
        PassManager([_Recorder("a", [])]).run(raw_tree_program.copy())
        assert capsys.readouterr().err == ""
