"""Fingerprint sensitivity: every cache-relevant input must change the key.

The store serves whatever the fingerprint addresses, so correctness of
the whole cache reduces to: two configurations that can produce
different artifacts must never share a fingerprint.
"""

from dataclasses import replace

from repro.disambig.pipeline import Disambiguator
from repro.disambig.spd_heuristic import SpDConfig
from repro.frontend.grafting import GraftConfig
from repro.machine.description import machine
from repro.passes import DEFAULT_CLEANUP, PassPipelineConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.fingerprint import PIPELINE_VERSION, fingerprint
from repro.pipeline.store import ArtifactStore

SOURCE = """
float a[8];
int main() {
    a[1] = 2.0;
    print(a[1]);
    return 0;
}
"""


def memory_pipeline(**kwargs) -> Pipeline:
    return Pipeline(store=ArtifactStore(root=None), **kwargs)


class TestFingerprintFunction:
    def test_deterministic(self):
        assert fingerprint({"a": 1}) == fingerprint({"a": 1})

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_payload_sensitivity(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_version_salt_present(self):
        # bumping PIPELINE_VERSION must invalidate every existing key
        assert fingerprint({}) != fingerprint({"pipeline_version":
                                               PIPELINE_VERSION + 1})


class TestCompileFingerprint:
    def test_source_change(self):
        pipe = memory_pipeline()
        assert (pipe.compile_fingerprint(SOURCE)
                != pipe.compile_fingerprint(SOURCE + "\n"))

    def test_graft_config_change(self):
        plain = memory_pipeline()
        grafted = memory_pipeline(graft=GraftConfig())
        tweaked = memory_pipeline(graft=GraftConfig(max_passes=1))
        fps = {p.compile_fingerprint(SOURCE) for p in (plain, grafted, tweaked)}
        assert len(fps) == 3

    def test_stable_across_instances(self):
        assert (memory_pipeline().compile_fingerprint(SOURCE)
                == memory_pipeline().compile_fingerprint(SOURCE))

    def test_guard_words_change(self):
        # guard_words alters the lowered IR, so it must key compiled
        # artifacts (and, chained, every downstream stage)
        plain = memory_pipeline()
        padded = memory_pipeline(guard_words=2)
        assert (plain.compile_fingerprint(SOURCE)
                != padded.compile_fingerprint(SOURCE))
        assert (plain.view_fingerprint(SOURCE, Disambiguator.STATIC)
                != padded.view_fingerprint(SOURCE, Disambiguator.STATIC))


class TestViewFingerprint:
    def test_kind_change(self):
        pipe = memory_pipeline()
        fps = {pipe.view_fingerprint(SOURCE, kind) for kind in Disambiguator}
        assert len(fps) == len(Disambiguator)

    def test_spd_config_changes_spec_view(self):
        base = memory_pipeline()
        tweaked = memory_pipeline(
            spd_config=replace(SpDConfig(), min_gain=2.5))
        assert (base.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != tweaked.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_spd_config_irrelevant_to_static_view(self):
        # only SPEC's Gain() heuristic reads the knobs; STATIC/NAIVE/
        # PERFECT views are shared across SpD configurations
        base = memory_pipeline()
        tweaked = memory_pipeline(
            spd_config=replace(SpDConfig(), min_gain=2.5))
        assert (base.view_fingerprint(SOURCE, Disambiguator.STATIC)
                == tweaked.view_fingerprint(SOURCE, Disambiguator.STATIC))

    def test_latency_table_changes_spec_view(self):
        pipe = memory_pipeline()
        assert (pipe.view_fingerprint(SOURCE, Disambiguator.SPEC, 2)
                != pipe.view_fingerprint(SOURCE, Disambiguator.SPEC, 6))

    def test_latency_irrelevant_to_static_view(self):
        pipe = memory_pipeline()
        assert (pipe.view_fingerprint(SOURCE, Disambiguator.STATIC, 2)
                == pipe.view_fingerprint(SOURCE, Disambiguator.STATIC, 6))

    def test_source_change_propagates(self):
        pipe = memory_pipeline()
        assert (pipe.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != pipe.view_fingerprint(SOURCE + "\n", Disambiguator.SPEC))


class TestPassPipelineFingerprint:
    def test_cleanup_list_changes_every_view_kind(self):
        plain = memory_pipeline()
        cleaned = memory_pipeline(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        for kind in Disambiguator:
            assert (plain.view_fingerprint(SOURCE, kind)
                    != cleaned.view_fingerprint(SOURCE, kind)), kind

    def test_cleanup_order_matters(self):
        forward = memory_pipeline(
            passes=PassPipelineConfig(cleanup=("constfold", "dce")))
        reverse = memory_pipeline(
            passes=PassPipelineConfig(cleanup=("dce", "constfold")))
        assert (forward.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != reverse.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_observational_knobs_do_not_change_fingerprint(self):
        quiet = memory_pipeline(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        loud = memory_pipeline(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP,
                                      dump_after=("dce",)))
        assert (quiet.view_fingerprint(SOURCE, Disambiguator.SPEC)
                == loud.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_compile_fingerprint_ignores_cleanup(self):
        # cleanup runs inside disambiguation; compiled artifacts are
        # shared across pass configurations
        plain = memory_pipeline()
        cleaned = memory_pipeline(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        assert (plain.compile_fingerprint(SOURCE)
                == cleaned.compile_fingerprint(SOURCE))

    def test_dump_after_bypasses_view_cache(self, capsys):
        store = ArtifactStore(root=None)
        passes = PassPipelineConfig(cleanup=DEFAULT_CLEANUP,
                                    dump_after=("dce",))
        pipe = Pipeline(store=store, passes=passes)
        dumped = pipe.view("t", SOURCE, Disambiguator.SPEC)
        key = pipe.view_fingerprint(SOURCE, Disambiguator.SPEC)
        assert store.get("view", key) is None
        # the same pipeline reuses its dumped view (no second dump) ...
        assert pipe.view("t", SOURCE, Disambiguator.SPEC) is dumped
        assert capsys.readouterr().err.count("; IR after pass dce") == 1
        # ... while another pipeline over the same store dumps again
        again = Pipeline(store=store, passes=passes).view(
            "t", SOURCE, Disambiguator.SPEC)
        assert again is not dumped
        assert capsys.readouterr().err.count("; IR after pass dce") == 1


class TestTimingFingerprint:
    def test_machine_change(self):
        pipe = memory_pipeline()
        assert (pipe.timing_fingerprint(SOURCE, Disambiguator.SPEC,
                                        machine(5, 2))
                != pipe.timing_fingerprint(SOURCE, Disambiguator.SPEC,
                                           machine(7, 2)))

    def test_memory_latency_change(self):
        pipe = memory_pipeline()
        assert (pipe.timing_fingerprint(SOURCE, Disambiguator.NAIVE,
                                        machine(5, 2))
                != pipe.timing_fingerprint(SOURCE, Disambiguator.NAIVE,
                                           machine(5, 6)))


class TestEngineFingerprint:
    """Profile/view artifacts are keyed on the execution engine: a
    miscompiling engine must never poison reference-engine entries."""

    def test_profile_fingerprint_engine_sensitive(self):
        jit = memory_pipeline(engine="jit")
        interp = memory_pipeline(engine="interp")
        assert (jit.profile_fingerprint(SOURCE)
                != interp.profile_fingerprint(SOURCE))

    def test_view_fingerprint_engine_sensitive(self):
        jit = memory_pipeline(engine="jit")
        interp = memory_pipeline(engine="interp")
        assert (jit.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != interp.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_compile_fingerprint_engine_insensitive(self):
        # compilation never executes the program; compiled artifacts are
        # shared across engines
        assert (memory_pipeline(engine="jit").compile_fingerprint(SOURCE)
                == memory_pipeline(engine="interp")
                .compile_fingerprint(SOURCE))

    def test_unknown_engine_rejected_at_construction(self):
        import pytest
        with pytest.raises(ValueError, match="unknown execution engine"):
            memory_pipeline(engine="nonesuch")

    def test_engines_share_no_artifacts_in_one_store(self):
        store = ArtifactStore(root=None)
        jit = Pipeline(store=store, engine="jit")
        interp = Pipeline(store=store, engine="interp")
        jit_profile = jit.profile("t", SOURCE)
        interp_profile = interp.profile("t", SOURCE)
        # verified-equivalent engines: same observable profile...
        assert (jit_profile.profile.tree_counts
                == interp_profile.profile.tree_counts)
        # ...via distinct cache rows
        assert (store.get("profile", jit.profile_fingerprint(SOURCE))
                is not None)
        assert (jit.profile_fingerprint(SOURCE)
                != interp.profile_fingerprint(SOURCE))
