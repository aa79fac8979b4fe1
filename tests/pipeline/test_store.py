"""The two-tier artifact store: round-trips, eviction, defensive reads."""

import pickle

import pytest

from repro import obs
from repro.pipeline.fingerprint import PIPELINE_VERSION
from repro.pipeline.store import ArtifactStore, default_cache_dir

FP = "ab" + "0" * 62


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_empty_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert default_cache_dir() is None
        assert ArtifactStore().root is None

    def test_unset_falls_back_to_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "repro-spd"


class TestMemoryTier:
    def test_round_trip(self):
        store = ArtifactStore(root=None)
        store.put("compiled", FP, {"payload": 1})
        assert store.get("compiled", FP) == {"payload": 1}

    def test_miss(self):
        assert ArtifactStore(root=None).get("compiled", FP) is None

    def test_stages_are_namespaced(self):
        store = ArtifactStore(root=None)
        store.put("compiled", FP, "a")
        assert store.get("view", FP) is None

    def test_lru_evicts_oldest(self):
        store = ArtifactStore(root=None, max_memory_entries=2)
        store.put("s", "f1", 1)
        store.put("s", "f2", 2)
        store.get("s", "f1")           # refresh f1; f2 is now oldest
        store.put("s", "f3", 3)
        assert len(store) == 2
        assert store.get("s", "f2") is None
        assert store.get("s", "f1") == 1


class TestDiskTier:
    def test_round_trip_fresh_store(self, tmp_path):
        ArtifactStore(tmp_path).put("view", FP, {"cycles": 42})
        # a brand-new store (cold memory tier) must read it back from disk
        assert ArtifactStore(tmp_path).get("view", FP) == {"cycles": 42}

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ArtifactStore(tmp_path).put("view", FP, "x")
        store = ArtifactStore(tmp_path)
        store.get("view", FP)
        assert len(store) == 1

    def test_corrupt_entry_is_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("view", FP, "good")
        path = store._path("view", FP)
        path.write_bytes(b"\x80garbage that is not a pickle")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("view", FP) is None
        assert not path.exists()
        # and a rebuild repopulates the same slot
        fresh.put("view", FP, "rebuilt")
        assert ArtifactStore(tmp_path).get("view", FP) == "rebuilt"

    def test_stale_version_is_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store._path("view", FP)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as handle:
            pickle.dump({"version": PIPELINE_VERSION - 1, "artifact": "old"},
                        handle)
        assert store.get("view", FP) is None
        assert not path.exists()

    def test_version_6_entry_is_a_miss(self, tmp_path):
        # version 6 pickled decision trees as objects; from version 7
        # they are packed, so an older entry must be rebuilt
        assert PIPELINE_VERSION >= 7
        store = ArtifactStore(tmp_path)
        path = store._path("view", FP)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as handle:
            pickle.dump({"version": 6, "artifact": "v6"}, handle)
        assert store.get("view", FP) is None
        assert not path.exists()

    def test_unexpected_layout_is_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store._path("view", FP)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert store.get("view", FP) is None
        assert not path.exists()

    def test_unwritable_root_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        store = ArtifactStore(blocker / "cache")  # mkdir will fail
        store.put("view", FP, "x")
        assert store.get("view", FP) == "x"

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store._path("view", FP) == \
            tmp_path / "view" / FP[:2] / f"{FP}.pkl"


class TestCounters:
    @pytest.fixture
    def tracer(self):
        with obs.tracing() as tracer:
            yield tracer

    def test_miss_then_hit_counters(self, tracer):
        store = ArtifactStore(root=None)
        store.get("compiled", FP)
        store.put("compiled", FP, "x")
        store.get("compiled", FP)
        counters = tracer.metrics.counters
        assert counters["pipeline.cache_misses"] == 1
        assert counters["pipeline.compiled.cache_misses"] == 1
        assert counters["pipeline.cache_hits.mem"] == 1
        assert counters["pipeline.compiled.cache_hits"] == 1

    def test_disk_hit_counter(self, tracer, tmp_path):
        ArtifactStore(tmp_path).put("view", FP, "x")
        ArtifactStore(tmp_path).get("view", FP)
        assert tracer.metrics.counters["pipeline.cache_hits.disk"] == 1

    def test_eviction_counter(self, tracer, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store._path("view", FP)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"junk")
        store.get("view", FP)
        assert tracer.metrics.counters["pipeline.cache_evicted"] == 1
