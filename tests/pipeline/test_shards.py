"""ArtifactStore's disk shards: LRU byte budget and per-shard locks."""

import os
import threading

import pytest

from repro import obs
from repro.pipeline.store import BUDGET_CHECK_INTERVAL, ArtifactStore


def fp(index: int) -> str:
    """Distinct 64-hex fingerprints spread over distinct shards."""
    return f"{index:02x}" + "0" * 62


def entry_size(store, stage, fingerprint) -> int:
    return store._path(stage, fingerprint).stat().st_size


def set_mtime(store, stage, fingerprint, when: float) -> None:
    os.utime(store._path(stage, fingerprint), (when, when))


class TestBudgetEviction:
    def test_evicts_oldest_until_under_budget(self, tmp_path):
        store = ArtifactStore(tmp_path, size_budget_bytes=0)
        for index in range(4):
            store.put("view", fp(index), f"value-{index}")
            set_mtime(store, "view", fp(index), 1_000_000 + index)
        evicted = store.enforce_budget()
        assert evicted == 4
        assert store.disk_usage_bytes() == 0

    def test_hot_fingerprints_survive(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for index in range(4):
            store.put("view", fp(index), f"value-{index}")
            set_mtime(store, "view", fp(index), 1_000_000 + index)
        one = entry_size(store, "view", fp(0))
        # a *read* refreshes the entry's mtime, making it hot: budget
        # for two entries must keep the read one plus the newest
        fresh = ArtifactStore(tmp_path, size_budget_bytes=2 * one)
        assert fresh.get("view", fp(0)) == "value-0"
        fresh.enforce_budget()
        kept = {fingerprint for fingerprint in map(fp, range(4))
                if fresh._path("view", fingerprint).exists()}
        assert kept == {fp(0), fp(3)}

    def test_unbudgeted_reads_leave_mtimes(self, tmp_path):
        ArtifactStore(tmp_path).put("view", fp(1), "x")
        set_mtime(ArtifactStore(tmp_path), "view", fp(1), 1_000_000)
        store = ArtifactStore(tmp_path)
        assert store.get("view", fp(1)) == "x"
        assert store._path("view", fp(1)).stat().st_mtime == 1_000_000

    def test_evicted_entry_rebuilds(self, tmp_path):
        store = ArtifactStore(tmp_path, size_budget_bytes=0,
                              max_memory_entries=1)
        store.put("view", fp(1), "first")
        store.enforce_budget()
        store.put("view", fp(2), "pushes-first-out-of-memory")
        assert ArtifactStore(tmp_path).get("view", fp(1)) is None
        store.put("view", fp(1), "rebuilt")
        assert ArtifactStore(tmp_path).get("view", fp(1)) == "rebuilt"

    def test_opportunistic_check_every_interval(self, tmp_path):
        store = ArtifactStore(tmp_path, size_budget_bytes=0)
        for index in range(BUDGET_CHECK_INTERVAL - 1):
            store.put("view", fp(index), "a")
        assert store.disk_usage_bytes() > 0   # not yet checked
        store.put("view", fp(255), "b")        # the interval's put sweeps
        assert store.disk_usage_bytes() == 0

    def test_counters_and_gauge(self, tmp_path):
        with obs.tracing() as tracer:
            store = ArtifactStore(tmp_path, size_budget_bytes=0)
            store.put("view", fp(1), "x")
            store.enforce_budget()
        assert tracer.metrics.counters["pipeline.shard.evictions"] == 1
        assert tracer.metrics.gauges["pipeline.shard.bytes"] == 0

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, size_budget_bytes=-1)

    def test_memory_only_store_has_nothing_to_evict(self):
        store = ArtifactStore(None, size_budget_bytes=0)
        store.put("view", fp(1), "x")
        assert store.enforce_budget() == 0
        assert store.get("view", fp(1)) == "x"


class TestShardStats:
    def test_stats_shape(self, tmp_path):
        store = ArtifactStore(tmp_path, size_budget_bytes=1 << 20)
        store.put("view", fp(1), "a")
        store.put("view", fp(2), "b")
        store.put("timing", fp(1), "c")
        stats = store.shard_stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == store.disk_usage_bytes() > 0
        assert stats["budget_bytes"] == 1 << 20
        assert stats["per_stage"] == {"timing": 1, "view": 2}


class TestShardLocks:
    def test_one_lock_per_shard(self, tmp_path):
        store = ArtifactStore(tmp_path)
        lock_a = store._shard_lock("view", fp(1))
        lock_b = store._shard_lock("view", fp(1) + "x")  # same prefix
        lock_c = store._shard_lock("view", fp(2))
        lock_d = store._shard_lock("timing", fp(1))
        assert lock_a is lock_b
        assert lock_a is not lock_c
        assert lock_a is not lock_d

    def test_threaded_contention_same_shard(self, tmp_path):
        """Many threads hammering one shard: every write lands intact
        and no reader ever observes a torn or half-written value."""
        store = ArtifactStore(tmp_path, max_memory_entries=1)
        # eight fingerprints sharing one shard directory (same prefix)
        fingerprints = [fp(1)[:2] + f"{i:062x}" for i in range(8)]
        errors = []
        seen = []

        def worker(thread_index):
            try:
                for round_index in range(25):
                    fingerprint = fingerprints[
                        (thread_index + round_index) % len(fingerprints)]
                    store.put("view", fingerprint,
                              {"fp": fingerprint, "round": round_index})
                    value = store.get("view", fingerprint)
                    if value is not None:
                        assert value["fp"] == fingerprint
                        seen.append(value)
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert seen
        for fingerprint in fingerprints:
            value = ArtifactStore(tmp_path).get("view", fingerprint)
            assert value is not None and value["fp"] == fingerprint

