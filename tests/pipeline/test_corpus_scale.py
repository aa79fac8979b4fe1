"""Corpus-scale stress test: the ArtifactStore byte budget under pressure.

A 100-program stratum streamed through the bench engine with a byte
budget two orders of magnitude below its artifact footprint must (a)
actually evict — the counters rise — and (b) change *nothing* about
the results: the stable payload is byte-identical to a run against an
unbounded store.  Eviction is allowed to cost recomputation, never
correctness.
"""

import json

import pytest

from repro.corpus import BuildSpec, build_manifest, run_corpus_bench
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore

BUDGET = 128 * 1024


@pytest.mark.slow
def test_lru_eviction_at_corpus_scale_is_result_invariant(tmp_path):
    spec = BuildSpec(target_size=100, per_config=100, smoke_size=10,
                     configs=("s-lo",))
    manifest = build_manifest(spec)
    assert len(manifest["entries"]) == 100
    mach = machine(5, 6)

    # a deliberately starved store: tiny disk budget, tiny memory tier
    # (so evicted artifacts cannot hide in memory and some really are
    # recomputed)
    sharded = ArtifactStore(tmp_path / "sharded", max_memory_entries=16,
                            size_budget_bytes=BUDGET)
    bounded = run_corpus_bench(Pipeline(store=sharded), manifest, mach,
                               jobs=1)
    unbounded = run_corpus_bench(
        Pipeline(store=ArtifactStore(tmp_path / "flat")), manifest, mach,
        jobs=1)

    # the starved store footprint stayed bounded and eviction fired
    assert bounded["lab"]["cache"]["shard_evictions"] > 0
    sharded.enforce_budget()
    assert sharded.disk_usage_bytes() <= BUDGET
    # the unbounded store really was over budget — the pressure is real
    flat_bytes = ArtifactStore(tmp_path / "flat")
    assert flat_bytes.root is not None
    total = sum(f.stat().st_size
                for f in (tmp_path / "flat").rglob("*") if f.is_file())
    assert total > 4 * BUDGET

    # identical results, byte for byte, once the host telemetry is off
    assert (json.dumps(dict(bounded, lab=None), sort_keys=True)
            == json.dumps(dict(unbounded, lab=None), sort_keys=True))

    # the unbounded run never evicts
    assert unbounded["lab"]["cache"]["shard_evictions"] == 0
