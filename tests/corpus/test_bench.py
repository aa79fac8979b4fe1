"""Corpus bench engine tests: aggregates, determinism, hw timing."""

import json

import pytest

from repro.corpus import (BENCH_CORPUS_SCHEMA, history_benchmarks,
                          run_corpus_bench)
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore

MACH = machine(5, 6)


@pytest.fixture(scope="module")
def smoke_payload(tiny_manifest, tmp_path_factory):
    # a private cold store so the cache counters asserted below do not
    # depend on what other test modules already computed
    store = ArtifactStore(tmp_path_factory.mktemp("corpus-bench-cache"))
    return run_corpus_bench(Pipeline(store=store), tiny_manifest, MACH,
                            stratum="smoke", jobs=1)


def test_payload_shape(tiny_manifest, smoke_payload):
    payload = smoke_payload
    assert payload["schema"] == BENCH_CORPUS_SCHEMA
    assert payload["manifest"]["entries"] == len(tiny_manifest["entries"])
    selection = payload["selection"]
    smoke = [e for e in tiny_manifest["entries"] if e["smoke"]]
    assert selection["programs"] == len(smoke)
    assert selection["jobs_submitted"] == 4 * len(smoke)
    assert selection["hw_sampled"] == len(smoke)
    totals = payload["totals"]
    assert totals["programs"] == selection["programs"]
    assert (sum(s["programs"] for s in payload["strata"].values())
            == totals["programs"])
    assert totals["cycles"]["naive"] > 0
    assert totals["cycles"]["spec"] > 0
    assert totals["geomean_speedup_spec_over_naive"] > 0
    assert totals["code_growth_mean"] >= 1.0
    rate = totals["spd"]["application_rate"]
    assert 0.0 <= rate <= 1.0
    assert totals["spd"]["programs_applied"] <= totals["programs"]


def test_hw_sampling_adds_hw_aggregates(smoke_payload):
    # every program is timed on the hardware simulator too
    payload = smoke_payload
    assert payload["selection"]["hw_sampled"] == payload["totals"]["programs"]
    totals_hw = payload["totals"]["hw"]
    assert totals_hw["programs"] == payload["selection"]["hw_sampled"]
    for bucket in list(payload["strata"].values()) + [payload["totals"]]:
        assert bucket["hw"]["programs"] == bucket["programs"]
        assert bucket["hw"]["cycles_spec"] > 0
    assert (sum(s["hw"]["programs"] for s in payload["strata"].values())
            == totals_hw["programs"])
    assert (sum(s["hw"]["cycles_spec"] for s in payload["strata"].values())
            == totals_hw["cycles_spec"])


def test_lab_telemetry_present_by_default(smoke_payload):
    lab = smoke_payload["lab"]
    assert lab is not None
    assert lab["elapsed_s"] >= 0
    assert set(lab["cache"]) == {"hits_mem", "hits_disk", "misses",
                                 "shard_evictions"}
    # a fresh hermetic cache: every stage was computed at least once
    assert lab["cache"]["misses"] > 0
    assert "pipeline.timing" in lab["wall_ms"]
    assert lab["wall_ms"]["pipeline.timing"]["count"] >= \
        smoke_payload["selection"]["programs"]


def test_stable_strips_lab_and_blocks_history(tiny_manifest):
    payload = run_corpus_bench(Pipeline(), tiny_manifest, MACH,
                               stratum="smoke", jobs=1, stable=True)
    assert payload["lab"] is None
    with pytest.raises(ValueError, match="stable"):
        history_benchmarks(payload)


def test_stable_payload_is_rerun_identical(tiny_manifest, smoke_payload):
    stable = run_corpus_bench(Pipeline(), tiny_manifest, MACH,
                              stratum="smoke", jobs=1, stable=True)
    expected = dict(smoke_payload, lab=None)
    assert (json.dumps(stable, sort_keys=True)
            == json.dumps(expected, sort_keys=True))


@pytest.mark.slow
def test_jobs_parallel_matches_serial_byte_identical(tiny_manifest,
                                                     tmp_path):
    """The acceptance-gate determinism contract: ``--jobs 4`` and
    ``--jobs 1`` produce byte-identical stable JSON, each from its own
    cold cache."""
    runs = {}
    for jobs in (1, 4):
        store = ArtifactStore(tmp_path / f"cache{jobs}")
        payload = run_corpus_bench(Pipeline(store=store), tiny_manifest,
                                   MACH, stratum="smoke", jobs=jobs,
                                   stable=True)
        runs[jobs] = json.dumps(payload, indent=2, sort_keys=True)
    assert runs[1] == runs[4]


def test_history_benchmarks_record_shape(smoke_payload):
    benchmarks = history_benchmarks(smoke_payload)
    assert list(benchmarks) == ["corpus:smoke"]
    entry = benchmarks["corpus:smoke"]
    assert set(entry["wall_ms"]) == {"compile_profile", "disambiguate",
                                     "timing", "total", "warm_total"}
    assert entry["wall_ms"]["total"] > 0
    assert (entry["counters"]["corpus.programs"]
            == smoke_payload["selection"]["programs"])


def test_history_record_is_schema_valid(smoke_payload):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    from repro.perf.history import make_record
    schema = json.loads(
        (Path(__file__).parent.parent / "schemas"
         / "perf_history.schema.json").read_text())
    record = make_record(MACH, history_benchmarks(smoke_payload))
    jsonschema.Draft7Validator(schema).validate(record)


def test_unknown_stratum_raises(tiny_manifest):
    with pytest.raises(ValueError, match="matches no corpus entry"):
        run_corpus_bench(Pipeline(), tiny_manifest, MACH,
                         stratum="nope", jobs=1)
