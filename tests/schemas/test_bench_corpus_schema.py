"""Validate the corpus bench payloads — the committed smoke
``BENCH_corpus.json``, the committed full-corpus
``benchmarks/corpus/BENCH_corpus_full.json`` and freshly produced ones —
against their JSON schema.

The schema (``tests/schemas/bench_corpus.schema.json``) is the contract
for the ``repro.bench_corpus/1`` payload of ``repro bench --corpus``;
the CI corpus-smoke job validates its artifact against the same file.
"""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

HERE = Path(__file__).parent
REPO = HERE.parent.parent
SCHEMA = json.loads((HERE / "bench_corpus.schema.json").read_text())
#: the committed payloads: the smoke slice and the whole corpus
COMMITTED = {name: json.loads((REPO / path).read_text())
             for name, path in (
                 ("smoke", "BENCH_corpus.json"),
                 ("full", "benchmarks/corpus/BENCH_corpus_full.json"))}
PAYLOAD = COMMITTED["smoke"]
committed = pytest.mark.parametrize("name", sorted(COMMITTED))


def test_schema_itself_is_well_formed():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


@committed
def test_committed_payload_validates(name):
    jsonschema.Draft7Validator(SCHEMA).validate(COMMITTED[name])


def test_fresh_payloads_validate(tmp_path):
    """Both determinism tiers validate: with lab telemetry and --stable."""
    from repro.corpus import BuildSpec, build_manifest, run_corpus_bench
    from repro.machine.description import machine
    from repro.pipeline.core import Pipeline

    manifest = build_manifest(
        BuildSpec(target_size=6, per_config=2, smoke_size=4,
                  configs=("s-lo", "s-hi")))
    validator = jsonschema.Draft7Validator(SCHEMA)
    for stable in (False, True):
        payload = run_corpus_bench(Pipeline(), manifest, machine(5, 6),
                                   stratum="smoke", jobs=1, stable=stable)
        validator.validate(payload)
    assert payload["lab"] is None  # the stable run came last


def test_schema_rejects_mutations():
    """The schema is load-bearing: canonical breakages must fail."""
    validator = jsonschema.Draft7Validator(SCHEMA)

    def invalid(mutate):
        payload = json.loads(json.dumps(PAYLOAD))
        mutate(payload)
        return not validator.is_valid(payload)

    stratum = next(iter(PAYLOAD["strata"]))
    assert invalid(lambda p: p.update(schema="repro.bench_corpus/0"))
    assert invalid(lambda p: p.pop("totals"))
    assert invalid(lambda p: p.pop("lab"))
    assert invalid(lambda p: p["manifest"].update(entries=0))
    assert invalid(lambda p: p["selection"].update(programs=0))
    assert invalid(lambda p: p["machine"].update(num_fus=0))
    assert invalid(lambda p: p.update(strata={}))
    assert invalid(lambda p: p["strata"][stratum]["cycles"].pop("spec"))
    assert invalid(lambda p: p["strata"][stratum].pop("hw"))
    assert invalid(lambda p: p["totals"].pop("hw"))
    assert invalid(
        lambda p: p["strata"][stratum]["spd"].update(application_rate=1.5))
    assert invalid(
        lambda p: p["strata"][stratum]["spd"]["applications"].update(raw=-1))
    assert invalid(lambda p: p["totals"].update(surprise=1))
    assert invalid(
        lambda p: p["totals"].update(geomean_speedup_spec_over_naive=0))
    if PAYLOAD["lab"] is not None:
        assert invalid(lambda p: p["lab"]["cache"].pop("shard_evictions"))
        assert invalid(lambda p: p["lab"].update(jobs=0))


@committed
def test_committed_payload_is_internally_consistent(name):
    """Cross-field invariants the schema language cannot express."""
    payload = COMMITTED[name]
    totals = payload["totals"]
    strata = payload["strata"].values()
    assert totals["programs"] == sum(s["programs"] for s in strata)
    assert totals["cycles"]["naive"] == sum(
        s["cycles"]["naive"] for s in strata)
    assert totals["cycles"]["spec"] == sum(
        s["cycles"]["spec"] for s in strata)
    assert totals["spd"]["programs_applied"] == sum(
        s["spd"]["programs_applied"] for s in strata)
    assert totals["hw"]["cycles_spec"] == sum(
        s["hw"]["cycles_spec"] for s in strata)
    for bucket in list(strata) + [totals]:
        assert bucket["hw"]["programs"] == bucket["programs"]
        assert bucket["spd"]["programs_applied"] <= bucket["programs"]
        assert bucket["spd"]["application_rate"] == pytest.approx(
            bucket["spd"]["programs_applied"] / bucket["programs"],
            abs=1e-5)
    assert payload["selection"]["programs"] == totals["programs"]
    assert payload["selection"]["hw_sampled"] == totals["programs"]
