"""Validate the checked-in ``BENCH_spd.json`` against its JSON schema.

The schema (``tests/schemas/bench_spd.schema.json``) is the contract for
the ``repro.bench_spd/3`` payload that ``benchmarks/bench_spd.py`` emits
and downstream dashboards consume; this test pins both the committed
artifact and what the script writes when run on one benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

HERE = Path(__file__).parent
REPO = HERE.parent.parent
SCHEMA = json.loads((HERE / "bench_spd.schema.json").read_text())
PAYLOAD = json.loads((REPO / "BENCH_spd.json").read_text())


def test_schema_itself_is_well_formed():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_committed_payload_validates():
    jsonschema.Draft7Validator(SCHEMA).validate(PAYLOAD)


def test_schema_rejects_mutations():
    """The schema is load-bearing: canonical breakages must fail."""
    validator = jsonschema.Draft7Validator(SCHEMA)

    def invalid(mutate):
        payload = json.loads(json.dumps(PAYLOAD))
        mutate(payload)
        return not validator.is_valid(payload)

    name = next(iter(PAYLOAD["benchmarks"]))
    assert invalid(lambda p: p.update(schema="repro.bench_spd/2"))
    assert invalid(lambda p: p.pop("machine"))
    assert invalid(lambda p: p.update(num_fus=0))
    assert invalid(lambda p: p["benchmarks"][name].pop("cycles"))
    assert invalid(lambda p: p["benchmarks"][name]["cycles"].pop("spec"))
    assert invalid(
        lambda p: p["benchmarks"][name]["cycles"].update(naive=-1))
    assert invalid(
        lambda p: p["benchmarks"][name]["spd_applications"].update(raw=-2))
    assert invalid(lambda p: p["benchmarks"][name].update(surprise=1))


def test_payload_is_internally_consistent():
    """Cross-field invariants the schema language cannot express."""
    for name, bench in PAYLOAD["benchmarks"].items():
        cycles = bench["cycles"]
        # perfect disambiguation can never lose to the naive view
        assert cycles["perfect"] <= cycles["naive"], name
        # recorded speedups match the cycle counts they summarise
        for view, speedup in bench["speedup_over_naive"].items():
            expected = cycles["naive"] / cycles[view] - 1.0
            assert speedup == pytest.approx(expected, abs=1e-4), (
                name, view)
        # code growth matches the spec view's op count
        growth = bench["spec_code_size"] / bench["ops"] - 1.0
        assert bench["code_growth"] == pytest.approx(growth, abs=1e-4), name


@pytest.mark.slow
def test_bench_spd_script_outputs_validate(tmp_path, monkeypatch, capsys):
    """``benchmarks/bench_spd.py`` end to end on one benchmark: the
    snapshot and the history line both satisfy their schemas."""
    monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
    spec = importlib.util.spec_from_file_location(
        "bench_spd", REPO / "benchmarks" / "bench_spd.py")
    bench_spd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_spd)
    out, history = tmp_path / "BENCH_spd.json", tmp_path / "history.jsonl"
    assert bench_spd.main(["--names", "perm", "--out", str(out),
                           "--history", str(history)]) == 0
    snapshot = json.loads(out.read_text())
    jsonschema.Draft7Validator(SCHEMA).validate(snapshot)
    assert list(snapshot["benchmarks"]) == ["perm"]
    history_schema = json.loads(
        (HERE / "perf_history.schema.json").read_text())
    lines = history.read_text().splitlines()
    assert len(lines) == 1
    jsonschema.Draft7Validator(history_schema).validate(json.loads(lines[0]))
    assert bench_spd.main(["--names", "nonesuch", "--out", str(out),
                           "--no-history"]) == 2
    assert "unknown benchmarks: nonesuch" in capsys.readouterr().err
