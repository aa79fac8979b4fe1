"""Validate ``perf/history.jsonl`` against its JSON schema.

Every line of the committed trajectory file must be a
``repro.perf_history/1`` record (``tests/schemas/perf_history.schema.json``);
the same schema structurally pins what :func:`repro.perf.history.make_record`
will append next.
"""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

HERE = Path(__file__).parent
REPO = HERE.parent.parent
SCHEMA = json.loads((HERE / "perf_history.schema.json").read_text())
HISTORY = REPO / "perf" / "history.jsonl"


def _records():
    return [json.loads(line)
            for line in HISTORY.read_text().splitlines() if line.strip()]


def test_schema_itself_is_well_formed():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_committed_history_lines_validate():
    records = _records()
    assert records, "perf/history.jsonl must hold at least one record"
    validator = jsonschema.Draft7Validator(SCHEMA)
    for index, record in enumerate(records):
        validator.validate(record), index


def test_fresh_record_validates():
    """What make_record produces now must satisfy the schema too."""
    from repro.machine.description import machine
    from repro.perf.history import make_record

    record = make_record(
        machine(5, 6),
        {"perm": {"wall_ms": {"compile_profile": 1.0, "disambiguate": 2.0,
                              "timing": 3.0, "total": 6.0,
                              "warm_total": 0.5},
                  "counters": {"sim.steps": 100},
                  "stage_spans": {"timing": {"count": 4, "mean": 0.7,
                                             "p50": 0.6, "p95": 1.0,
                                             "p99": 1.1}}}},
        sha="0" * 40, timestamp="2026-08-08T00:00:00Z")
    jsonschema.Draft7Validator(SCHEMA).validate(record)


def test_schema_rejects_mutations():
    record = _records()[-1]
    validator = jsonschema.Draft7Validator(SCHEMA)

    def invalid(mutate):
        payload = json.loads(json.dumps(record))
        mutate(payload)
        return not validator.is_valid(payload)

    name = next(iter(record["benchmarks"]))
    assert invalid(lambda p: p.update(schema="repro.perf_history/0"))
    assert invalid(lambda p: p.pop("git_sha"))
    assert invalid(lambda p: p.update(timestamp="yesterday"))
    assert invalid(lambda p: p["machine"].pop("num_fus"))
    assert invalid(lambda p: p["benchmarks"][name]["wall_ms"].pop("total"))
    assert invalid(
        lambda p: p["benchmarks"][name]["wall_ms"].update(total=-1))
    assert invalid(lambda p: p["benchmarks"][name].update(surprise=1))
