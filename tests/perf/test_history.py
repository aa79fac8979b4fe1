"""Tests for the perf trajectory store (repro.perf.history)."""

import json

import pytest

from repro.machine.description import INFINITE, machine
from repro.perf.history import (HISTORY_SCHEMA, append_record, git_sha,
                                host_info, load_records, make_record)

MACH = machine(5, 6)

BENCH = {
    "perm": {
        "wall_ms": {"compile_profile": 10.0, "disambiguate": 20.0,
                    "timing": 5.0, "total": 35.0, "warm_total": 1.0},
        "counters": {"sim.steps": 94308},
        "stage_spans": {"timing": {"count": 4, "mean": 1.2, "p50": 1.1,
                                   "p95": 1.4, "p99": 1.5}},
        # measurement fields the trajectory must NOT keep
        "cycles": {"naive": 100}, "ops": 56,
    },
}


class TestMakeRecord:
    def test_keeps_only_trajectory_fields(self):
        record = make_record(MACH, BENCH,
                             sha="f" * 40, timestamp="2026-08-08T00:00:00Z")
        assert record["schema"] == HISTORY_SCHEMA
        entry = record["benchmarks"]["perm"]
        assert set(entry) == {"wall_ms", "counters", "stage_spans"}
        assert entry["wall_ms"]["total"] == 35.0

    def test_identity_fields(self):
        record = make_record(MACH, BENCH,
                             sha="a" * 40, timestamp="2026-08-08T00:00:00Z")
        assert record["git_sha"] == "a" * 40
        assert record["timestamp"] == "2026-08-08T00:00:00Z"
        assert record["machine"] == {"name": "life-5fu-mem6", "num_fus": 5,
                                     "memory_latency": 6}
        assert set(record["host"]) == {"platform", "python", "node"}

    def test_defaults_fill_sha_and_timestamp(self):
        record = make_record(MACH, BENCH)
        assert record["git_sha"]  # real sha or "unknown"
        assert record["timestamp"].endswith("Z")

    def test_infinite_machine_rejected(self):
        with pytest.raises(ValueError, match="finite machine"):
            make_record(INFINITE, BENCH)

    def test_empty_optional_fields_dropped(self):
        record = make_record(MACH, {
            "x": {"wall_ms": {"total": 1.0}, "counters": {},
                  "stage_spans": {}}})
        assert set(record["benchmarks"]["x"]) == {"wall_ms"}


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "perf" / "history.jsonl"
        first = make_record(MACH, BENCH, sha="a" * 40,
                            timestamp="2026-08-07T00:00:00Z")
        second = make_record(MACH, BENCH, sha="b" * 40,
                             timestamp="2026-08-08T00:00:00Z")
        append_record(path, first)
        append_record(path, second)
        records = load_records(path)
        assert [r["git_sha"] for r in records] == ["a" * 40, "b" * 40]

    def test_lines_are_byte_stable_json(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record = make_record(MACH, BENCH, sha="a" * 40,
                             timestamp="2026-08-08T00:00:00Z")
        append_record(path, record)
        line = path.read_text().splitlines()[0]
        assert line == json.dumps(record, sort_keys=True)

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(path, make_record(MACH, BENCH, sha="a" * 40,
                                        timestamp="2026-08-08T00:00:00Z"))
        with open(path, "a") as handle:
            handle.write('{"truncated": \n')
            handle.write("\n")
        append_record(path, make_record(MACH, BENCH, sha="b" * 40,
                                        timestamp="2026-08-08T00:00:01Z"))
        assert len(load_records(path)) == 2

    def test_missing_file(self, tmp_path):
        assert load_records(tmp_path / "absent.jsonl") == []


class TestEnvironment:
    def test_git_sha_in_repo(self):
        sha = git_sha()
        assert sha == "unknown" or (len(sha) == 40
                                    and all(c in "0123456789abcdef"
                                            for c in sha))

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=str(tmp_path)) == "unknown"

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {"platform", "python", "node"}
        assert all(isinstance(v, str) and v for v in info.values())
