"""Tests for the perf regression gate (repro.perf.check).

The ``compare`` predicate and baseline loaders are exercised purely in
memory; the end-to-end gate (measure + compare + exit status) runs one
real benchmark and uses the ``REPRO_PERF_INJECT`` hook to fake a
slowdown, proving the check trips on regression and stays quiet on an
unmodified run.  The history-baseline tests drive ``repro perf check``
against trajectories whose newest record is a corpus run.
"""

import json

import pytest

from repro.cli import main
from repro.machine.description import machine
from repro.perf.check import (DEFAULT_STAGES, CheckResult, StageDelta,
                              compare, load_baseline, run_check)
from repro.perf.history import append_record, make_record
from repro.perf.measure import inject_env_slowdowns

MACH = machine(5, 6)


def _bench(total=100.0, disambiguate=40.0, counters=None):
    return {
        "wall_ms": {"compile_profile": 30.0, "disambiguate": disambiguate,
                    "timing": 20.0, "total": total, "warm_total": 5.0},
        "counters": counters or {"sim.steps": 1000},
    }


class TestComparePredicate:
    def test_no_change_no_regression(self):
        deltas, drift, missing = compare({"b": _bench()}, {"b": _bench()})
        assert all(not delta.regressed for delta in deltas)
        assert drift == [] and missing == []

    def test_regression_needs_relative_and_absolute(self):
        base = {"b": _bench(disambiguate=40.0)}
        # +50% and +20ms: both gates exceeded -> regressed
        deltas, _, _ = compare({"b": _bench(disambiguate=60.0)}, base,
                               threshold=0.30, min_ms=10.0)
        assert [d.stage for d in deltas if d.regressed] == ["disambiguate"]
        # +50% but only +2ms: under the absolute floor -> quiet
        small_base = {"b": _bench(disambiguate=4.0)}
        deltas, _, _ = compare({"b": _bench(disambiguate=6.0)}, small_base,
                               threshold=0.30, min_ms=10.0)
        assert not any(d.regressed for d in deltas)
        # +40ms but only +10%: under the relative gate -> quiet
        big_base = {"b": _bench(disambiguate=400.0)}
        deltas, _, _ = compare({"b": _bench(disambiguate=440.0)}, big_base,
                               threshold=0.30, min_ms=10.0)
        assert not any(d.regressed for d in deltas)

    def test_improvements_never_regress(self):
        deltas, _, _ = compare({"b": _bench(disambiguate=1.0)},
                               {"b": _bench(disambiguate=500.0)})
        assert not any(d.regressed for d in deltas)

    def test_counter_drift_is_report_only(self):
        current = {"b": _bench(counters={"sim.steps": 2000})}
        deltas, drift, _ = compare(current, {"b": _bench()})
        assert not any(d.regressed for d in deltas)
        assert drift == [{"benchmark": "b", "counter": "sim.steps",
                          "baseline": 1000, "current": 2000}]

    def test_missing_benchmark_reported_not_fatal(self):
        deltas, _, missing = compare({"new": _bench()}, {"b": _bench()})
        assert deltas == [] and missing == ["new"]

    def test_unknown_stage_skipped(self):
        deltas, _, _ = compare({"b": _bench()}, {"b": _bench()},
                               stages=("nonexistent", "total"))
        assert [d.stage for d in deltas] == ["total"]

    def test_gated_stages_default(self):
        deltas, _, _ = compare({"b": _bench()}, {"b": _bench()})
        assert {d.stage for d in deltas} == set(DEFAULT_STAGES)


class TestResultShapes:
    def test_ratio_handles_zero_baseline(self):
        assert StageDelta("b", "s", 0.0, 5.0, False).ratio == float("inf")
        assert StageDelta("b", "s", 0.0, 0.0, False).ratio == 1.0

    def test_render_flags_regressions(self):
        result = CheckResult("base.json", 0.3, 10.0, deltas=[
            StageDelta("perm", "timing", 10.0, 50.0, True),
            StageDelta("perm", "total", 100.0, 101.0, False)])
        text = result.render()
        assert "REGRESSED" in text
        assert "1 stage(s) regressed" in text
        assert not result.ok

    def test_to_dict_is_json_ready(self):
        result = CheckResult("base.json", 0.3, 10.0, deltas=[
            StageDelta("perm", "timing", 10.0, 50.0, True)])
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert payload["ok"] is False
        assert payload["regressions"] == 1
        assert payload["deltas"][0]["ratio"] == 5.0


class TestLoadBaseline:
    def test_snapshot_json(self, tmp_path):
        path = tmp_path / "BENCH_spd.json"
        path.write_text(json.dumps({"schema": "repro.bench_spd/3",
                                    "benchmarks": {"b": _bench()}}))
        label, benchmarks = load_baseline(path, MACH, ["b"])
        assert label == "BENCH_spd.json"
        assert "b" in benchmarks

    def test_history_jsonl_latest_wins(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_record(path, make_record(
            MACH, {"b": _bench(total=50.0)}, sha="a" * 40,
            timestamp="2026-08-07T00:00:00Z"))
        append_record(path, make_record(
            MACH, {"b": _bench(total=75.0)}, sha="b" * 40,
            timestamp="2026-08-08T00:00:00Z"))
        label, benchmarks = load_baseline(path, MACH, ["b"])
        assert "bbbbbbbbbbbb" in label
        assert benchmarks["b"]["wall_ms"]["total"] == 75.0

    def test_history_per_benchmark_newest_on_machine(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_record(path, make_record(
            MACH, {"b": _bench(total=50.0), "c": _bench(total=60.0)},
            sha="a" * 40, timestamp="2026-08-07T00:00:00Z"))
        append_record(path, make_record(
            MACH, {"c": _bench(total=65.0)}, sha="b" * 40,
            timestamp="2026-08-08T00:00:00Z"))
        append_record(path, make_record(
            machine(8, 6), {"b": _bench(total=99.0)}, sha="c" * 40,
            timestamp="2026-08-09T00:00:00Z"))
        label, benchmarks = load_baseline(path, MACH, ["b", "c", "d"])
        assert benchmarks["b"]["wall_ms"]["total"] == 50.0
        assert benchmarks["c"]["wall_ms"]["total"] == 65.0
        assert set(benchmarks) == {"b", "c"}
        assert "aaaaaaaaaaaa" in label and "bbbbbbbbbbbb" in label
        assert "cccccccccccc" not in label

    def test_empty_history_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no records"):
            load_baseline(path, MACH, ["b"])

    def test_payload_without_benchmarks_raises(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="benchmarks"):
            load_baseline(path, MACH, ["b"])


class TestInjectHook:
    def test_inject_multiplies_named_stages(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_INJECT", "disambiguate:2.0,timing:3")
        wall = inject_env_slowdowns({"disambiguate": 10.0, "timing": 10.0,
                                     "total": 10.0})
        assert wall == {"disambiguate": 20.0, "timing": 30.0, "total": 10.0}

    def test_unset_is_identity(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
        assert inject_env_slowdowns({"total": 7.0}) == {"total": 7.0}


@pytest.mark.slow
class TestEndToEnd:
    def test_clean_run_passes_and_injected_slowdown_trips(
            self, tmp_path, monkeypatch):
        """One measurement serves as its own baseline: the unmodified
        re-check passes, a synthetic 2.5x slowdown in one stage fails."""
        from repro.perf.measure import measure_benchmark

        monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
        baseline_path = tmp_path / "baseline.json"
        measured = measure_benchmark("perm", MACH, str(tmp_path / "cache"))
        baseline_path.write_text(json.dumps({"benchmarks":
                                             {"perm": measured}}))

        # generous threshold so machine noise cannot flake the clean run
        clean = run_check(["perm"], baseline_path, MACH, threshold=3.0,
                          min_ms=50.0)
        assert clean.ok, clean.render()

        monkeypatch.setenv("REPRO_PERF_INJECT", "disambiguate:40.0")
        hot = run_check(["perm"], baseline_path, MACH, threshold=3.0,
                        min_ms=50.0)
        assert not hot.ok
        assert any(d.stage == "disambiguate" for d in hot.regressions)


class TestHistoryBaseline:
    """``repro perf check --against history.jsonl`` when the newest
    record is a corpus run without the measured benchmark."""

    CORPUS = {"corpus:smoke": _bench(total=3000.0)}

    def _history(self, tmp_path, *records):
        path = tmp_path / "history.jsonl"
        lines = [json.dumps({
            "schema": "repro.perf_history/1", "git_sha": sha * 40,
            "timestamp": f"2026-08-0{day}T00:00:00Z",
            "machine": {"name": MACH.name, "num_fus": 5,
                        "memory_latency": 6},
            "host": {"node": "ci"}, "benchmarks": benchmarks})
            for day, (sha, benchmarks) in enumerate(records, start=1)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.slow
    def test_benchmark_compared_against_older_spd_record(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
        # a generous baseline: the run is gated but cannot regress
        spd = {"perm": {"wall_ms": dict.fromkeys(
            ("compile_profile", "disambiguate", "timing", "total",
             "warm_total"), 9000.0)}}
        history = self._history(tmp_path, ("a", spd), ("b", self.CORPUS))
        out_json = tmp_path / "check.json"
        assert main(["perf", "check", "--against", str(history),
                     "--names", "perm", "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["baseline"].startswith("history.jsonl@aaaaaaaaaaaa")
        assert payload["missing_in_baseline"] == []
        compared = {d["stage"]: d["baseline_ms"] for d in payload["deltas"]
                    if d["benchmark"] == "perm"}
        assert set(compared) == set(DEFAULT_STAGES)
        assert compared["disambiguate"] == 9000.0

    @pytest.mark.slow
    def test_nothing_compared_is_an_error(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
        history = self._history(tmp_path, ("b", self.CORPUS))
        assert main(["perf", "check", "--against", str(history),
                     "--names", "perm"]) != 0
        assert "nothing compared" in capsys.readouterr().err
