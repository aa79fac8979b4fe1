"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def demo_source(tmp_path):
    path = tmp_path / "demo.tc"
    path.write_text("""
int a[8];
int main() {
    int i;
    for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
    print(a[5]);
    return 0;
}
""")
    return str(path)


class TestRun:
    def test_runs_and_prints(self, demo_source, capsys):
        assert main(["run", demo_source]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == ["15"]

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("int main() { print(9); return 0; }"))
        assert main(["run", "-"]) == 0
        assert capsys.readouterr().out.strip() == "9"


class TestCompile:
    def test_dumps_ir(self, demo_source, capsys):
        assert main(["compile", demo_source]) == 0
        out = capsys.readouterr().out
        assert "func main" in out
        assert "store" in out and "load" in out

    def test_graft_flag(self, demo_source, capsys):
        assert main(["compile", demo_source, "--graft"]) == 0
        assert "func main" in capsys.readouterr().out


class TestAnalyze:
    def test_all_disambiguators_reported(self, demo_source, capsys):
        assert main(["analyze", demo_source, "--fus", "4",
                     "--memory", "2"]) == 0
        out = capsys.readouterr().out
        for word in ("naive", "static", "spec", "perfect", "cycles"):
            assert word in out

    def test_infinite_machine(self, demo_source, capsys):
        assert main(["analyze", demo_source, "--fus", "0"]) == 0
        assert "life-inffu" in capsys.readouterr().out

    def test_spd_knob_flags(self, demo_source, capsys):
        assert main(["analyze", demo_source, "--max-expansion", "1.25",
                     "--min-gain", "0.25", "--profiled-alias"]) == 0
        assert "spec" in capsys.readouterr().out

    def test_json_unwritable_path(self, demo_source, capsys):
        assert main(["analyze", demo_source,
                     "--json", "/nonexistent-dir/out.json"]) == 2
        assert "cannot write --json output" in capsys.readouterr().err

    def test_json_export(self, demo_source, capsys, tmp_path):
        out_path = tmp_path / "analysis.json"
        assert main(["analyze", demo_source, "--fus", "4",
                     "--json", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "naive" in text  # text output still printed
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.analysis/1"
        assert set(data["disambiguators"]) == {"naive", "static", "spec",
                                               "perfect"}
        for entry in data["disambiguators"].values():
            assert entry["cycles"] > 0
        assert data["disambiguators"]["spec"]["spd_counts"].keys() == \
            {"raw", "war", "waw"}
        assert data["machine"]["num_fus"] == 4
        assert data["trace"]["name"] == "trace"
        assert "counters" in data["metrics"]


class TestBench:
    def test_known_benchmark(self, capsys):
        assert main(["bench", "perm", "--memory", "2"]) == 0
        assert "perm" in capsys.readouterr().out

    def test_unknown_benchmark(self, capsys):
        assert main(["bench", "nonesuch"]) == 2

    def test_bench_honors_spd_knobs(self, capsys):
        # an impossible MinGain suppresses every SpD application
        assert main(["bench", "perm", "--memory", "2",
                     "--min-gain", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "SpD: none" in out

    def test_json_export(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "perm", "--memory", "2",
                     "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.analysis/1"
        assert data["program"] == "perm"
        assert data["disambiguators"]["spec"]["cycles"] > 0


class TestTrace:
    def test_builtin_benchmark(self, capsys):
        assert main(["trace", "perm", "--memory", "2"]) == 0
        out = capsys.readouterr().out
        # nested per-pass timing tree
        for stage in ("pipeline", "frontend.compile", "frontend.parse",
                      "sim.run", "analyze.spec", "disambig.spec",
                      "timing.evaluate"):
            assert stage in out, stage
        assert "ms" in out
        assert "metrics:" in out
        assert "depgraph.builds" in out

    def test_source_file(self, demo_source, capsys):
        assert main(["trace", demo_source, "--fus", "2"]) == 0
        assert "frontend.compile" in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert main(["trace", "/no/such/file.tc"]) == 2

    def test_json_export(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "perm", "--memory", "2",
                     "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.trace/1"
        assert data["program"] == "perm"
        names = {child["name"] for child in data["trace"]["children"]}
        assert "pipeline" in names
        assert data["metrics"]["counters"]["sim.steps"] > 0


class TestTraceFormats:
    def test_chrome_export_has_all_pipeline_stages(self, capsys, tmp_path):
        out_path = tmp_path / "trace.chrome.json"
        assert main(["trace", "perm", "--memory", "2", "--hw",
                     "--format", "chrome", "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {event["name"] for event in complete}
        # all five pipeline stages appear in one trace
        for stage in ("pipeline.compile", "pipeline.profile",
                      "pipeline.disambiguate", "pipeline.timing",
                      "pipeline.hw_timing"):
            assert stage in names, stage
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "pid" in event and "tid" in event

    @pytest.mark.slow
    def test_chrome_export_merges_worker_lanes(self, capsys, tmp_path):
        out_path = tmp_path / "trace.chrome.json"
        assert main(["trace", "perm", "--memory", "2", "--jobs", "2",
                     "--format", "chrome", "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert len(pids) >= 2  # main lane + at least one worker lane
        names = {event["name"] for event in trace["traceEvents"]}
        assert "pipeline.worker_job" in names

    def test_chrome_to_stdout_is_sorted_json(self, capsys):
        assert main(["trace", "perm", "--memory", "2",
                     "--format", "chrome"]) == 0
        payload = capsys.readouterr().out
        trace = json.loads(payload)
        assert payload == json.dumps(trace, indent=2, sort_keys=True) + "\n"

    def test_folded_stacks(self, capsys):
        assert main(["trace", "perm", "--memory", "2",
                     "--format", "folded"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
        assert any("pipeline.profile;sim.run" in line for line in lines)

    def test_unwritable_out(self, capsys):
        assert main(["trace", "perm", "--memory", "2", "--format", "chrome",
                     "--out", "/no/such/dir/trace.json"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_text_output_includes_percentiles(self, capsys):
        assert main(["trace", "perm", "--memory", "2"]) == 0
        out = capsys.readouterr().out
        assert "histograms (ms):" in out
        for column in ("p50", "p95", "p99"):
            assert column in out, column

    def test_profile_attaches_hot_tables(self, capsys):
        assert main(["trace", "perm", "--memory", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: pipeline.profile" in out
        assert "cum_ms" in out
        # profiling is a trace-local toggle, not a sticky global
        from repro import obs
        assert not obs.is_profiling()


class TestPerfCommand:
    @staticmethod
    def _baseline(tmp_path, monkeypatch, factor=None):
        from repro.machine.description import machine
        from repro.perf.measure import measure_benchmark
        monkeypatch.delenv("REPRO_PERF_INJECT", raising=False)
        measured = measure_benchmark("perm", machine(5, 6),
                                     str(tmp_path / "cache"))
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"benchmarks": {"perm": measured}}))
        return path

    @pytest.mark.slow
    def test_clean_check_exits_zero(self, capsys, tmp_path, monkeypatch):
        baseline = self._baseline(tmp_path, monkeypatch)
        assert main(["perf", "check", "--against", str(baseline),
                     "--names", "perm", "--threshold", "3.0",
                     "--min-ms", "50"]) == 0
        out = capsys.readouterr().out
        assert "perf check: OK" in out

    @pytest.mark.slow
    def test_injected_regression_exits_nonzero(self, capsys, tmp_path,
                                               monkeypatch):
        baseline = self._baseline(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_PERF_INJECT", "disambiguate:40.0")
        out_json = tmp_path / "check.json"
        assert main(["perf", "check", "--against", str(baseline),
                     "--names", "perm", "--threshold", "3.0",
                     "--min-ms", "50", "--json", str(out_json)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro.perf_check/1"
        assert payload["ok"] is False

    def test_unknown_benchmark(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"benchmarks": {}}))
        assert main(["perf", "check", "--against", str(baseline),
                     "--names", "nonesuch"]) == 2

    def test_infinite_machine_blames_fus_not_baseline(self, capsys,
                                                      tmp_path):
        baseline = tmp_path / "BENCH_spd.json"
        baseline.write_text(json.dumps({"benchmarks": {}}))
        assert main(["perf", "check", "--fus", "0", "--against",
                     str(baseline), "--names", "perm"]) == 2
        err = capsys.readouterr().err
        assert "--fus" in err
        assert "baseline" not in err

    def test_missing_baseline(self, capsys):
        assert main(["perf", "check", "--against", "/no/such/base.json",
                     "--names", "perm"]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    @pytest.mark.slow
    def test_record_appends_history(self, capsys, tmp_path, monkeypatch):
        baseline = self._baseline(tmp_path, monkeypatch)
        history = tmp_path / "history.jsonl"
        assert main(["perf", "check", "--against", str(baseline),
                     "--names", "perm", "--threshold", "3.0",
                     "--min-ms", "50", "--record", str(history)]) == 0
        from repro.perf.history import load_records
        records = load_records(history)
        assert len(records) == 1
        assert "perm" in records[0]["benchmarks"]

    def test_history_renders_trajectory(self, capsys, tmp_path):
        from repro.machine.description import machine
        from repro.perf.history import append_record, make_record
        history = tmp_path / "history.jsonl"
        bench = {"perm": {"wall_ms": {"total": 100.0, "warm_total": 5.0}}}
        append_record(history, make_record(machine(5, 6), bench,
                                           sha="a" * 40,
                                           timestamp="2026-08-08T00:00:00Z"))
        assert main(["perf", "history", "--path", str(history)]) == 0
        out = capsys.readouterr().out
        assert "life-5fu-mem6" in out
        assert "aaaaaaaaaaaa" in out

    def test_history_missing_file(self, capsys, tmp_path):
        assert main(["perf", "history",
                     "--path", str(tmp_path / "none.jsonl")]) == 2


class TestListAndReport:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "espresso" in out

    def test_report_table6_1(self, capsys):
        assert main(["report", "table6_1"]) == 0
        assert "Integer multiplies" in capsys.readouterr().out


class TestPasses:
    def test_passes_lists_registry(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        for name in ("lower", "graft", "spd", "constfold", "copyprop", "dce"):
            assert name in out, name
        assert "default cleanup" in out

    def test_bench_with_default_cleanup(self, capsys):
        assert main(["bench", "perm", "--memory", "2",
                     "--passes", "default"]) == 0
        assert "perm" in capsys.readouterr().out

    def test_explicit_pass_list(self, capsys):
        assert main(["bench", "perm", "--memory", "2",
                     "--passes", "dce,constfold"]) == 0
        assert "perm" in capsys.readouterr().out

    def test_unknown_pass_rejected(self, capsys):
        with pytest.raises(SystemExit, match="unknown pass"):
            main(["bench", "perm", "--passes", "bogus"])

    def test_non_cleanup_pass_rejected(self, capsys):
        with pytest.raises(SystemExit, match="cannot run as a cleanup"):
            main(["bench", "perm", "--passes", "spd"])

    def test_dump_after_writes_ir_to_stderr(self, demo_source, capsys):
        assert main(["analyze", demo_source, "--passes", "default",
                     "--dump-after", "dce"]) == 0
        err = capsys.readouterr().err
        assert "; IR after pass dce" in err
        assert "func main" in err

    def test_json_reports_per_pass_deltas(self, demo_source, capsys,
                                          tmp_path):
        out_path = tmp_path / "analysis.json"
        assert main(["analyze", demo_source, "--passes", "default",
                     "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        spec = data["disambiguators"]["spec"]
        names = [report["pass"] for report in spec["passes"]]
        assert names == ["spd", "constfold", "copyprop", "dce"]
        for report in spec["passes"]:
            assert report["ops_after"] - report["ops_before"] == \
                report["delta"]


class TestSchedule:
    def test_schedule_dump(self, demo_source, capsys):
        assert main(["schedule", demo_source, "--fus", "2",
                     "--memory", "2"]) == 0
        out = capsys.readouterr().out
        assert "slot0" in out and "cycle" in out

    def test_schedule_spec_and_filter(self, demo_source, capsys):
        assert main(["schedule", demo_source, "--fus", "2", "--spec",
                     "--tree", "for"]) == 0
        out = capsys.readouterr().out
        assert "(spec)" in out

    def test_schedule_rejects_infinite(self, demo_source, capsys):
        assert main(["schedule", demo_source, "--fus", "0"]) == 2


class TestFuzz:
    def test_small_clean_campaign(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--seed", "0", "--iterations", "2",
                     "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "2 programs" in out
        assert "0 divergent" in out
        assert not corpus.exists()  # only created on a divergence

    def test_json_export(self, capsys, tmp_path):
        out_path = tmp_path / "fuzz.json"
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--seed", "1", "--iterations", "2",
                     "--corpus", str(corpus), "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.fuzz/1"
        assert data["seed"] == 1
        assert data["programs_generated"] == 2
        assert data["divergent_programs"] == 0
        assert data["metrics"]["counters"]["fuzz.programs_generated"] == 2

    def test_time_budget_cuts_campaign_short(self, capsys, tmp_path):
        assert main(["fuzz", "--seed", "0", "--iterations", "500",
                     "--corpus", str(tmp_path / "corpus"),
                     "--time-budget", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "time budget exhausted" in out


class TestEngineFlag:
    def test_run_engine_choices(self, demo_source, capsys):
        for engine in ("interp", "jit"):
            assert main(["run", demo_source, "--engine", engine]) == 0
            assert capsys.readouterr().out.strip() == "15"

    def test_run_rejects_unknown_engine(self, demo_source, capsys):
        with pytest.raises(SystemExit):
            main(["run", demo_source, "--engine", "nonesuch"])

    def test_run_rejects_hw_engine(self, demo_source, capsys):
        # hw is a timing model, not a semantic engine; --engine excludes it
        with pytest.raises(SystemExit):
            main(["run", demo_source, "--engine", "hw"])

    def test_bench_output_engine_invariant(self, capsys):
        """The engine changes how profiles are executed, never the
        numbers: bench output must be byte-identical across engines."""
        outputs = {}
        for engine in ("jit", "interp"):
            assert main(["bench", "perm", "--memory", "2",
                         "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["jit"] == outputs["interp"]

    def test_analyze_accepts_engine(self, demo_source, capsys):
        assert main(["analyze", demo_source, "--fus", "4", "--memory", "2",
                     "--engine", "interp"]) == 0
        assert "spec" in capsys.readouterr().out

    def test_fuzz_engine_flag(self, capsys, tmp_path):
        assert main(["fuzz", "--seed", "0", "--iterations", "1",
                     "--corpus", str(tmp_path / "corpus"),
                     "--engine", "jit"]) == 0
        assert "0 divergent" in capsys.readouterr().out
