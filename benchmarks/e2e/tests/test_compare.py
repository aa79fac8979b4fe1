"""``compare.py``: one verdict per metric and workload."""

import json

import pytest

import compare
import run

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_identical_runs_are_no_worse():
    assert compare.verdict(STEADY, list(STEADY), 0.1, False) == "no worse"


@pytest.mark.parametrize("higher_is_better, factor", [(False, 1.2),
                                                      (True, 0.8)])
def test_a_change_past_the_bound_is_worse(higher_is_better, factor):
    change = [value * factor for value in STEADY]
    assert compare.verdict(STEADY, change, 0.1, higher_is_better) == "worse"


def test_a_change_within_the_bound_is_no_worse():
    change = [value * 1.05 for value in STEADY]
    assert compare.verdict(STEADY, change, 0.1, False) == "no worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert compare.verdict(noisy, list(noisy), 0.1, False) == "unresolved"
    assert compare.verdict(STEADY, noisy, 0.1, False) == "unresolved"


def test_a_wide_spread_resolves_when_every_change_run_is_better():
    noisy = [16.0, 20.0, 24.0, 18.0, 22.0]
    better = [6.0, 9.0, 7.0, 8.0, 6.5]
    assert compare.verdict(noisy, better, 0.1, False) == "no worse"


def test_improved_needs_ten_pairs_won_nine_times_in_ten():
    faster = [value * 0.8 for value in STEADY]
    assert compare.verdict(STEADY, faster, 0.1, False) == "no worse"
    parent = STEADY * 2
    change = [value * 0.8 for value in parent]
    assert compare.verdict(parent, change, 0.1, False) == "improved"
    # two losses in ten pairs: not nine tenths
    change[0] = change[1] = 20.0
    assert compare.verdict(parent, change, 0.5, False) == "no worse"


def _results(values, seconds=20):
    metrics = {"throughput_per_s": {"unit": "1/s", "values": values}}
    return {"seconds": seconds,
            "workloads": {"paper-cold": {"metrics": metrics}}}


def test_main_compares_the_two_runs_of_a_baseline(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"runs": [_results(STEADY),
                                         _results(list(STEADY))]}))
    assert compare.main([str(path)]) == 0
    assert "paper-cold" in capsys.readouterr().out


def test_main_exits_1_on_a_regression(tmp_path, capsys):
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps(_results(STEADY)))
    change.write_text(json.dumps(_results([v * 0.5 for v in STEADY])))
    assert compare.main([str(parent), str(change)]) == 1
    assert "worse" in capsys.readouterr().out


def test_main_refuses_files_with_different_round_lengths(tmp_path, capsys):
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps(_results(STEADY, seconds=20)))
    change.write_text(json.dumps(_results(STEADY, seconds=8)))
    assert compare.main([str(parent), str(change)]) == 2
    assert "round lengths" in capsys.readouterr().err


def _write_runs(monkeypatch, paths, throughput_factor):
    """Write one ``run.py`` rounds-mode results file per path, with
    every round's metrics made up: steady, and throughput scaled by
    *throughput_factor*."""
    jitter = iter(range(10 ** 6))

    def fake_round(workload, seed, seconds, traced):
        metrics = {}
        for metric in json.loads(run.BENCHMARK_PATH.read_text())[
                "end_to_end"]:
            value = 100.0 * (1 + 0.01 * (next(jitter) % 3))
            if metric["name"] == "throughput_per_s":
                value *= throughput_factor
            metrics[metric["name"]] = {"value": value,
                                       "unit": metric["unit"]}
        return {"attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(run, "_subprocess_round", fake_round)
    for path in paths:
        assert run.main(["--seed", "0", "--out", str(path)]) == 0


def test_pooled_run_py_results_show_an_improvement(tmp_path, monkeypatch,
                                                   capsys):
    """Two rounds-mode runs per side give the ten pairs that an
    improvement needs; one run per side does not."""
    parent = [tmp_path / "a1.json", tmp_path / "a2.json"]
    change = [tmp_path / "b1.json", tmp_path / "b2.json"]
    _write_runs(monkeypatch, parent, 1.0)
    _write_runs(monkeypatch, change, 1.3)
    capsys.readouterr()

    assert compare.main(["--parent", *map(str, parent),
                         "--change", *map(str, change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {tuple(line.split()[:2]): line.split("%")[-1].strip()
                for line in lines[:-1]}
    assert {verdicts[(workload, "throughput_per_s")]
            for workload in run.workloads.WORKLOADS} == {"improved"}
    assert {verdict for (_, name), verdict in verdicts.items()
            if name != "throughput_per_s"} == {"no worse"}

    assert compare.main([str(parent[0]), str(change[0])]) == 0
    assert "improved" not in capsys.readouterr().out
