"""A tiny-input round of every workload entry point, untraced and
traced, plus the runner's output for both kinds of round."""

import json
import signal
import socket
import threading
import time
from functools import partial

import pytest

import run
import workloads

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())
SPEC = json.loads(run.BENCHMARK_PATH.read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def _smallest_smoke_cells():
    cells = workloads.hw_cells(workloads._manifest())
    return [cell for cell in cells if cell[3] is workloads.HW_SMOKE][:2]


TINY = {
    "paper-cold": lambda: dict(kernels=("towers", "perm"), replays=1),
    "corpus-cold": lambda: dict(population=20, batch_size=2, replays=1),
    "hw-sweep": lambda: dict(cells=_smallest_smoke_cells(), replays=1),
    "serve-mixed": lambda: dict(misses=3),
}


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_round(workload, traced, tmp_path):
    entry = workloads.WORKLOADS[workload]
    result = entry(0, 0.3, tmp_path, EXPECTED, traced, setup_repeats=1,
                   **TINY[workload]())
    assert result.failed == 0, result.problems
    assert result.attempted > 0
    assert result.samples["cold"] > 0 and result.samples["warm"] > 0
    if not traced:
        assert set(result.metrics) == END_TO_END
        assert all(value > 0 for value in result.metrics.values())
        return
    assert set(result.metrics) == PER_LAYER
    assert result.trace["processes"]
    layers = result.metrics
    if workload == "serve-mixed":
        assert layers["serve.server.cpu_us"] > 0
        assert layers["loadgen.client.cpu_us"] > 0
        assert layers["serve.worker.busy_ms"] > 0
        assert 0 < layers["serve.response_hit_ratio"] < 1
    else:
        assert layers["unattributed.share"] < 0.05
        assert layers["pipeline.store.get_ms"] > 0
    busy = "hwsim.busy_ms" if workload == "hw-sweep" else "frontend.busy_ms"
    assert layers[busy] > 0


def test_the_server_stops_on_sigint_when_started_with_it_ignored(tmp_path):
    """A shell starts a background command with SIGINT ignored; the
    server must still stop on SIGINT, and its pool workers with it."""
    plan = workloads.serve_plan(0, EXPECTED["corpus_by_cost"], 1,
                                workloads._manifest())
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = workloads._Server(tmp_path, None)
    finally:
        signal.signal(signal.SIGINT, previous)
    try:
        sock = workloads._connect(server.port)
        try:
            status, _ = workloads._exchange(sock, plan.misses[0][1])
        finally:
            sock.close()
    finally:
        stopped = server.stop()
    assert status == 200
    assert stopped.code == 0
    assert stopped.workers and not stopped.leftovers


def test_a_request_that_raises_counts_as_attempted_and_failed():
    """A serve client whose connection drops counts the request it was
    sending, so failed never exceeds attempted."""
    plan = workloads.ServePlan(
        exact=[b"GET /v1/health HTTP/1.1\r\n\r\n"],
        relabel=[[(b"", b"")] for _ in range(workloads.CLIENTS)],
        sequences=[[(0, True)] for _ in range(workloads.CLIENTS)],
        misses=[])
    log = workloads._ClientLog(None)
    with socket.create_server(("127.0.0.1", 0)) as server:
        def drop_first_connection() -> None:
            connection, _ = server.accept()
            connection.close()
        dropper = threading.Thread(target=drop_first_connection)
        dropper.start()
        workloads._client(server.getsockname()[1], plan, 0,
                          time.perf_counter_ns() + 10 ** 9, [], [b""], log)
        dropper.join(timeout=10)
    assert not dropper.is_alive()
    assert (log.attempted, log.failed) == (1, 1)


@pytest.fixture
def tiny_paper_cold(tmp_path, monkeypatch):
    """``run.main`` on two kernels, with scratch files under tmp_path."""
    monkeypatch.setitem(workloads.WORKLOADS, "paper-cold", partial(
        workloads.paper_cold, kernels=("towers", "perm"), setup_repeats=1,
        replays=1))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")

    def main(*extra):
        return run.main(["--workload", "paper-cold", "--seed", "0",
                         "--seconds", "0", *extra])
    return main


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, names", [("0", END_TO_END),
                                          ("1", PER_LAYER)])
def test_runner_prints_the_benchmark_json_metrics(tiny_paper_cold, capsys,
                                                  trace, names):
    assert tiny_paper_cold("--trace", trace) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == names
    units = {metric["name"]: metric["unit"]
             for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


def test_traced_round_writes_its_spans(tiny_paper_cold, capsys):
    assert tiny_paper_cold("--trace", "1") == 0
    trace = json.loads((run.WORK_DIR / "trace-paper-cold.json").read_text())
    spans = next(iter(trace["processes"].values()))
    assert {"pipeline.timing", "frontend", "store.get"} <= set(spans["names"])


def test_a_tampered_expected_value_fails_the_round(tiny_paper_cold, capsys,
                                                   tmp_path, monkeypatch):
    expected = json.loads(run.EXPECTED_PATH.read_text())
    expected["kernels"]["towers"]["cycles"]["spec"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", path)
    assert tiny_paper_cold("--trace", "0") == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
