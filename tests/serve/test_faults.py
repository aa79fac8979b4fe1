"""Fault injection: crashes, hangs/timeouts, corrupt cache entries, SIGTERM.

The ``REPRO_SERVE_INJECT`` hook (mirroring ``REPRO_PERF_INJECT``) is
read inside worker processes: ``crash:<label-substring>`` hard-exits
the worker mid-job, ``hang:<label-substring>:<seconds>`` sleeps before
computing.  Every fault must surface as a *structured* error response —
never a hang, never a wedged server.  The same holds for the batch
pipeline's worker pool: a worker dying under ``Pipeline.stream`` or
``Pipeline.prefetch`` raises ``BrokenProcessPool``.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.disambig.pipeline import Disambiguator
from repro.pipeline.core import Pipeline
from repro.pipeline.executor import ViewJob
from repro.pipeline.store import ArtifactStore

SOURCE = ("int a[8];\n"
          "int main() { int i; for (i = 0; i < 8; i = i + 1) "
          "{ a[i] = i; } print(a[3]); return 0; }\n")


@pytest.fixture
def inject(monkeypatch):
    """Set the fault hook before the server (and its workers) start."""

    def set_spec(spec: str) -> None:
        monkeypatch.setenv("REPRO_SERVE_INJECT", spec)

    return set_spec


class TestWorkerCrash:
    def test_crash_is_structured_500_and_pool_recovers(self, inject,
                                                       server_factory):
        inject("crash:doomed")
        server = server_factory(jobs=2)
        status, cache, data = server.post(
            "compile", {"source": SOURCE, "label": "doomed-1"})
        body = json.loads(data)
        assert status == 500 and cache == "error"
        assert body["error"]["code"] == "worker_crashed"
        counters = server.counters()
        assert counters["serve.worker_crashes"] >= 1
        # the pool was rebuilt: a non-matching request computes fine
        status, _, data = server.post(
            "compile", {"source": SOURCE, "label": "survivor"})
        assert status == 200
        assert json.loads(data)["result"]["ops"] > 0


class TestTimeout:
    def test_hang_is_504_and_slot_frees(self, inject, server_factory):
        inject("hang:glacial:2")
        server = server_factory(jobs=2, request_timeout=0.4)
        status, cache, data = server.post(
            "compile", {"source": SOURCE, "label": "glacial-1"})
        body = json.loads(data)
        assert status == 504 and cache == "error"
        assert body["error"]["code"] == "timeout"
        assert server.counters()["serve.timeouts"] >= 1
        # the executor still has a free slot: an untainted request
        # completes well inside its own budget
        status, _, data = server.post(
            "compile", {"source": SOURCE, "label": "brisk"})
        assert status == 200

    def test_hung_computation_still_warms_the_cache(self, inject,
                                                    server_factory):
        """A timed-out-but-running job is left to finish (cancelling a
        busy worker is impossible); its artifacts land in the cache, so
        a later identical request is a warm hit."""
        inject("hang:tardy:1")
        server = server_factory(jobs=2, request_timeout=0.3)
        payload = {"source": SOURCE, "label": "tardy-1"}
        status, _, _ = server.post("compile", payload)
        assert status == 504
        import time
        time.sleep(1.5)  # let the hung worker finish and publish
        status, cache, data = server.post("compile", payload)
        assert status == 200
        assert json.loads(data)["result"]["ops"] > 0


class TestCorruptCache:
    def test_corrupt_shard_entries_rebuild_identically(self, server_factory,
                                                       tmp_path):
        cache_root = str(tmp_path / "shared-cache")
        first_server = server_factory(jobs=2, cache_root=cache_root)
        payload = {"source": SOURCE, "kind": "spec"}
        status, _, original = first_server.post("disambiguate", payload)
        assert status == 200
        first_server.stop()

        corrupted = 0
        for dirpath, _, filenames in os.walk(cache_root):
            for filename in filenames:
                if filename.endswith(".pkl"):
                    with open(os.path.join(dirpath, filename), "wb") as fh:
                        fh.write(b"\x80garbage, not a pickle")
                    corrupted += 1
        assert corrupted > 0

        # a fresh server (cold memory tier) hits the corrupt entries,
        # drops them, recomputes, and renders byte-identical output
        second_server = server_factory(jobs=2, cache_root=cache_root)
        status, cache, rebuilt = second_server.post("disambiguate", payload)
        assert status == 200 and cache == "miss"
        assert rebuilt == original


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="bounds the wait with SIGALRM")
class TestPipelineWorkerDeath:
    @pytest.fixture
    def deadline(self):
        """Fail instead of hanging if the parent never notices."""
        def expire(signum, frame):
            raise TimeoutError("the parent hung on a dead worker")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("method", ["stream", "prefetch"])
    def test_dead_worker_raises_broken_pool(self, method, deadline,
                                            monkeypatch, tmp_path):
        view = Pipeline.view

        def dying_view(self, label, *args, **kwargs):
            if label == "doomed":
                os._exit(3)
            return view(self, label, *args, **kwargs)

        # the forked workers inherit the patched class
        monkeypatch.setattr(Pipeline, "view", dying_view)
        pipeline = Pipeline(store=ArtifactStore(tmp_path))
        jobs = [ViewJob(label, SOURCE, kind)
                for label in ("first", "doomed", "last")
                for kind in (Disambiguator.NAIVE, Disambiguator.SPEC)]
        with pytest.raises(BrokenProcessPool):
            if method == "stream":
                list(pipeline.stream(jobs, num_jobs=2))
            else:
                pipeline.prefetch(jobs, num_jobs=2)


def _alive(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _children(pid: int) -> list:
    pids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            pids.extend(int(child) for child in handle.read().split())
    return pids


def _wait_gone(pids, timeout: float = 10.0) -> list:
    """The pids still alive after waiting up to *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


@pytest.fixture
def cli_server(tmp_path):
    """``repro serve --jobs 2`` as a subprocess, after one compile
    request has started a pool worker: (process, port, worker pids)."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--jobs", "2", "--cache", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    workers = []
    try:
        line = server.stdout.readline()
        port = int(re.search(r"127\.0\.0\.1:(\d+)/", line).group(1))
        assert _request(port, "POST", "/v1/compile",
                        {"source": SOURCE, "label": "sigterm"}) == 200
        workers = _children(server.pid)
        assert workers, "the request never reached a pool worker"
        yield server, port, workers
    finally:
        if server.poll() is None:
            workers += _children(server.pid)
            server.kill()
            server.wait(timeout=60)
        server.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _request(port: int, method: str, path: str, payload=None) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        return conn.getresponse().status
    finally:
        conn.close()


@pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                    reason="needs Linux /proc to find the pool workers")
class TestSigterm:
    def test_sigterm_stops_the_worker_pool(self, cli_server):
        """A plain ``kill`` unwinds like Ctrl-C: the server shuts its
        pool down instead of leaving the workers orphaned."""
        server, _port, workers = cli_server
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        assert not _wait_gone(workers)

    def test_sigterm_to_a_worker_spares_the_server(self, cli_server):
        """Workers do not inherit the server's SIGTERM handler: a
        terminated worker exits, and the server keeps serving."""
        server, port, workers = cli_server
        os.kill(workers[0], signal.SIGTERM)
        assert not _wait_gone(workers[:1])
        assert server.poll() is None
        assert _request(port, "GET", "/v1/health") == 200
