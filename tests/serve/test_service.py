"""CompileService semantics: dedup, warm paths, byte-identity, queue."""

import asyncio
import json

import pytest

from repro.cli import main as repro_main
from repro.serve.schemas import RequestError, encode_body
from repro.serve.service import CompileService, ServeConfig

SOURCE = ("int a[8];\n"
          "int main() { int i; for (i = 0; i < 8; i = i + 1) "
          "{ a[i] = i; } print(a[3]); return 0; }\n")


def run_service(config, scenario):
    """Run one async *scenario(service)* against a started service."""

    async def main():
        service = CompileService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main())


def config_for(tmp_path, **overrides) -> ServeConfig:
    overrides.setdefault("cache_root", str(tmp_path / "cache"))
    return ServeConfig(port=0, **overrides)


class TestDedupCoalescing:
    def test_identical_concurrent_requests_coalesce(self, tmp_path):
        """N identical in-flight requests cause exactly ONE computation:
        the leader misses, everyone else joins its future."""
        payload = {"source": SOURCE, "kind": "spec"}

        async def scenario(service):
            results = await asyncio.gather(*[
                service.handle("disambiguate", dict(payload))
                for _ in range(8)])
            return results, dict(service.metrics.counters)

        results, counters = run_service(config_for(tmp_path, jobs=2),
                                        scenario)
        statuses = [status for status, _, _ in results]
        assert statuses == [200] * 8
        bodies = {encode_body(body) for _, body, _ in results}
        assert len(bodies) == 1
        states = sorted(state for _, _, state in results)
        assert states == ["dedup"] * 7 + ["miss"]
        assert counters["serve.executions"] == 1
        assert counters["serve.cache_misses"] == 1
        assert counters["serve.dedup_hits"] == 7
        assert counters.get("serve.cache_hits", 0) == 0

    def test_different_requests_do_not_coalesce(self, tmp_path):
        async def scenario(service):
            results = await asyncio.gather(
                service.handle("disambiguate",
                               {"source": SOURCE, "kind": "spec"}),
                service.handle("disambiguate",
                               {"source": SOURCE, "kind": "naive"}))
            return results, dict(service.metrics.counters)

        results, counters = run_service(config_for(tmp_path, jobs=2),
                                        scenario)
        assert [status for status, _, _ in results] == [200, 200]
        assert counters["serve.cache_misses"] == 2
        assert counters.get("serve.dedup_hits", 0) == 0


class TestWarmPaths:
    def test_repeat_request_hits(self, tmp_path):
        payload = {"source": SOURCE}

        async def scenario(service):
            first = await service.handle("compile", dict(payload))
            second = await service.handle("compile", dict(payload))
            return first, second, dict(service.metrics.counters)

        first, second, counters = run_service(config_for(tmp_path),
                                              scenario)
        assert first[0] == second[0] == 200
        assert first[2] == "miss" and second[2] == "hit"
        assert encode_body(first[1]) == encode_body(second[1])
        assert counters["serve.cache_hits"] == 1
        assert counters["serve.response_hits"] == 1

    def test_store_probe_hit_without_response_cache(self, tmp_path):
        """With the response cache disabled the warm path still hits —
        via the artifact-store probe — and renders identical bytes."""
        payload = {"source": SOURCE}

        async def scenario(service):
            first = await service.handle("compile", dict(payload))
            second = await service.handle("compile", dict(payload))
            return first, second, dict(service.metrics.counters)

        first, second, counters = run_service(
            config_for(tmp_path, response_cache_size=0), scenario)
        assert second[2] == "hit"
        assert encode_body(first[1]) == encode_body(second[1])
        assert counters["serve.cache_hits"] == 1
        assert counters.get("serve.response_hits", 0) == 0

    def test_errors_are_not_cached(self, tmp_path):
        payload = {"source": "int main() { return 0 }"}  # syntax error

        async def scenario(service):
            first = await service.handle("compile", dict(payload))
            second = await service.handle("compile", dict(payload))
            return first, second, dict(service.metrics.counters)

        first, second, counters = run_service(config_for(tmp_path),
                                              scenario)
        assert first[0] == second[0] == 422
        assert first[1]["error"]["code"] == "compile_error"
        assert counters["serve.errors.compile_error"] == 2
        assert counters.get("serve.response_hits", 0) == 0


class TestByteIdentityAcrossJobs:
    # the acceptance-criterion invariant: responses are a pure function
    # of the request, independent of worker parallelism
    REQUESTS = [
        ("compile", {"source": SOURCE}),
        ("disambiguate", {"source": SOURCE, "kind": "spec"}),
        ("time", {"source": SOURCE, "kind": "static",
                  "machine": {"fus": 5, "memory": 2}}),
        ("hwtime", {"source": SOURCE, "hw": {"fus": 4, "window": 16}}),
        ("report", {"source": SOURCE}),
    ]

    def collect(self, tmp_path, jobs, subdir):
        async def scenario(service):
            out = []
            for endpoint, payload in self.REQUESTS:
                status, body, _ = await service.handle(endpoint,
                                                       dict(payload))
                assert status == 200, body
                out.append(encode_body(body))
            return out

        return run_service(
            ServeConfig(port=0, jobs=jobs,
                        cache_root=str(tmp_path / subdir)), scenario)

    def test_jobs1_and_jobs4_render_identical_bytes(self, tmp_path):
        serial = self.collect(tmp_path, 1, "serial")
        parallel = self.collect(tmp_path, 4, "parallel")
        assert serial == parallel


class TestReportMatchesAnalyze:
    def test_report_disambiguators_equal_analyze_json(self, tmp_path,
                                                      capsys):
        path = tmp_path / "prog.tc"
        path.write_text(SOURCE)
        out = tmp_path / "analysis.json"
        assert repro_main(["analyze", str(path), "--fus", "5", "--memory",
                           "2", "--passes", "default", "--json",
                           str(out)]) == 0
        analysis = json.loads(out.read_text())
        for entry in analysis["disambiguators"].values():
            entry.pop("passes", None)

        async def scenario(service):
            return await service.handle("report", {
                "source": SOURCE, "machine": {"fus": 5, "memory": 2},
                "knobs": {"passes": "default"}})

        status, body, _ = run_service(config_for(tmp_path), scenario)
        assert status == 200, body
        assert body["result"]["disambiguators"] == \
            analysis["disambiguators"]
        assert body["result"]["machine"] == analysis["machine"]


class TestQueueBound:
    def test_queue_full_is_structured_503(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_INJECT", "hang:block:1.5")

        async def scenario(service):
            first = asyncio.ensure_future(service.handle(
                "compile", {"source": SOURCE, "label": "block-1"}))
            await asyncio.sleep(0.05)  # let the leader claim the slot
            second = await service.handle(
                "compile", {"source": SOURCE, "label": "other",
                            "knobs": {"guard_words": 1}})
            return await first, second, dict(service.metrics.counters)

        first, second, counters = run_service(
            config_for(tmp_path, jobs=1, queue_limit=1), scenario)
        assert first[0] == 200
        assert second[0] == 503
        assert second[1]["error"]["code"] == "queue_full"
        assert counters["serve.rejected"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(jobs=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_limit=0)


class TestStatsBodies:
    def test_stats_and_health_shapes(self, tmp_path):
        async def scenario(service):
            await service.handle("compile", {"source": SOURCE})
            return service.stats_body(), service.health_body()

        stats, health = run_service(config_for(tmp_path), scenario)
        assert health == {"schema": "repro.serve/1", "endpoint": "health",
                          "status": "ok"}
        assert stats["schema"] == "repro.serve/1"
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == 0
        assert stats["metrics"]["counters"]["serve.requests"] == 1
        assert stats["store"]["entries"] >= 1

    def test_request_error_envelope(self, tmp_path):
        async def scenario(service):
            return await service.handle("compile", {"bogus": True})

        status, body, cache = run_service(config_for(tmp_path), scenario)
        assert status == 400 and cache == "error"
        assert body["error"]["code"] == "bad_request"

    def test_request_error_carries_status(self):
        error = RequestError("timeout", "too slow", status=504)
        assert error.status == 504 and error.code == "timeout"
