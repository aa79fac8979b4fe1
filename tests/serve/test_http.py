"""End-to-end HTTP: every endpoint over a real socket, warm headers,
keep-alive, and the protocol-level error paths."""

import http.client
import json

SOURCE = ("int a[8];\n"
          "int main() { int i; for (i = 0; i < 8; i = i + 1) "
          "{ a[i] = i; } print(a[3]); return 0; }\n")


class TestEndpoints:
    def test_health(self, server):
        status, cache, data = server.request("GET", "/v1/health")
        assert status == 200 and cache == "none"
        assert json.loads(data)["status"] == "ok"

    def test_stats(self, server):
        status, _, data = server.request("GET", "/v1/stats")
        body = json.loads(data)
        assert status == 200
        assert body["schema"] == "repro.serve/1"
        assert "metrics" in body and "store" in body

    def test_compile(self, server):
        status, cache, data = server.post("compile", {"source": SOURCE})
        body = json.loads(data)
        assert status == 200 and cache == "miss"
        assert body["schema"] == "repro.serve/1"
        assert len(body["fingerprint"]) == 64
        assert body["result"]["ops"] > 0
        assert "tree" in body["result"]["ir"] or body["result"]["ir"]

    def test_disambiguate(self, server):
        status, _, data = server.post("disambiguate",
                                      {"source": SOURCE, "kind": "spec"})
        result = json.loads(data)["result"]
        assert status == 200
        assert result["kind"] == "spec"
        assert set(result["spd_counts"]) == {"raw", "war", "waw"}
        assert result["code_size"] > 0

    def test_time(self, server):
        status, _, data = server.post(
            "time", {"source": SOURCE, "kind": "naive",
                     "machine": {"fus": 5, "memory": 2}})
        result = json.loads(data)["result"]
        assert status == 200
        assert result["cycles"] > 0
        assert result["machine"]["num_fus"] == 5

    def test_hwtime(self, server):
        status, _, data = server.post(
            "hwtime", {"source": SOURCE, "hw": {"fus": 4, "window": 16}})
        result = json.loads(data)["result"]
        assert status == 200
        assert result["cycles"] > 0
        assert result["machine"]["window"] == 16
        assert isinstance(result["stats"], dict)

    def test_report(self, server):
        status, _, data = server.post("report", {"source": SOURCE})
        result = json.loads(data)["result"]
        assert status == 200
        table = result["disambiguators"]
        assert set(table) == {"naive", "static", "spec", "perfect"}
        assert table["naive"]["speedup_over_naive"] == 0.0
        assert "spd_counts" in table["spec"]
        assert result["ops"] > 0


class TestWarmHeader:
    def test_second_request_is_a_hit_with_identical_bytes(self, server):
        payload = {"source": SOURCE}
        status1, cache1, data1 = server.post("compile", payload)
        status2, cache2, data2 = server.post("compile", payload)
        assert (status1, cache1) == (200, "miss")
        assert (status2, cache2) == (200, "hit")
        assert data1 == data2

    def test_label_is_not_part_of_the_body(self, server):
        _, _, data1 = server.post("compile", {"source": SOURCE,
                                              "label": "alpha"})
        _, _, data2 = server.post("compile", {"source": SOURCE,
                                              "label": "beta"})
        assert data1 == data2


class TestProtocolErrors:
    def test_unknown_path_is_404(self, server):
        status, _, data = server.request("GET", "/nope")
        assert status == 404
        assert json.loads(data)["error"]["code"] == "unknown_endpoint"

    def test_unknown_endpoint_is_404(self, server):
        status, _, data = server.post("frobnicate", {"source": SOURCE})
        assert status == 404

    def test_get_on_compute_endpoint_is_405(self, server):
        status, _, data = server.request("GET", "/v1/compile")
        assert status == 405
        assert json.loads(data)["error"]["code"] == "method_not_allowed"

    def test_bad_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/compile", body=b"{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_json"

    def test_validation_error_is_400(self, server):
        status, cache, data = server.post("compile", {"bogus": 1})
        assert status == 400 and cache == "error"
        assert json.loads(data)["error"]["code"] == "bad_request"

    def test_compile_error_is_422(self, server):
        # '²' is a digit to str.isdigit() but not to int(): still a 422
        for source in ("int main() { return 0 }", "int main() { return 2²; }"):
            status, _, data = server.post("compile", {"source": source})
            assert status == 422
            assert json.loads(data)["error"]["code"] == "compile_error"


class TestKeepAlive:
    def test_two_requests_one_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            payload = json.dumps({"source": SOURCE}).encode()
            conn.request("POST", "/v1/compile", body=payload)
            first = conn.getresponse()
            first_data = first.read()
            assert first.status == 200
            # same connection, second round trip: must be a warm hit
            conn.request("POST", "/v1/compile", body=payload)
            second = conn.getresponse()
            second_data = second.read()
            assert second.status == 200
            assert second.getheader("X-Repro-Cache") == "hit"
            assert first_data == second_data
        finally:
            conn.close()


class TestCacheBudget:
    def test_budget_shrinks_the_store_not_the_bodies(self, server_factory):
        """Workers sweep a byte-budgeted store every 64 disk puts: the
        same misses leave fewer bytes on disk and identical bodies."""
        sources = [SOURCE.replace("a[i] = i;", f"a[i] = i + {k};")
                   for k in range(12)]

        def run(**overrides):
            server = server_factory(jobs=1, **overrides)
            bodies = []
            for source in sources:
                status, cache, data = server.post("report",
                                                  {"source": source})
                assert status == 200 and cache == "miss"
                bodies.append(data)
            _, _, stats = server.request("GET", "/v1/stats")
            return bodies, json.loads(stats)["store"]

        budgeted, budgeted_store = run(cache_budget_mb=0.001)
        unbudgeted, unbudgeted_store = run()
        assert budgeted == unbudgeted
        assert budgeted_store["budget_bytes"] == int(0.001 * 1024 * 1024)
        assert unbudgeted_store["budget_bytes"] is None
        assert budgeted_store["bytes"] < unbudgeted_store["bytes"]
