"""Seeded load generator for a running ``repro serve`` instance.

``repro loadgen`` drives a warm server with a deterministic request
mix and reports what the acceptance gate cares about: error count,
client-observed cache disposition (the ``X-Repro-Cache`` header),
latency percentiles and the server-side ``serve.*`` counter deltas
over the measured window.  The result is the ``BENCH_serve.json``
payload (schema ``repro.bench_serve/1``).

Determinism: the request *shape pool* is a pure function of the seed
(:func:`build_shapes`), and each client's request sequence is drawn
from its own ``random.Random(f"{seed}:{client}")`` stream — so two
runs with the same seed issue exactly the same multiset of requests,
even though thread interleaving varies.  Responses are byte-identical
across runs because the server's bodies are canonical JSON keyed only
by content fingerprints.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.suite import SUITE
from ..disambig.pipeline import Disambiguator
from ..obs.metrics import nearest_rank

__all__ = ["BENCH_SCHEMA", "build_shapes", "run_loadgen"]

#: Version tag of the BENCH_serve.json payload.
BENCH_SCHEMA = "repro.bench_serve/1"

#: Benchmarks small enough that a cold compile stays interactive.
_BENCHMARKS = ("perm", "towers", "queen", "bubble", "intmm", "quick")

#: Endpoint draw weights: the cheap per-stage endpoints dominate, the
#: six-job ``report`` shows up but doesn't swamp a cold warmup.
_ENDPOINT_WEIGHTS = (("compile", 3), ("disambiguate", 4), ("time", 4),
                     ("hwtime", 2), ("report", 1))

#: Counters whose measured-window delta lands in the bench payload.
_DELTA_COUNTERS = ("serve.requests", "serve.errors", "serve.cache_hits",
                   "serve.cache_misses", "serve.dedup_hits",
                   "serve.executions", "serve.timeouts",
                   "serve.worker_crashes", "serve.rejected")


def build_shapes(seed: int, pool_size: int = 12,
                 endpoints: Optional[Sequence[str]] = None,
                 programs: Optional[Sequence[Tuple[str, str]]] = None
                 ) -> List[Tuple[str, Dict[str, object]]]:
    """The deterministic request pool: *pool_size* (endpoint, payload)
    pairs drawn from a seed-keyed RNG.

    *programs* overrides the built-in benchmark pool with explicit
    ``(name, source)`` pairs — ``repro loadgen --corpus`` passes corpus
    manifest entries here so serve-layer load tests exercise realistic
    program sizes instead of the six smallest paper kernels."""
    rng = random.Random(f"shapes:{seed}")
    weighted: List[str] = []
    for endpoint, weight in _ENDPOINT_WEIGHTS:
        if endpoints is None or endpoint in endpoints:
            weighted.extend([endpoint] * weight)
    if not weighted:
        raise ValueError("no endpoints selected")
    if programs is None:
        programs = [(name, SUITE[name].source) for name in _BENCHMARKS]
    elif not programs:
        raise ValueError("empty program pool")
    kinds = [kind.value for kind in Disambiguator]
    shapes: List[Tuple[str, Dict[str, object]]] = []
    for index in range(pool_size):
        endpoint = weighted[rng.randrange(len(weighted))]
        name, source = programs[rng.randrange(len(programs))]
        payload: Dict[str, object] = {
            "label": f"loadgen/{name}/{index}",
            "source": source,
        }
        if endpoint in ("disambiguate", "time", "hwtime"):
            payload["kind"] = kinds[rng.randrange(len(kinds))]
        if endpoint in ("time", "report"):
            payload["machine"] = {"fus": rng.choice([0, 5, 8]), "memory": 2}
        if endpoint == "hwtime":
            payload["hw"] = {"fus": 4, "window": rng.choice([16, 32])}
        shapes.append((endpoint, payload))
    return shapes


def _post(conn: http.client.HTTPConnection, endpoint: str,
          payload: Dict[str, object]) -> Tuple[int, str, bytes]:
    body = json.dumps(payload).encode("utf-8")
    conn.request("POST", f"/v1/{endpoint}", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return (response.status, response.getheader("X-Repro-Cache", "none"),
            data)


def _get_stats(host: str, port: int, timeout: float) -> Dict[str, object]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class _ClientResult:
    __slots__ = ("latencies_ms", "statuses", "cache_states", "errors")

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.statuses: Dict[int, int] = {}
        self.cache_states: Dict[str, int] = {}
        self.errors = 0


def _run_client(host: str, port: int, shapes, seed: int, client: int,
                count: int, timeout: float,
                result: _ClientResult) -> None:
    rng = random.Random(f"{seed}:{client}")
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        for _ in range(count):
            endpoint, payload = shapes[rng.randrange(len(shapes))]
            started = time.perf_counter()
            try:
                status, cache, _ = _post(conn, endpoint, payload)
            except (OSError, http.client.HTTPException):
                # reconnect once (server may close idle keep-alives)
                conn.close()
                conn = http.client.HTTPConnection(host, port,
                                                 timeout=timeout)
                try:
                    status, cache, _ = _post(conn, endpoint, payload)
                except (OSError, http.client.HTTPException):
                    result.errors += 1
                    continue
            elapsed_ms = (time.perf_counter() - started) * 1e3
            result.latencies_ms.append(elapsed_ms)
            result.statuses[status] = result.statuses.get(status, 0) + 1
            result.cache_states[cache] = result.cache_states.get(cache, 0) + 1
            if status >= 400:
                result.errors += 1
    finally:
        conn.close()


def run_loadgen(host: str, port: int, *, clients: int = 8,
                requests: int = 200, seed: int = 0, pool_size: int = 12,
                warmup: bool = True, timeout: float = 60.0,
                endpoints: Optional[Sequence[str]] = None,
                programs: Optional[Sequence[Tuple[str, str]]] = None,
                program_pool: str = "builtin") -> Dict[str, object]:
    """Drive the server at *host*:*port*; return the bench payload.

    *requests* is the total across all *clients*.  With ``warmup=True``
    every distinct shape is requested once (serially, generous timeout)
    before the measured window opens, so the measurement reflects a
    warm cache — the acceptance-gate configuration.  *programs* swaps
    the built-in benchmark pool for explicit ``(name, source)`` pairs
    (see :func:`build_shapes`); *program_pool* labels the pool in the
    payload's config block.
    """
    shapes = build_shapes(seed, pool_size, endpoints, programs)
    if warmup:
        conn = http.client.HTTPConnection(host, port,
                                          timeout=max(timeout, 300.0))
        try:
            for endpoint, payload in shapes:
                status, _, data = _post(conn, endpoint, payload)
                if status >= 400:
                    raise RuntimeError(
                        f"warmup request to /v1/{endpoint} failed "
                        f"({status}): {data.decode('utf-8', 'replace')}")
        finally:
            conn.close()

    stats_before = _get_stats(host, port, timeout)
    base = requests // clients
    extra = requests % clients
    results = [_ClientResult() for _ in range(clients)]
    threads = []
    started = time.perf_counter()
    for client in range(clients):
        count = base + (1 if client < extra else 0)
        thread = threading.Thread(
            target=_run_client,
            args=(host, port, shapes, seed, client, count, timeout,
                  results[client]),
            name=f"loadgen-{client}", daemon=True)
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - started
    stats_after = _get_stats(host, port, timeout)

    latencies = sorted(value for result in results
                       for value in result.latencies_ms)
    statuses: Dict[str, int] = {}
    cache_states: Dict[str, int] = {}
    errors = 0
    for result in results:
        errors += result.errors
        for status, count in result.statuses.items():
            statuses[str(status)] = statuses.get(str(status), 0) + count
        for state, count in result.cache_states.items():
            cache_states[state] = cache_states.get(state, 0) + count

    completed = len(latencies)
    # exact percentiles over every sample (a reservoir would estimate
    # them); all 0.0 when no request completed
    ordered = latencies or [0.0]
    warm = cache_states.get("hit", 0) + cache_states.get("dedup", 0)
    before = stats_before.get("metrics", {}).get("counters", {})
    after = stats_after.get("metrics", {}).get("counters", {})
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in _DELTA_COUNTERS}
    # server-side per-request service time on the warm path (what the
    # handler spent, excluding connection queueing on either side)
    histograms = stats_after.get("metrics", {}).get("histograms", {})
    server_hit = histograms.get("serve.latency_ms.hit", {})

    return {
        "schema": BENCH_SCHEMA,
        "config": {"host": host, "port": port, "clients": clients,
                   "requests": requests, "seed": seed,
                   "pool_size": pool_size, "warmup": warmup,
                   "program_pool": program_pool},
        "shapes": {
            "count": len(shapes),
            "endpoints": {endpoint: sum(1 for e, _ in shapes
                                        if e == endpoint)
                          for endpoint in sorted({e for e, _ in shapes})},
        },
        "results": {
            "requests": completed,
            "errors": errors,
            "status_counts": dict(sorted(statuses.items())),
            "cache": dict(sorted(cache_states.items())),
            "hit_rate": round(warm / completed, 6) if completed else 0.0,
            "latency_ms": {
                "p50": round(nearest_rank(ordered, 50), 3),
                "p95": round(nearest_rank(ordered, 95), 3),
                "p99": round(nearest_rank(ordered, 99), 3),
                "mean": (round(sum(latencies) / completed, 3)
                         if completed else 0.0),
                "max": round(ordered[-1], 3),
            },
            "server_latency_ms": {
                "hit_p50": server_hit.get("p50", 0.0),
                "hit_p95": server_hit.get("p95", 0.0),
                "hit_p99": server_hit.get("p99", 0.0),
                "hit_mean": server_hit.get("mean", 0.0),
                "hit_count": server_hit.get("count", 0),
            },
            "elapsed_s": round(elapsed_s, 3),
            "requests_per_s": (round(completed / elapsed_s, 1)
                               if elapsed_s > 0 else 0.0),
            "server_delta": delta,
        },
    }
