"""Stdlib-only asyncio HTTP/1.1 front end for the compile service.

A deliberately small server — request line + headers + Content-Length
body, keep-alive connections, JSON in / JSON out — because the service
owns all the interesting behaviour (:mod:`repro.serve.service`).  Routes:

=========================  ==================================================
``POST /v1/compile``        tinyc source → decision-tree IR + op count
``POST /v1/disambiguate``   source + kind + knobs → view stats (SpD counts)
``POST /v1/time``           source + kind + machine → VLIW cycle count
``POST /v1/hwtime``         source + kind + hw machine → hwsim cycles/squashes
``POST /v1/report``         source + machine → all-disambiguator cycle table
``GET  /v1/health``         liveness probe
``GET  /v1/stats``          ``serve.*`` metrics snapshot + store footprint
=========================  ==================================================

Response bodies are canonical JSON (sorted keys, compact separators),
so identical requests produce byte-identical bodies regardless of how
they were served; the cache disposition travels out of band in the
``X-Repro-Cache`` header (``hit`` / ``miss`` / ``dedup`` / ``error``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from .schemas import ENDPOINTS, encode_body, error_body
from .service import CompileService, ServeConfig

__all__ = ["MAX_BODY_BYTES", "ServeApp"]

#: Largest accepted request body.
MAX_BODY_BYTES = 4 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


class ServeApp:
    """The asyncio server wrapping one :class:`CompileService`."""

    def __init__(self, config: ServeConfig = ServeConfig()):
        self.config = config
        self.service = CompileService(config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind and start serving; return the actual port (useful when
        the configured port is 0 = ephemeral)."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive handlers are parked in readline(); cancel them
        # so no connection task outlives the loop that owns it.
        pending = [task for task in self._connections if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await self.service.stop()

    async def run_until(self, stop_event: asyncio.Event) -> int:
        """Start, wait for *stop_event*, then shut down cleanly."""
        port = await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()
        return port

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        # asyncio's 256 KiB reads can make glibc trim its heap per request
        writer.transport.max_size = 64 << 10
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, version, headers, body = request
                status, payload, cache = await self._route(method, target,
                                                           body)
                keep_alive = (version == b"HTTP/1.1"
                              and headers.get("connection", "") != "close"
                              and status not in (400, 408, 413))
                self._write_response(writer, status, payload, cache,
                                     keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down while the connection idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request as (method, target, version, headers, body), or
        ``None`` on a cleanly closed / malformed connection."""
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.strip().split()
        if len(parts) != 3:
            return None
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            return (method, target, version, headers, b"__TOO_LARGE__")
        body = await reader.readexactly(length) if length else b""
        return (method.decode("latin-1"), target.decode("latin-1"),
                version, headers, body)

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Dict[str, object], str]:
        target = target.split("?", 1)[0]
        if body == b"__TOO_LARGE__":
            return (413, error_body("request", "payload_too_large",
                                    f"request body exceeds "
                                    f"{MAX_BODY_BYTES} bytes"), "error")
        if target == "/v1/health" and method == "GET":
            return 200, self.service.health_body(), "none"
        if target == "/v1/stats" and method == "GET":
            return 200, self.service.stats_body(), "none"
        if not target.startswith("/v1/"):
            return (404, error_body("request", "unknown_endpoint",
                                    f"no such path {target!r}; endpoints "
                                    f"live under /v1/"), "error")
        endpoint = target[len("/v1/"):]
        if endpoint not in ENDPOINTS:
            return (404, error_body(endpoint, "unknown_endpoint",
                                    f"unknown endpoint {endpoint!r} "
                                    f"(known: {', '.join(ENDPOINTS)})"),
                    "error")
        if method != "POST":
            return (405, error_body(endpoint, "method_not_allowed",
                                    f"{endpoint} requires POST"), "error")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return (400, error_body(endpoint, "bad_json",
                                    f"request body is not valid JSON: "
                                    f"{error}"), "error")
        return await self.service.handle(endpoint, payload)

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        payload: Dict[str, object], cache: str,
                        keep_alive: bool) -> None:
        data = encode_body(payload)
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"X-Repro-Cache: {cache}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("latin-1") + data)
