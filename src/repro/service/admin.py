"""The HTTP admin plane: scrape, inspect, and steer a running fleet.

A tiny hand-rolled HTTP/1.1 endpoint (stdlib asyncio only — no web
framework) bound next to the wire-protocol listener by ``serve(...,
admin_port=...)`` / ``--admin-port``.  It speaks to operators and
scrapers, not to monitoring clients, so it lives on its own socket and
never touches the op wire format:

- ``GET /metrics`` — Prometheus text exposition of the fleet registry
  (:func:`repro.service.metrics.render_prometheus`); on a sharded
  server this is the cross-generation aggregate over every worker.
- ``GET /stats`` — the same registry as JSON, histograms annotated
  with p50/p95/p99, plus session/shard headcounts (the ``top``
  dashboard's poll target).
- ``GET /sessions`` — the ``list`` op's view over HTTP.
- ``POST /migrate?session=s7&shard=2`` — checkpoint-based session
  migration (sharded servers only).
- ``POST /drain`` — graceful shutdown, same as the ``shutdown`` op.
- ``GET /watch?interval=0.5`` — server-sent events: one JSON delta of
  counters/gauges per interval until the client disconnects or the
  server drains.  The live push channel for dashboards that don't
  want to poll.

Every connection is single-request (``Connection: close``) — admin
traffic is low-rate and the no-keepalive contract keeps the loop
trivial.  Request bodies are ignored; arguments travel in the query
string.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import parse_qs

from repro.service import metrics as metricslib

__all__ = ["AdminServer", "http_get", "probe_admin"]

#: Reading a request (line + headers) may not stall the plane forever.
_REQUEST_TIMEOUT = 30.0

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


class AdminServer:
    """The admin endpoint wrapped around one monitoring server."""

    def __init__(self, server: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._http: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> tuple[str, int]:
        """Bind; returns the actual ``(host, port)``."""
        if self._http is not None:
            raise RuntimeError("admin server already started")
        self._http = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._http.sockets[0].getsockname()[1]
        return self.host, self.port

    async def aclose(self) -> None:
        """Stop listening and cancel open (watch) connections."""
        if self._http is not None:
            self._http.close()
        tasks = [t for t in self._connections if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._http is not None:
            await self._http.wait_closed()

    # ------------------------------------------------------------------ #
    # One connection = one request
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=_REQUEST_TIMEOUT
            )
            if not request:
                return
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                await self._send(writer, 400, {"error": "malformed request line"})
                return
            method, target = parts[0].upper(), parts[1]
            while True:  # drain headers; bodies are ignored by contract
                line = await asyncio.wait_for(
                    reader.readline(), timeout=_REQUEST_TIMEOUT
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            path, _, query = target.partition("?")
            params = parse_qs(query)
            await self._route(writer, method, path, params)
        except (
            asyncio.TimeoutError,
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # slow/vanished peer or server drain — nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        params: dict[str, list[str]],
    ) -> None:
        try:
            if method == "GET" and path == "/metrics":
                text = metricslib.render_prometheus(await self.server.metrics_fleet())
                await self._send_raw(
                    writer, 200, "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"),
                )
            elif method == "GET" and path == "/stats":
                await self._send(writer, 200, await self._stats())
            elif method == "GET" and path == "/sessions":
                await self._send(writer, 200, await self.server._op_list({}))
            elif method == "POST" and path == "/migrate":
                await self._migrate(writer, params)
            elif method == "POST" and path == "/drain":
                self.server.request_shutdown()
                await self._send(writer, 200, {"stopping": True})
            elif method == "GET" and path == "/watch":
                await self._watch(writer, params)
            else:
                await self._send(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (KeyError, ValueError) as exc:
            await self._send(
                writer, 400, {"error": str(exc), "error_type": type(exc).__name__}
            )
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            raise
        except Exception as exc:  # fail closed, never crash the plane
            await self._send(
                writer, 500, {"error": str(exc), "error_type": type(exc).__name__}
            )

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    async def _stats(self) -> dict[str, Any]:
        fleet = await self.server.metrics_fleet()
        out: dict[str, Any] = {
            "sessions": self._session_count(),
            "enabled": self.server.metrics.enabled,
            "metrics": metricslib.summarize(fleet),
        }
        shards = getattr(self.server, "num_shards", None)
        if shards is not None:
            out["shards"] = shards
        return out

    def _session_count(self) -> int:
        routes = getattr(self.server, "_routes", None)
        return len(routes) if routes is not None else len(self.server._slots)

    async def _migrate(
        self, writer: asyncio.StreamWriter, params: dict[str, list[str]]
    ) -> None:
        migrate = getattr(self.server, "migrate_session", None)
        if migrate is None:
            await self._send(
                writer, 400, {"error": "migrate needs a sharded server"}
            )
            return
        session = params.get("session", [None])[0]
        if not session:
            await self._send(
                writer, 400, {"error": "migrate needs ?session=<id>"}
            )
            return
        raw_shard = params.get("shard", [None])[0]
        target = int(raw_shard) if raw_shard is not None else None
        await self._send(writer, 200, await migrate(session, target))

    async def _watch(
        self, writer: asyncio.StreamWriter, params: dict[str, list[str]]
    ) -> None:
        """Stream counter/gauge deltas as server-sent events."""
        try:
            interval = float(params.get("interval", ["1.0"])[0])
        except ValueError:
            interval = 1.0
        interval = min(max(interval, 0.05), 60.0)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        seq = 0
        while not self.server._stop.is_set():
            fleet = await self.server.metrics_fleet()
            event = {
                "seq": seq,
                "sessions": self._session_count(),
                "counters": fleet["counters"],
                "gauges": fleet["gauges"],
            }
            writer.write(f"id: {seq}\ndata: {json.dumps(event)}\n\n".encode("utf-8"))
            await writer.drain()  # raises once the subscriber went away
            seq += 1
            await asyncio.sleep(interval)

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    async def _send(
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        await self._send_raw(writer, status, "application/json", body)

    @staticmethod
    async def _send_raw(
        writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


# ---------------------------------------------------------------------- #
# Client-side helpers (loadgen --admin-check, tests, the top dashboard's
# async twin) — raw HTTP over asyncio streams, no urllib in the loop.
# ---------------------------------------------------------------------- #
async def http_get(
    host: str, port: int, path: str
) -> tuple[int, dict[str, str], bytes]:
    """One blocking-free GET; returns ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


async def probe_admin(host: str, port: int) -> dict[str, Any]:
    """Exercise ``/metrics`` + ``/stats`` and lint the exposition.

    The shared health check behind ``loadgen --admin-check`` and the CI
    smoke: returns ``ok=True`` only when both endpoints answer 200 and
    the exposition passes :func:`repro.service.metrics.lint_exposition`.
    """
    status, headers, body = await http_get(host, port, "/metrics")
    problems = (
        metricslib.lint_exposition(body.decode("utf-8"))
        if status == 200
        else [f"/metrics answered HTTP {status}"]
    )
    s_status, _, s_body = await http_get(host, port, "/stats")
    stats = json.loads(s_body) if s_status == 200 else None
    if s_status != 200:
        problems.append(f"/stats answered HTTP {s_status}")
    return {
        "ok": not problems,
        "metrics_bytes": len(body),
        "content_type": headers.get("content-type", ""),
        "lint_problems": problems,
        "sessions": stats.get("sessions") if stats else None,
        "samples": sum(
            1 for line in body.decode("utf-8", "replace").splitlines()
            if line and not line.startswith("#")
        ),
    }
