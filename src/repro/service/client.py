"""Client library for the monitoring service.

:class:`AsyncServiceClient` speaks either wire protocol over one TCP
connection.  A connection starts as v1 JSON lines; ``connect(...,
wire="v2")`` performs the ``hello`` negotiation of
:mod:`repro.service.wire` and switches to binary frames when the
server grants them (``wire="auto"``, the default, falls back to v1
against a pinned server instead of failing).

Requests on a connection are answered in order, which enables two
client shapes:

- **lockstep** — :meth:`~AsyncServiceClient.request` and the op
  wrappers send one message and await its response;
- **pipelined feeds** — :meth:`~AsyncServiceClient.feed_nowait` streams
  up to ``window`` feed frames before reading the oldest ack, and
  :meth:`~AsyncServiceClient.flush` is the explicit barrier that drains
  every outstanding ack (any op wrapper is an implicit barrier: it
  drains the pipeline before sending, so a ``query`` always observes
  every prior feed).  A failed pipelined feed surfaces at the next
  barrier as :class:`ServiceError`.

Concurrent load still uses one client per worker — see
:mod:`repro.service.loadgen`.  :class:`ServiceClient` wraps the async
client for synchronous callers (examples, benchmarks, notebooks) by
driving a private event loop.

Every error response raises :class:`ServiceError` carrying the server's
``error_type``, so callers can tell bad input (``AlgorithmParamError``,
``WireError``…) from server-side failures.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from typing import Any

import numpy as np

from repro.service import wire

__all__ = ["AsyncServiceClient", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An ``ok=false`` response from the server."""

    def __init__(self, message: str, error_type: str = "") -> None:
        super().__init__(message)
        self.error_type = error_type


#: Frames above this size are encoded/decoded off the event loop
#: (the client-side twin of the server's ``_INLINE_DECODE_BYTES``): a
#: near-cap v1 b64 batch is tens of MB, and serializing it inline would
#: stall every other coroutine sharing the loop — in particular the
#: shard supervisor, which re-encodes v1 feed batches for its worker
#: links through :func:`encode_v2_request`.
#: v2 framing is a memcpy, so only multi-MB payloads are worth the
#: executor round trip.
_INLINE_CODEC_BYTES = 64 * 1024
_INLINE_FRAME_BYTES = 4 * 1024 * 1024


def _payload_size_hint(fields: dict[str, Any]) -> tuple[int, bool]:
    """Rough request-payload ``(size, cheap_encode)`` without serializing.

    ``cheap_encode`` is True when the bulk field is already raw
    (ndarray / bytes): v2 framing is then a memcpy and big frames can
    encode inline.  Text forms (b64 dicts/strings, json lists — the
    v1→v2 re-encode path through the shard supervisor) cost a real
    decode + finiteness scan, so they keep the small v1 offload
    threshold.
    """
    values = fields.get("values")
    if isinstance(values, np.ndarray):
        return values.nbytes, True
    if isinstance(values, dict):
        b64 = values.get("b64")
        if isinstance(b64, str):
            return len(b64), False
    if isinstance(values, list):
        rows = len(values)
        cols = len(values[0]) if rows and isinstance(values[0], (list, tuple)) else 1
        return rows * cols * 8, False  # ~raw payload size after conversion
    state = fields.get("state")
    if isinstance(state, (bytes, bytearray)):
        return len(state), True
    if isinstance(state, str):
        return len(state), False
    return 0, True


async def encode_v2_request(message: dict[str, Any]) -> bytes:
    """One v2 request frame, encoded off the event loop when its bulk is big.

    Raw bulk (ndarray/bytes) frames as a memcpy, inline up to multi-MB;
    text bulk (b64/json, the v1→v2 re-encode path through the shard
    supervisor) pays a real decode + finiteness scan and keeps the small
    v1 offload threshold.  An encode failure raises before anything is
    written, so the caller's connection stays in sync.
    """
    size_hint, cheap_encode = _payload_size_hint(message)
    threshold = _INLINE_FRAME_BYTES if cheap_encode else _INLINE_CODEC_BYTES
    if size_hint > threshold:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, wire.encode_frame, message)
    return wire.encode_frame(message)


def _default_wire() -> str:
    return os.environ.get("REPRO_WIRE", "auto")


class AsyncServiceClient:
    """One connection to a :class:`~repro.service.server.MonitoringServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        window: int = 32,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()  # serialize request/response pairs
        self._next_id = 0
        #: Negotiated framing version (1 until a granted ``hello``).
        self.wire_version = wire.WIRE_V1
        if window < 1:
            raise ValueError(f"pipeline window must be >= 1, got {window}")
        self._window = window
        self._pending: deque[tuple[int, float]] = deque()  # (id, send time)
        self._pipeline_error: ServiceError | None = None
        #: Set ``record_latency = True`` to append each request's
        #: send→response-read seconds to :attr:`latencies` (loadgen's
        #: p50/p95/p99).  For pipelined feeds the clock stops when the
        #: ack is *read* (window-full or a barrier), so the figure is
        #: queue-inclusive client-observed latency, not server service
        #: time.
        self.record_latency = False
        self.latencies: list[float] = []

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        wire_protocol: str | None = None,
        window: int = 32,
    ) -> "AsyncServiceClient":
        """Open a connection and negotiate framing.

        ``wire_protocol``: ``"v1"`` (never negotiate), ``"v2"`` (require
        binary frames; :class:`ServiceError` if refused), or ``"auto"``
        (ask, fall back to v1 if the server is pinned).  ``None`` reads
        the ``REPRO_WIRE`` environment variable, defaulting to auto.
        """
        wire_protocol = wire_protocol or _default_wire()
        if wire_protocol not in ("v1", "v2", "auto"):
            raise ValueError(
                f"wire_protocol must be 'v1', 'v2' or 'auto', got {wire_protocol!r}"
            )
        reader, writer = await asyncio.open_connection(
            host, port, limit=wire.MAX_LINE_BYTES
        )
        wire.set_nodelay(writer)
        client = cls(reader, writer, window=window)
        if wire_protocol != "v1":
            try:
                granted = (await client.request("hello", wire=wire.WIRE_V2))["wire"]
            except ServiceError as exc:
                # A server predating the hello op answers "unknown op":
                # in auto mode that IS the negotiation result — stay on
                # JSON lines.  Strict v2 (and a dead connection) still
                # fails loudly.
                if wire_protocol == "v2" or exc.error_type == "ConnectionClosed":
                    await client.aclose()
                    raise
                granted = wire.WIRE_V1
            except BaseException:
                await client.aclose()
                raise
            if granted >= wire.WIRE_V2:
                client.wire_version = wire.WIRE_V2
            elif wire_protocol == "v2":
                await client.aclose()
                raise ServiceError(
                    f"server only grants wire v{granted}; connect with "
                    "wire_protocol='auto' (or 'v1') to fall back",
                    "WireError",
                )
        return client

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    async def _send(self, message: dict[str, Any]) -> None:
        """Encode one request per the negotiated framing and write it."""
        if self.wire_version == wire.WIRE_V2:
            encoded = await encode_v2_request(message)
        elif _payload_size_hint(message)[0] > _INLINE_CODEC_BYTES:
            loop = asyncio.get_running_loop()
            encoded = await loop.run_in_executor(None, wire.encode_v1_message, message)
        else:
            encoded = wire.encode_v1_message(message)
        self._writer.write(encoded)
        await self._writer.drain()

    async def _read_message(self) -> dict[str, Any]:
        """Read and decode one response per the negotiated framing."""
        loop = asyncio.get_running_loop()
        if self.wire_version == wire.WIRE_V2:
            try:
                frame = await wire.read_frame(self._reader)
            except asyncio.IncompleteReadError:
                frame = None
            except wire.WireError as exc:
                # Covers a server dying mid-header (truncation) as well
                # as a malformed response frame — both leave the stream
                # unusable, and callers are promised ServiceError.
                raise ServiceError(
                    f"server broke v2 framing: {exc}", "WireError"
                ) from exc
            if frame is None:
                raise ServiceError("connection closed by server", "ConnectionClosed")
            header, meta, payload = frame
            if header.payload_len > _INLINE_FRAME_BYTES:
                return await loop.run_in_executor(
                    None, wire.decode_frame, header, meta, payload
                )
            return wire.decode_frame(header, meta, payload)
        line = await self._reader.readline()
        if not line:
            raise ServiceError("connection closed by server", "ConnectionClosed")
        try:
            if len(line) > _INLINE_CODEC_BYTES:
                return await loop.run_in_executor(None, wire.decode_line, line)
            return wire.decode_line(line)
        except wire.WireError as exc:
            # Wrapped so that a raw WireError out of request() always
            # means a *client-side encode* failure with nothing written.
            raise ServiceError(
                f"server sent an invalid frame: {exc}", "WireError"
            ) from exc

    async def _read_ack(self) -> None:
        """Consume the oldest in-flight pipelined response."""
        request_id, sent = self._pending.popleft()
        response = await self._read_message()
        if self.record_latency:
            self.latencies.append(time.perf_counter() - sent)
        # Id first, ok second: an error reply with the wrong id (e.g. a
        # fatal-framing frame carrying id=0) is a desync, and must not
        # be silently attributed to the oldest pending feed.
        if response.get("id") != request_id:
            detail = ""
            if not response.get("ok") and response.get("error"):
                detail = f"; server reported: {response['error']}"
            raise ServiceError(
                f"response id {response.get('id')!r} does not match request "
                f"{request_id!r} (protocol desync){detail}",
                "WireError",
            )
        if not response.get("ok") and self._pipeline_error is None:
            self._pipeline_error = ServiceError(  # keep the first failure
                response.get("error", "unknown error"),
                response.get("error_type", ""),
            )

    def _raise_pipeline_error(self) -> None:
        if self._pipeline_error is not None:
            error, self._pipeline_error = self._pipeline_error, None
            raise error

    async def _drain_pending(self) -> None:
        while self._pending:
            await self._read_ack()

    async def flush(self) -> None:
        """Barrier: wait for every in-flight pipelined feed's ack.

        Raises the first queued :class:`ServiceError` (after draining),
        so a failed feed cannot be lost by later successes.
        """
        async with self._lock:
            await self._drain_pending()
            self._raise_pipeline_error()

    async def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one op and return the ``ok=true`` payload (or raise).

        An implicit pipeline barrier: outstanding pipelined feeds are
        drained first (their failures raise here, before the op is
        sent), so the response observes every previously queued feed.
        """
        async with self._lock:
            await self._drain_pending()
            self._raise_pipeline_error()
            self._next_id += 1
            request_id = self._next_id
            message = {"id": request_id, "op": op, **fields}
            sent = time.perf_counter()
            await self._send(message)
            response = await self._read_message()
        if self.record_latency:
            self.latencies.append(time.perf_counter() - sent)
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "unknown error"),
                response.get("error_type", ""),
            )
        if response.get("id") != request_id:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match request "
                f"{request_id!r} (protocol desync)",
                "WireError",
            )
        return response

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    async def ping(self) -> dict[str, Any]:
        return await self.request("ping")

    async def create_session(self, **spec: Any) -> str:
        """Create a session from :class:`~repro.service.session.SessionConfig` fields."""
        response = await self.request("create", spec=spec)
        return response["session"]

    def _wire_values(self, values: np.ndarray, encoding: str) -> Any:
        """A batch in the form the negotiated framing ships fastest."""
        if self.wire_version == wire.WIRE_V2:
            # encode_frame splits the raw array into the frame payload;
            # the v1 text encodings only exist for the line protocol.
            return np.asarray(values, dtype=np.float64)
        return wire.encode_values(values, encoding)

    async def feed(
        self, session: str, values: np.ndarray, *, encoding: str = "b64"
    ) -> dict[str, Any]:
        """Push one observation batch; returns ``{step, messages}``."""
        return await self.request(
            "feed", session=session, values=self._wire_values(values, encoding)
        )

    async def feed_nowait(
        self, session: str, values: np.ndarray, *, encoding: str = "b64"
    ) -> None:
        """Queue one observation batch without awaiting its ack.

        Up to ``window`` feeds ride the connection at once; when the
        window is full this awaits the oldest ack before sending.  Call
        :meth:`flush` (or any other op — an implicit barrier) to drain
        acks and surface any queued failure.
        """
        payload = self._wire_values(values, encoding)
        async with self._lock:
            while len(self._pending) >= self._window:
                await self._read_ack()
            self._raise_pipeline_error()
            self._next_id += 1
            message = {"id": self._next_id, "op": "feed",
                       "session": session, "values": payload}
            self._pending.append((self._next_id, time.perf_counter()))
            try:
                await self._send(message)
            except BaseException:
                # Encode failures (e.g. a misshapen batch) happen before
                # any bytes hit the wire: the entry must not stay
                # pending, or the next barrier would wait forever for an
                # ack the server will never send.
                self._pending.pop()
                raise

    async def advance(self, session: str, steps: int | None = None) -> dict[str, Any]:
        """Drive a workload-backed session forward by up to ``steps``."""
        return await self.request("advance", session=session, steps=steps)

    async def query(self, session: str) -> dict[str, Any]:
        """Current status: step, messages, output ``F(t)``, done flags."""
        return await self.request("query", session=session)

    async def cost(self, session: str) -> dict[str, Any]:
        """Cost snapshot totals plus the per-scope bill."""
        return await self.request("cost", session=session)

    async def snapshot(self, session: str) -> bytes:
        """Checkpoint the session; returns the binary blob."""
        response = await self.request("snapshot", session=session)
        return wire.decode_blob(response["state"])

    async def restore(self, blob: bytes) -> str:
        """Create a new session resuming from a checkpoint blob."""
        state: Any = blob if self.wire_version == wire.WIRE_V2 else wire.encode_blob(blob)
        response = await self.request("restore", state=state)
        return response["session"]

    async def migrate(self, session: str, shard: int | None = None) -> dict[str, Any]:
        """Move a session to another shard (sharded servers only).

        ``shard=None`` lets the supervisor pick the next shard; the
        session id stays valid across the move.
        """
        fields: dict[str, Any] = {"session": session}
        if shard is not None:
            fields["shard"] = shard
        return await self.request("migrate", **fields)

    async def finalize(self, session: str) -> dict[str, Any]:
        """Close the session and return its result summary."""
        response = await self.request("finalize", session=session)
        return response["result"]

    async def close_session(self, session: str) -> None:
        """Drop the session without a result."""
        await self.request("close", session=session)

    async def list_sessions(self) -> list[dict[str, Any]]:
        return (await self.request("list"))["sessions"]

    async def metrics(self, enabled: bool | None = None) -> dict[str, Any]:
        """Scrape the server's metrics registry (fleet-wide on shards).

        ``enabled`` toggles the optional telemetry first; the toggle is
        observably invisible to session results.  With no
        argument this is a pure read.
        """
        fields = {} if enabled is None else {"enabled": enabled}
        return await self.request("metrics", **fields)

    async def durability(self, enabled: bool | None = None) -> dict[str, Any]:
        """Toggle or inspect WAL appends (fleet-wide on shards).

        Durability is on by default when the server was started with a
        WAL directory and cannot be enabled without one.  Re-enabling
        forces an immediate full checkpoint so the log restarts from a
        consistent base.  With no argument this is a pure read; the
        reply reports ``enabled`` and whether a WAL is configured.
        """
        fields = {} if enabled is None else {"enabled": enabled}
        return await self.request("durability", **fields)

    async def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop (it answers, then exits its serve loop)."""
        return await self.request("shutdown")


class ServiceClient:
    """Synchronous facade over :class:`AsyncServiceClient`.

    Owns a private event loop; not thread-safe.  Use as a context
    manager so the connection and loop are released deterministically.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        wire_protocol: str | None = None,
        window: int = 32,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._loop.run_until_complete(
                AsyncServiceClient.connect(
                    host, port, wire_protocol=wire_protocol, window=window
                )
            )
        except BaseException:
            self._loop.close()
            raise

    @property
    def wire_version(self) -> int:
        """The negotiated framing version (1 = JSON lines, 2 = binary)."""
        return self._client.wire_version

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._loop.run_until_complete(self._client.aclose())
        self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, coro):
        return self._loop.run_until_complete(coro)

    # One sync wrapper per op; signatures mirror AsyncServiceClient.
    def ping(self) -> dict[str, Any]:
        return self._call(self._client.ping())

    def create_session(self, **spec: Any) -> str:
        return self._call(self._client.create_session(**spec))

    def feed(self, session: str, values: np.ndarray, *, encoding: str = "b64") -> dict[str, Any]:
        return self._call(self._client.feed(session, values, encoding=encoding))

    def feed_nowait(self, session: str, values: np.ndarray, *, encoding: str = "b64") -> None:
        self._call(self._client.feed_nowait(session, values, encoding=encoding))

    def flush(self) -> None:
        self._call(self._client.flush())

    def advance(self, session: str, steps: int | None = None) -> dict[str, Any]:
        return self._call(self._client.advance(session, steps))

    def query(self, session: str) -> dict[str, Any]:
        return self._call(self._client.query(session))

    def cost(self, session: str) -> dict[str, Any]:
        return self._call(self._client.cost(session))

    def snapshot(self, session: str) -> bytes:
        return self._call(self._client.snapshot(session))

    def restore(self, blob: bytes) -> str:
        return self._call(self._client.restore(blob))

    def migrate(self, session: str, shard: int | None = None) -> dict[str, Any]:
        return self._call(self._client.migrate(session, shard))

    def finalize(self, session: str) -> dict[str, Any]:
        return self._call(self._client.finalize(session))

    def close_session(self, session: str) -> None:
        self._call(self._client.close_session(session))

    def list_sessions(self) -> list[dict[str, Any]]:
        return self._call(self._client.list_sessions())

    def metrics(self, enabled: bool | None = None) -> dict[str, Any]:
        return self._call(self._client.metrics(enabled))

    def durability(self, enabled: bool | None = None) -> dict[str, Any]:
        return self._call(self._client.durability(enabled))

    def shutdown(self) -> dict[str, Any]:
        return self._call(self._client.shutdown())
