"""The asyncio monitoring server: many sessions, one process.

:class:`MonitoringServer` hosts concurrent :class:`~repro.service.
session.Session` objects behind the TCP protocols of
:mod:`repro.service.wire` — every connection starts as JSON lines (v1)
and may upgrade to binary frames (v2) through the ``hello`` op.
Design points:

- **Batched ingestion** — clients feed ``(B, n)`` blocks, so the
  per-message protocol overhead amortizes over B time steps.
- **Feeds on the event loop** — a ``feed`` runs ``Session.feed``
  directly on the loop under its session's :class:`asyncio.Lock`: an
  executor hand-off costs CPU comparable to the engine's work on a
  quiet frame.  So a frame holds the whole process for its service
  time; tenants that need isolation from each other go to separate
  shards.  Ops whose work is not bounded by a frame — ``create``,
  ``restore``, ``snapshot``, ``finalize``, ``advance`` — and the
  decode of big v1 payloads still run in the default thread-pool
  executor.  The per-session lock serializes mutations of one session
  (two clients feeding the same session interleave at block
  granularity, never mid-step).
- **Small-op fast path** — cheap ops (:data:`MonitoringServer.
  INLINE_OPS`) are served entirely on the event loop: no executor
  round trip, no off-loop codec, just a dict and a write.
- **Fail-closed error envelope** — any exception inside an op turns
  into an ``ok=false`` response carrying the exception type and
  message; the connection (and every other session) lives on.  A v2
  *framing* violation (bad magic/version/length) is the one fatal
  case: the stream cannot be resynchronized, so the server answers
  once and closes that connection.
- **Optional durability** — with a WAL directory configured, every
  acknowledged state-changing op is appended to the write-ahead log of
  :mod:`repro.service.wal` *before* its ack leaves the process, and
  periodic checkpoints truncate the log; a restarted process replays
  checkpoint + tail in ``__init__`` and resumes with bit-identical
  session state (the recovery replay law).

Op vocabulary (see docs/WIRE.md for the code table and
docs/ARCHITECTURE.md for the full schema):

``hello``, ``ping``, ``create``, ``feed``, ``advance``, ``query``,
``cost``, ``snapshot``, ``restore``, ``finalize``, ``close``,
``list``, ``shutdown``, ``metrics``, ``durability``.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.service import metrics as metricslib
from repro.service import ops, wire
from repro.service import wal as wallib
from repro.service.session import Session, session_from_wire

__all__ = ["MonitoringServer", "serve"]


class _SessionSlot:
    """A hosted session plus its ingestion lock."""

    __slots__ = ("session", "lock")

    def __init__(self, session: Session) -> None:
        self.session = session
        self.lock = asyncio.Lock()


class MonitoringServer:
    """Session host + TCP front end.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for a free port; the
        actual one is in :attr:`port` after :meth:`start`.
    max_sessions:
        Upper bound on concurrently hosted sessions; ``create`` beyond
        it fails with an error response (protecting the process from
        unbounded per-session state).
    accept_wire:
        Highest framing version ``hello`` may grant (default
        :data:`wire.WIRE_V2`).  ``accept_wire=1`` pins the server to
        JSON lines: upgrade requests are answered with ``wire: 1`` and
        well-behaved clients fall back.
    wal_dir:
        Directory for the write-ahead log (``None`` = no durability).
        Construction *recovers* first: the newest checkpoint manifest is
        restored and the log tail replayed, so a respawned process picks
        up exactly where the killed one was acknowledged to be.
    wal_fsync:
        Also ``fsync`` every append and manifest write — extends the
        guarantee from process death to machine crash, at a per-op
        latency cost (tracked by ``repro_wal_fsync_seconds``).
    wal_checkpoint_bytes:
        Rotate + checkpoint once this many bytes accumulate in the live
        segment (bounds disk footprint and replay time).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 1024,
        accept_wire: int = wire.WIRE_V2,
        wal_dir: str | Path | None = None,
        wal_fsync: bool = False,
        wal_checkpoint_bytes: int = wallib.DEFAULT_CHECKPOINT_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.max_sessions = int(max_sessions)
        if accept_wire not in (wire.WIRE_V1, wire.WIRE_V2):
            raise ValueError(f"accept_wire must be 1 or 2, got {accept_wire}")
        self.accept_wire = accept_wire
        self._slots: dict[str, _SessionSlot] = {}
        self._next_id = 0
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        #: The ops-plane registry (admin endpoint, ``metrics`` op).  Its
        #: ``enabled`` flag gates only the optional telemetry — per-op
        #: latency histograms, ring series — never the core counters.
        self.metrics = metricslib.MetricsRegistry()
        self._c_connections = self.metrics.counter("repro_connections_total")
        self._c_requests = self.metrics.counter("repro_requests_total")
        self._c_steps = self.metrics.counter("repro_steps_ingested_total")
        #: Totals for ``ping`` and the shutdown log line — a live view
        #: over the registry counters, keyed by the legacy names so the
        #: reply shapes (and the shard supervisor's in-place mutations)
        #: are unchanged.
        self.stats = metricslib.StatsView({
            "connections": self._c_connections,
            "requests": self._c_requests,
            "steps_ingested": self._c_steps,
        })
        #: Lazily built per-op ``(counter, histogram)`` pairs (dispatch).
        self._per_op: dict[str, tuple[metricslib.Counter, metricslib.Histogram]] = {}
        self._g_inflight = self.metrics.gauge("repro_executor_inflight")
        self.metrics.register_gauge_fn("repro_sessions", lambda: len(self._slots))
        self._ingest_series = self.metrics.series("repro_steps_ingested_series")
        #: Durability plane.  ``durability`` (runtime-toggled by the op
        #: of the same name) gates *appending*; the WAL object itself
        #: exists iff a directory was configured.
        self._wal: wallib.WriteAheadLog | None = None
        self.durability = False
        self._checkpoint_task: asyncio.Task | None = None
        if wal_dir is not None:
            self._c_recovered = self.metrics.counter(
                "repro_wal_recovered_sessions_total"
            )
            self._c_replayed = self.metrics.counter(
                "repro_wal_replayed_records_total"
            )
            self._wal = wallib.WriteAheadLog(
                wal_dir,
                fsync=wal_fsync,
                checkpoint_bytes=wal_checkpoint_bytes,
                metrics=self.metrics,
            )
            self.metrics.register_gauge_fn(
                "repro_wal_segment_bytes",
                lambda: self._wal.bytes_since_checkpoint if self._wal else 0,
            )
            self.durability = True
            self._recover_from_wal()

    # ------------------------------------------------------------------ #
    # Durability: recovery, logging, checkpointing
    # ------------------------------------------------------------------ #
    def _recover_from_wal(self) -> None:
        """Restore checkpoint + replay the log tail (runs in __init__,
        before any connection can be accepted)."""
        assert self._wal is not None
        state = self._wal.recover()
        for sid, blob in state.sessions.items():
            self._slots[sid] = _SessionSlot(Session.restore(blob))
            self._bump_next_id(sid)
        self._next_id = max(self._next_id, state.next_id)
        for record in state.records:
            self._replay_record(record)
        if self._slots or state.records:
            self._c_recovered.inc(len(self._slots))
            self._c_replayed.inc(len(state.records))

    def _bump_next_id(self, sid: str) -> None:
        if sid.startswith("s") and sid[1:].isdigit():
            self._next_id = max(self._next_id, int(sid[1:]))

    def _replay_record(self, record: dict[str, Any]) -> None:
        """Apply one recovered WAL record, idempotently.

        Feed/advance records carry the session's *post-op* step; a
        record at or below the restored step was already inside the
        checkpoint snapshot (the rotate-then-snapshot window) and is
        skipped.  Create/restore records whose sid is already live are
        likewise snapshot-covered.
        """
        op = record.get("op")
        sid = record.get("session")
        if op in ("create", "restore"):
            if sid in self._slots:
                return
            if op == "create":
                session = session_from_wire(dict(record["spec"]))
            else:
                session = Session.restore(wire.decode_blob(record["state"]))
            self._slots[sid] = _SessionSlot(session)
            self._bump_next_id(sid)
            return
        if op in ("finalize", "close"):
            self._slots.pop(sid, None)
            return
        slot = self._slots.get(sid)
        if slot is None:
            return
        target = record.get("step")
        if not isinstance(target, int) or slot.session.step >= target:
            return
        if op == "feed":
            slot.session.feed(wire.decode_values(record["values"]))
        elif op == "advance":
            slot.session.advance(record.get("steps"))

    def _wal_append(self, message: dict[str, Any]) -> None:
        """Durably record one acknowledged op (called before the ack is
        written, inside the slot lock for session-addressed ops).  An
        append failure (e.g. full disk) propagates and turns the op into
        an error response — the ack must never outrun the log."""
        if self._wal is None or not self.durability:
            return
        self._wal.append(message)
        if self._wal.should_checkpoint() and (
            self._checkpoint_task is None or self._checkpoint_task.done()
        ):
            self._checkpoint_task = asyncio.create_task(self._wal_checkpoint())

    async def _wal_checkpoint(self) -> None:
        """One checkpoint cycle: rotate, snapshot every session under
        its lock, publish the manifest, prune.  Sessions unchanged since
        the previous manifest reuse their blob files (the delta scheme).
        Serving continues throughout — appends land in the rotated
        (retained) segment, which replay covers."""
        wal = self._wal
        if wal is None:
            return
        try:
            segment = wal.begin_checkpoint()
            previous = wal.manifest_steps()
            entries: dict[str, tuple[int, bytes | None]] = {}
            for sid, slot in list(self._slots.items()):
                async with slot.lock:
                    if self._slots.get(sid) is not slot:
                        continue  # finalized/closed while we waited
                    step = slot.session.step
                    if previous.get(sid) == step:
                        entries[sid] = (step, None)
                    else:
                        entries[sid] = (step, slot.session.snapshot())
            wal.commit_checkpoint(segment, entries, self._next_id)
        except Exception:
            # The log keeps growing but stays correct; the next append
            # retries.  Surfaced as a counter, not a crash.
            self.metrics.counter("repro_wal_checkpoint_failures_total").inc()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=wire.MAX_LINE_BYTES
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._stop.wait()
        self._server.close()
        # Cancel parked connection readers BEFORE wait_closed(): since
        # Python 3.12.1 wait_closed blocks until every handler finishes,
        # so an idle connection would otherwise hang the shutdown.
        await self._drain_connections()
        await self._server.wait_closed()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit after in-flight responses."""
        self._stop.set()

    async def aclose(self) -> None:
        """Stop accepting and drop all sessions (tests / embedding)."""
        self.request_shutdown()
        if self._server is not None:
            self._server.close()
        await self._drain_connections()
        if self._server is not None:
            await self._server.wait_closed()
        self._slots.clear()
        if self._wal is not None:
            self._wal.close()

    async def _drain_connections(self) -> None:
        """Cancel and reap open connection handlers (idle readers hang forever)."""
        tasks = [t for t in self._connections if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        wire.set_nodelay(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            upgraded = await self._serve_v1(reader, writer)
            if upgraded:
                await self._serve_v2(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-response; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled us — exit quietly, closing below
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve_v1(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """The JSON-lines loop every connection starts in.

        Returns ``True`` when a granted ``hello`` upgrade hands the
        (still open) connection to the v2 loop.
        """
        while not self._stop.is_set():
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(wire.encode_line({
                    "id": None, "ok": False,
                    "error": f"frame exceeds {wire.MAX_LINE_BYTES} bytes",
                    "error_type": "WireError",
                }))
                await writer.drain()
                break
            if not line:
                break  # peer closed
            response = await self._respond(line)
            # A snapshot response carries a multi-MB state blob; base64
            # it and serialize off the loop like the inbound decode path.
            state = response.get("state")
            if (
                isinstance(state, (str, bytes))
                and len(state) > self._INLINE_DECODE_BYTES
            ):
                encoded = await self._run_sync(wire.encode_v1_message, response)
            else:
                encoded = wire.encode_v1_message(response)
            writer.write(encoded)
            await writer.drain()
            # Only _op_hello emits a "wire" field: a granted v2 upgrade
            # switches this connection to binary frames from here on.
            if response.get("ok") and response.get("wire") == wire.WIRE_V2:
                return True
        return False

    async def _serve_v2(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The binary-frame loop an upgraded connection runs in."""
        while not self._stop.is_set():
            try:
                frame = await wire.read_frame(reader)
            except wire.WireError as exc:
                # Framing is broken — answer once, then close: there is
                # no way to find the next frame boundary, and leaving
                # the connection open would hang the peer instead.
                writer.write(wire.encode_error_frame(0, exc))
                await writer.drain()
                break
            except asyncio.IncompleteReadError:
                break  # peer died mid-frame
            if frame is None:
                break  # peer closed
            writer.write(await self._respond_v2(frame))
            await writer.drain()

    #: Frames above this size are JSON-decoded off the event loop.
    _INLINE_DECODE_BYTES = 64 * 1024

    #: v2 payloads above this size are content-decoded off the event
    #: loop (the decode itself is a zero-copy ``frombuffer``; the cost
    #: is the one vectorized finiteness pass over the payload).
    _INLINE_PAYLOAD_BYTES = 4 * 1024 * 1024

    #: Ops cheap enough to serve entirely on the event loop: no
    #: executor round trip, no off-loop codec.  ``feed`` also runs its
    #: session work on the loop but decodes big v1 payloads off it;
    #: advance / snapshot / restore / create / finalize go through
    #: :meth:`_run_sync`.  This set is a
    #: *documented, tested contract*, not a dispatch switch: nothing
    #: branches on it at runtime — the handlers themselves simply never
    #: touch the executor, and tests/service/test_server.py's fast-path
    #: test fails if one of the listed ops starts doing so.  Derived
    #: from the shared op registry so server and fuzzer cannot drift.
    INLINE_OPS = ops.inline_ops()

    async def _respond(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            if len(line) > self._INLINE_DECODE_BYTES:
                message = await self._run_sync(wire.decode_line, line)
            else:
                message = wire.decode_line(line)
            request_id = message.get("id")
            payload = await self._dispatch(message)
            return {"id": request_id, "ok": True, **payload}
        except Exception as exc:  # every failure becomes a protocol error
            # A forwarded error (sharded serving) already carries the
            # worker-side error_type; preserve it so clients see the same
            # type regardless of how many processes served them.
            return {
                "id": request_id,
                "ok": False,
                "error": str(exc) or type(exc).__name__,
                "error_type": getattr(exc, "error_type", "") or type(exc).__name__,
            }

    async def _respond_v2(
        self, frame: tuple[wire.FrameHeader, bytes, bytes]
    ) -> bytes:
        """One decoded-and-dispatched v2 frame; always returns a frame."""
        header, meta, payload = frame
        request_id = header.request_id
        try:
            if header.payload_len > self._INLINE_PAYLOAD_BYTES:
                message = await self._run_sync(wire.decode_frame, header, meta, payload)
            else:
                message = wire.decode_frame(header, meta, payload)
            result = await self._dispatch(message)
            response = {"id": request_id, "ok": True, **result}
            state = response.get("state")
            if (
                isinstance(state, (bytes, bytearray))
                and len(state) > self._INLINE_PAYLOAD_BYTES
            ):
                return await self._run_sync(_encode_response_frame, response)
            return wire.encode_frame(response, response=True)
        except Exception as exc:
            return wire.encode_error_frame(request_id, exc)

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        """Route one decoded message to its op handler (either protocol)."""
        op = message.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            raise wire.WireError(
                f"unknown op {op!r}; valid: {', '.join(self._OPS)}"
            )
        self._c_requests.inc()
        if not self.metrics.enabled:
            return await handler(self, message)
        pair = self._per_op.get(op)
        if pair is None:
            pair = self._per_op[op] = (
                self.metrics.counter("repro_op_requests_total", op=op),
                self.metrics.histogram("repro_op_latency_seconds", op=op),
            )
        pair[0].inc()
        start = time.perf_counter()
        try:
            return await handler(self, message)
        finally:
            pair[1].observe(time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Session bookkeeping
    # ------------------------------------------------------------------ #
    def _admit(self, session: Session) -> str:
        if len(self._slots) >= self.max_sessions:
            raise RuntimeError(
                f"session limit reached ({self.max_sessions}); finalize or "
                "close sessions before creating more"
            )
        self._next_id += 1
        sid = f"s{self._next_id}"
        self._slots[sid] = _SessionSlot(session)
        return sid

    def _slot(self, message: dict[str, Any]) -> tuple[str, _SessionSlot]:
        sid = message.get("session")
        slot = self._slots.get(sid)
        if slot is None:
            raise KeyError(f"no such session {sid!r}")
        return sid, slot

    async def _run_sync(self, fn, *args):
        """Run CPU-bound session work off the event loop."""
        self._g_inflight.inc()
        try:
            return await asyncio.get_running_loop().run_in_executor(None, fn, *args)
        finally:
            self._g_inflight.dec()

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    async def _op_hello(self, message: dict[str, Any]) -> dict[str, Any]:
        """Framing negotiation: grant the best wire version both sides
        speak.  Granting 2 switches this connection to binary frames
        right after the response line (see :meth:`_serve_v1`)."""
        requested = message.get("wire", wire.WIRE_V1)
        if not isinstance(requested, int) or requested < 1:
            raise wire.WireError(f"hello wire must be a positive int, got {requested!r}")
        return {
            "wire": min(requested, self.accept_wire),
            "version": wire.PROTOCOL_VERSION,
        }

    async def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return {
            "pong": True,
            "version": wire.PROTOCOL_VERSION,
            "accept_wire": self.accept_wire,
            "sessions": len(self._slots),
            "stats": dict(self.stats),
        }

    async def _op_create(self, message: dict[str, Any]) -> dict[str, Any]:
        spec = message.get("spec")
        if not isinstance(spec, dict):
            raise wire.WireError("create needs a 'spec' object")
        session = await self._run_sync(session_from_wire, spec)
        sid = self._admit(session)
        self._wal_append({"op": "create", "session": sid, "spec": spec})
        return {"session": sid, "step": session.step}

    async def _op_feed(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        payload = message.get("values")
        session = slot.session
        async with slot.lock:
            block = await self._decoded_block(payload)
            # The wire already validated shape and finiteness; the one
            # check it cannot do is block width vs this session's n, and
            # the engine's revalidation is skipped exactly when it passed.
            step = session.feed(block, prevalidated=block.shape[1] == session.config.n)
            messages = session.messages
            # Logged inside the lock so the post-op step pairs with this
            # exact block — the replay idempotence key.
            self._wal_append(
                {"op": "feed", "session": sid, "values": block, "step": step}
            )
        self._c_steps.inc(block.shape[0])
        if self.metrics.enabled:
            self._session_telemetry(sid, session, step, messages)
        return {"session": sid, "step": step, "messages": messages}

    def _session_telemetry(
        self, sid: str, session: Session, step: int, messages: int
    ) -> None:
        """Ring-series points after an ingest: the dashboard's food.

        Cumulative message cost and F(t) output-change count per
        session (the paper's cost trajectory, live), plus the fleet
        steps-ingested curve.  Read outside the slot lock — telemetry
        must never extend the serial section.
        """
        self.metrics.series("repro_session_cost", session=sid).append(step, messages)
        self.metrics.series("repro_session_fchanges", session=sid).append(
            step, session.engine.output_changes_so_far()
        )
        self._ingest_series.append(time.monotonic(), self._c_steps.value)

    async def _decoded_block(self, payload: Any) -> np.ndarray:
        """Decode a feed payload to a ``(B, n)`` block, off-loop when big.

        A v2 frame arrives pre-decoded (zero-copy pass-through); a
        near-cap v1 b64 batch is tens of MB and would stall every other
        connection if decoded on the event loop.
        """
        if isinstance(payload, np.ndarray):
            return wire.decode_values(payload)
        if isinstance(payload, dict):
            size = len(payload.get("b64") or ())
        elif isinstance(payload, list) and payload and isinstance(payload[0], (list, tuple)):
            size = len(payload) * len(payload[0]) * 8
        else:
            size = 0
        if size > self._INLINE_DECODE_BYTES:
            return await self._run_sync(wire.decode_values, payload)
        return wire.decode_values(payload)

    async def _op_advance(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        steps = message.get("steps")
        if steps is not None and not isinstance(steps, int):
            raise wire.WireError(f"advance steps must be an int, got {steps!r}")
        session = slot.session
        async with slot.lock:
            before = session.step
            step = await self._run_sync(session.advance, steps)
            messages, done = session.messages, session.done
            self._wal_append(
                {"op": "advance", "session": sid, "steps": steps, "step": step}
            )
        self._c_steps.inc(step - before)
        if self.metrics.enabled:
            self._session_telemetry(sid, session, step, messages)
        return {"session": sid, "step": step, "messages": messages, "done": done}

    async def _op_query(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        async with slot.lock:  # a concurrent feed mutates mid-status otherwise
            return {"session": sid, **slot.session.status()}

    async def _op_cost(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        async with slot.lock:
            snap = slot.session.cost()
            by_scope = slot.session.bill()
        return {
            "session": sid,
            "messages": snap.messages,
            "node_to_server": snap.node_to_server,
            "server_to_node": snap.server_to_node,
            "broadcasts": snap.broadcasts,
            "rounds": snap.rounds,
            "broadcast_cost": snap.broadcast_cost,
            "by_scope": by_scope,
        }

    async def _op_snapshot(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        session = slot.session

        def checkpoint() -> tuple[int, bytes]:
            # Raw bytes: a v2 response carries them as the frame payload
            # unchanged; the v1 edge base64-encodes on serialization.
            return session.step, session.snapshot()

        async with slot.lock:  # step captured with the blob, not after
            step, state = await self._run_sync(checkpoint)
        return {"session": sid, "step": step, "state": state}

    async def _op_restore(self, message: dict[str, Any]) -> dict[str, Any]:
        state = message.get("state")
        if not isinstance(state, (str, bytes, bytearray)):
            raise wire.WireError(
                "restore needs a 'state' checkpoint (base64 text or raw blob frame)"
            )

        def rebuild() -> Session:
            return Session.restore(wire.decode_blob(state))

        session = await self._run_sync(rebuild)
        sid = self._admit(session)
        self._wal_append({"op": "restore", "session": sid, "state": state})
        return {"session": sid, "step": session.step}

    async def _op_finalize(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, slot = self._slot(message)
        async with slot.lock:
            result = await self._run_sync(slot.session.finalize)
        del self._slots[sid]
        self._drop_session_series(sid)
        self._wal_append({"op": "finalize", "session": sid})
        return {
            "session": sid,
            "result": {
                "algorithm": result.algorithm_name,
                "num_steps": result.num_steps,
                "n": result.n,
                "k": result.k,
                "messages": result.messages,
                "output_changes": result.output_changes,
                "max_rounds_per_step": result.ledger.max_rounds_per_step,
                "by_scope": result.ledger.by_scope(),
            },
        }

    async def _op_close(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, _slot = self._slot(message)
        del self._slots[sid]
        self._drop_session_series(sid)
        self._wal_append({"op": "close", "session": sid})
        return {"session": sid, "closed": True}

    def _drop_session_series(self, sid: str) -> None:
        """Session gone — its ring series must not leak registry slots."""
        self.metrics.drop_series("repro_session_cost", session=sid)
        self.metrics.drop_series("repro_session_fchanges", session=sid)

    async def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        """Read (and optionally toggle) the ops-plane telemetry.

        With no ``enabled`` field this is a pure scrape.  The toggle is
        observably transparent — instruments never touch session state —
        which the stateful fuzz tier checks differentially.
        """
        enabled = message.get("enabled")
        if enabled is not None and not isinstance(enabled, bool):
            raise wire.WireError(f"metrics enabled must be a bool, got {enabled!r}")
        if enabled is not None:
            self.metrics.enabled = enabled
        return {"enabled": self.metrics.enabled, "metrics": await self.metrics_fleet()}

    async def _op_durability(self, message: dict[str, Any]) -> dict[str, Any]:
        """Read (and optionally toggle) WAL appending at runtime.

        With no ``enabled`` field this is a pure read.  Enabling
        requires a configured WAL directory; *re*-enabling forces an
        immediate full checkpoint so the log is consistent from this
        op onward (feeds served while durability was off are not in the
        log — only the fresh snapshot covers them).
        """
        enabled = message.get("enabled")
        if enabled is not None and not isinstance(enabled, bool):
            raise wire.WireError(
                f"durability enabled must be a bool, got {enabled!r}"
            )
        if enabled is not None:
            if self._wal is None:
                if enabled:
                    raise RuntimeError(
                        "durability needs a WAL directory (serve --wal-dir)"
                    )
            else:
                was, self.durability = self.durability, enabled
                if enabled and not was:
                    await self._wal_checkpoint()
        return {"enabled": self.durability, "wal": self._wal is not None}

    def metrics_dump(self) -> dict[str, Any]:
        """This process's registry snapshot (JSON-ready)."""
        return self.metrics.dump()

    async def metrics_fleet(self) -> dict[str, Any]:
        """The fleet-wide dump — just the local one here; the shard
        supervisor overrides this to merge worker registries."""
        return self.metrics_dump()

    async def _op_list(self, message: dict[str, Any]) -> dict[str, Any]:
        sessions = []
        for sid, slot in list(self._slots.items()):
            async with slot.lock:
                sessions.append({"session": sid, **slot.session.status()})
        return {"sessions": sessions}

    async def _op_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        self.request_shutdown()
        return {"stopping": True, "stats": dict(self.stats)}

    #: name -> handler, assigned below from the shared op registry —
    #: a registered op without an ``_op_<name>`` method (or vice versa:
    #: see tests/service/test_ops_registry.py) fails at import time.
    _OPS: dict[str, Any]


MonitoringServer._OPS = ops.handler_table(MonitoringServer)


def _encode_response_frame(response: dict[str, Any]) -> bytes:
    """Executor-friendly positional wrapper for big-payload responses."""
    return wire.encode_frame(response, response=True)


async def serve(
    host: str = "127.0.0.1", port: int = 0, *, max_sessions: int = 1024,
    shards: int = 0, accept_wire: int = wire.WIRE_V2, announce=None,
    admin_port: int | None = None, wal_dir: str | Path | None = None,
    wal_fsync: bool = False,
    wal_checkpoint_bytes: int = wallib.DEFAULT_CHECKPOINT_BYTES,
) -> None:
    """Start a server and run it until a ``shutdown`` op.

    ``shards=0`` (the default) hosts every session in this process;
    ``shards=N`` starts the sharded supervisor of
    :mod:`repro.service.shard` with N worker processes — same wire
    protocol, served throughput scales with cores.
    ``accept_wire=1`` pins the client-facing listener to the v1
    JSON-lines framing (a supervisor's links to its workers always
    speak v2).

    ``announce`` receives the single ``serving on host:port`` line once
    the socket is bound — the CLI prints it (callers like
    ``loadgen --spawn`` parse it to learn an OS-assigned port); tests
    pass a capture function or ``lambda _: None``.  With shards, the
    line is only printed once every worker process is up.

    ``admin_port`` (``0`` = OS-assigned) additionally binds the HTTP
    admin plane of :mod:`repro.service.admin` on the same host; its
    ``admin on host:port`` line is announced *after* the serving line,
    so existing single-line parsers are undisturbed.

    ``wal_dir`` turns on durability: acknowledged ops are write-ahead
    logged and recovered on restart (with shards, each worker logs to
    ``wal_dir/shard-<i>`` and a dead worker's sessions are *recovered*,
    not lost, by ``restart_shard``).  See docs/OPERATIONS.md.
    """
    if shards:
        from repro.service.shard import ShardedMonitoringServer

        server: MonitoringServer = ShardedMonitoringServer(
            host, port, shards=shards, max_sessions=max_sessions,
            accept_wire=accept_wire, wal_dir=wal_dir, wal_fsync=wal_fsync,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
        )
    else:
        server = MonitoringServer(
            host, port, max_sessions=max_sessions, accept_wire=accept_wire,
            wal_dir=wal_dir, wal_fsync=wal_fsync,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
        )
    bound_host, bound_port = await server.start()
    admin = None
    if admin_port is not None:
        from repro.service.admin import AdminServer

        admin = AdminServer(server, host=host, port=admin_port)
        await admin.start()

    def emit(line: str) -> None:
        if announce is None:
            print(line, flush=True)
        else:
            announce(line)

    emit(f"serving on {bound_host}:{bound_port}")
    if admin is not None:
        emit(f"admin on {admin.host}:{admin.port}")
    if not shards and wal_dir is not None and server._slots:
        # Worker-side recovery in the sharded topology announces nothing
        # here: the supervisor holds no sessions (docs/OPERATIONS.md §5.1).
        emit(f"recovered {len(server._slots)} session(s) from the write-ahead log")
    try:
        await server.serve_until_shutdown()
    finally:
        if admin is not None:
            await admin.aclose()
