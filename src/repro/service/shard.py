"""Sharded serving: one front end, N shared-nothing worker processes.

PR 3's :class:`~repro.service.server.MonitoringServer` hosts every
session in a single asyncio process, so served throughput is capped at
one core no matter how many sessions connect.  This module adds the
next scaling step, mirroring how the paper's protocol treats
monitoring instances as independent units behind one broadcast
channel: sessions are *shared-nothing*, so they scale horizontally by
placing them in separate OS processes.

- :class:`ShardRing` — a consistent-hash ring (64 virtual points per
  shard by default) mapping session ids onto shard indices, so
  growing or shrinking the shard count relocates only ``~1/N`` of the
  sessions instead of reshuffling everything.
- :func:`shard_worker_main` — the entry point of one shard worker
  process: a plain single-process :class:`MonitoringServer` bound to a
  per-shard localhost socket, reached only by the supervisor.
- :class:`ShardedMonitoringServer` — the supervisor: an asyncio
  acceptor speaking the *unchanged* client wire protocol, which
  rewrites session ids and forwards each op to the owning shard over
  one multiplexed v2 link per worker.  Each link carries any number of
  frames at once; a reader task matches replies to requests by id.

Sessions stay *bit-identical* to single-process serving: a shard
worker runs the very same ``Session``/engine stack, and the supervisor
never touches payload bytes beyond the ``id``/``session`` envelope
fields.  On a v2 (binary-framed) client connection that promise is
structural: session ops are **passed through** — the supervisor routes
on the fixed frame header alone, re-heads the frame with the
worker-local session id, and splices the meta and payload bytes
worker-ward without decoding them (only control ops — ``create``,
``restore``, ``migrate``, ``list``, ``ping``, ``hello``,
``shutdown`` — take the full-decode path).  A v2 connection reads
ahead: each pass-through frame goes to its worker's link as soon as it
arrives, and the replies are written back in request order.  A worker
serves its link one frame at a time, so each session's frames reach
it in the order they arrived.  Checkpoint-based migration (the
``migrate`` op / :meth:`ShardedMonitoringServer.migrate_session`)
moves a live session between shards through the PR 3 snapshot format
as raw blob frames, and :meth:`ShardedMonitoringServer.restart_shard`
rebuilds a whole worker process around checkpoints of its sessions —
both without losing a step or a message of session state.  See
docs/ARCHITECTURE.md §5.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import hashlib
import json
import multiprocessing
import shutil
import time
from pathlib import Path
from typing import Any

from repro.service import metrics as metricslib
from repro.service import ops, wire
from repro.service import wal as wallib
from repro.service.client import (
    _INLINE_FRAME_BYTES,
    AsyncServiceClient,
    ServiceError,
    encode_v2_request,
)
from repro.service.server import MonitoringServer

__all__ = [
    "ShardError",
    "ShardRing",
    "ShardedMonitoringServer",
    "shard_worker_main",
]

#: Spawned (never forked) workers: the supervisor runs an event loop,
#: and forking a live loop is undefined behavior; spawn also gives the
#: worker a pristine interpreter, matching production process managers.
_MP = multiprocessing.get_context("spawn")

#: How long a worker process may take to bind its socket and report.
_WORKER_START_TIMEOUT = 120.0

#: How long a worker may take to exit after a shutdown request.
_WORKER_STOP_TIMEOUT = 15.0

#: Ceiling on a supervisor->worker round trip, enforced per link on
#: its oldest pending frame (and on a reconnect's ``hello``: a stopped
#: worker still completes TCP handshakes).  Generous — a near-cap feed
#: batch takes well under a second even on one core — but finite, so a
#: *hung* (not dead) worker turns into ShardError responses instead of
#: wedging route locks (and, transitively, the placement lock and every
#: restart_shard) forever.
_FORWARD_TIMEOUT = 60.0

#: Frames one v2 client connection may read ahead of its written
#: replies.  The bound is the backpressure: a client that stops reading
#: its replies stalls its own connection at this depth instead of
#: growing the supervisor's memory.
_READ_AHEAD = 64

#: Pass-through op codes whose ``ok`` reply carries the session's step.
_STEP_CODES = frozenset({wire.OP_CODES["feed"], wire.OP_CODES["advance"]})
_FINALIZE_CODE = wire.OP_CODES["finalize"]


class ShardError(RuntimeError):
    """A shard worker is unreachable or failed mid-request."""


def _hash64(key: str) -> int:
    """A stable (process-independent) 64-bit hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring: session id -> shard index.

    Each shard owns ``points`` pseudo-random positions on a 64-bit
    ring; a key belongs to the shard owning the first position at or
    after the key's hash (wrapping at the top).  Placement is a pure
    function of ``(key, shards, points)`` — every process computes the
    same ring, nothing needs to be gossiped.
    """

    def __init__(self, shards: int, *, points: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        if points < 1:
            raise ValueError(f"need at least 1 point per shard, got {points}")
        self.shards = shards
        self.points = points
        pairs = sorted(
            (_hash64(f"shard-{shard}#{point}"), shard)
            for shard in range(shards)
            for point in range(points)
        )
        self._hashes = [h for h, _ in pairs]
        self._owners = [s for _, s in pairs]

    def owner(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect.bisect_right(self._hashes, _hash64(key))
        return self._owners[index % len(self._owners)]


def shard_worker_main(
    ready,
    max_sessions: int,
    wal_dir: str | None = None,
    wal_fsync: bool = False,
    wal_checkpoint_bytes: int = wallib.DEFAULT_CHECKPOINT_BYTES,
) -> None:
    """Entry point of one shard worker process.

    Runs a plain :class:`MonitoringServer` on an OS-assigned localhost
    port, reports that port through the ``ready`` pipe, then serves
    until the supervisor sends the ``shutdown`` op.  Exit code 0 means
    a clean drain.  The worker always grants v2 frames: the
    supervisor's link speaks nothing else, whatever framing the
    client-facing listener is pinned to.  With ``wal_dir``, server
    construction *recovers* first — a respawned worker replays its
    checkpoint + log tail and re-hosts every acknowledged session under
    its original local id (the restored id counter keeps supervisor
    routes valid) before the port is announced.
    """

    async def run() -> None:
        server = MonitoringServer(
            "127.0.0.1",
            0,
            max_sessions=max_sessions,
            wal_dir=wal_dir,
            wal_fsync=wal_fsync,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
        )
        await server.start()
        ready.send(server.port)
        ready.close()
        await server.serve_until_shutdown()

    asyncio.run(run())


class _Link:
    """One multiplexed v2 connection from the supervisor to a worker.

    Frames go out in call order and the worker serves its end of the
    connection one frame at a time, so replies return in that order; a
    reader task matches each reply to its pending entry by request id.
    One timer per link holds the oldest pending frame to
    :data:`_FORWARD_TIMEOUT`.  Any failure — the deadline, EOF, a
    broken frame, a dropped link — answers every pending frame with
    :class:`ShardError` and detaches the link from its worker, so the
    next request reconnects.
    """

    def __init__(
        self,
        server: ShardedMonitoringServer,
        worker: _ShardWorker,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.worker = worker
        self.loop = asyncio.get_running_loop()
        self.writer = writer
        #: request id -> (send time, waiter).  The waiter is a future
        #: for a control request and a splice tuple (see
        #: :meth:`ShardedMonitoringServer._splice`) for a pass-through
        #: frame.  Insertion order is send order: the first is oldest.
        self.pending: dict[int, tuple[float, Any]] = {}
        self.last_id = 0
        self.timer: asyncio.TimerHandle | None = None
        self.failed = False
        self.reader_task = self.loop.create_task(self._read_replies(reader))

    def next_id(self) -> int:
        self.last_id += 1
        return self.last_id

    def track(self, request_id: int, waiter: Any) -> None:
        """Register a frame just written; arm the deadline if idle."""
        self.pending[request_id] = (time.perf_counter(), waiter)
        if self.timer is None:
            self.timer = self.loop.call_later(_FORWARD_TIMEOUT, self._check_deadline)

    def _check_deadline(self) -> None:
        self.timer = None
        if self.failed or not self.pending:
            return
        oldest = next(iter(self.pending.values()))[0]
        left = oldest + _FORWARD_TIMEOUT - time.perf_counter()
        if left > 0:
            self.timer = self.loop.call_later(left, self._check_deadline)
        else:
            self.fail(
                ShardError(
                    f"shard {self.worker.index} did not respond within "
                    f"{_FORWARD_TIMEOUT:g}s"
                )
            )

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        server, index = self.server, self.worker.index
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    raise ShardError(f"shard {index} closed the connection")
                entry = self.pending.pop(frame[0].request_id, None)
                if entry is None:
                    raise ShardError(
                        f"shard {index} answered unknown request "
                        f"{frame[0].request_id} (protocol desync)"
                    )
                sent, waiter = entry
                if server.metrics.enabled:
                    server._forward_hist(index).observe(time.perf_counter() - sent)
                if type(waiter) is tuple:
                    server._spliced(waiter, frame)
                elif not waiter.done():  # a cancelled caller drops its reply
                    waiter.set_result(frame)
        except ShardError as exc:
            self.fail(exc)
        except Exception as exc:  # reset, truncated or malformed frame
            self.fail(ShardError(f"shard {index} unavailable: {exc}"))

    def fail(self, exc: ShardError) -> None:
        """Close the link and answer every pending frame with ``exc``."""
        if self.failed:
            return
        self.failed = True
        if self.worker.link is self:
            self.worker.link = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.writer.transport.abort()
        if self.reader_task is not asyncio.current_task():
            self.reader_task.cancel()
        pending, self.pending = self.pending, {}
        for _sent, waiter in pending.values():
            if type(waiter) is tuple:
                replies, slot, request_id = waiter[:3]
                replies.fill(slot, wire.encode_error_frame(request_id, exc))
            elif not waiter.done():
                waiter.set_exception(exc)


class _ShardWorker:
    """One worker process plus the supervisor's link to it."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: multiprocessing.process.BaseProcess | None = None
        self.port: int | None = None
        #: The multiplexed link; ``None`` means "connect on next use".
        self.link: _Link | None = None
        #: Serializes reconnects, so concurrent requests share one.
        self.connecting = asyncio.Lock()

    def drop_link(self) -> None:
        """Close the link (worker restart or shutdown), failing its frames."""
        if self.link is not None:
            self.link.fail(ShardError(f"shard {self.index} link closed"))


class _Replies:
    """One v2 client connection's replies, written in request order.

    Each frame read gets a slot in arrival order; a slot is filled when
    its reply exists (at once for an error, when the worker answers for
    a pass-through frame), and :meth:`flush` writes every filled slot
    at the head of the line.
    """

    __slots__ = ("writer", "slots", "waiter", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.slots: collections.deque[list] = collections.deque()
        #: ``(depth, future)`` of a reader parked in :meth:`settle`.
        self.waiter: tuple[int, asyncio.Future] | None = None
        self.closed = False

    def reserve(self) -> list:
        slot = [None]
        self.slots.append(slot)
        return slot

    def fill(self, slot: list, reply: Any) -> None:
        slot[0] = reply
        self.flush()

    def push(self, reply: Any) -> None:
        self.fill(self.reserve(), reply)

    def flush(self) -> None:
        slots, writer = self.slots, self.writer
        if writer.transport.is_closing():
            self.closed = True  # the peer is gone: replies have nowhere to go
        while slots and slots[0][0] is not None:
            reply = slots.popleft()[0]
            if self.closed:
                continue
            if isinstance(reply, tuple):
                writer.writelines(reply)
            else:
                writer.write(reply)
        waiter = self.waiter
        if waiter is not None and len(slots) <= waiter[0]:
            self.waiter = None
            if not waiter[1].done():
                waiter[1].set_result(None)

    async def settle(self, depth: int) -> None:
        """Wait until at most ``depth`` replies are unwritten."""
        while len(self.slots) > depth:
            future = asyncio.get_running_loop().create_future()
            self.waiter = (depth, future)
            await future


class _Route:
    """Where one supervisor-visible session lives right now."""

    __slots__ = ("shard", "local", "step", "lock")

    def __init__(self, shard: int, local: str, step: int = 0) -> None:
        self.shard = shard
        self.local = local  # the worker's own session id
        self.step = step
        self.lock = asyncio.Lock()


class ShardedMonitoringServer(MonitoringServer):
    """Supervisor: consistent-hash sessions onto N worker processes.

    Clients are unchanged on the wire — the supervisor answers the same
    op vocabulary as :class:`MonitoringServer` (plus ``migrate``),
    assigns the session ids, and forwards each session op to the shard
    owning it.  Worker processes host the actual
    :class:`~repro.service.session.Session` stack, shared-nothing, one
    event loop + executor each, so served throughput scales with cores.

    Parameters
    ----------
    shards:
        Worker process count (>= 1).
    ring_points:
        Virtual ring positions per shard (placement granularity).
    accept_wire:
        Highest framing the client-facing listener grants (see
        :class:`MonitoringServer`); the links to the workers always
        speak v2.
    wal_dir:
        Durability root: worker ``i`` write-ahead logs to
        ``wal_dir/shard-<i>``.  The supervisor itself hosts no sessions
        and keeps no log — recovery is worker-side: a respawned worker
        replays its own checkpoint + tail, and :meth:`restart_shard`
        re-syncs the routes, reporting dead-worker sessions as
        ``recovered`` instead of ``lost``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int,
        max_sessions: int = 1024,
        ring_points: int = 64,
        accept_wire: int = wire.WIRE_V2,
        wal_dir: str | Path | None = None,
        wal_fsync: bool = False,
        wal_checkpoint_bytes: int = wallib.DEFAULT_CHECKPOINT_BYTES,
    ) -> None:
        super().__init__(host, port, max_sessions=max_sessions, accept_wire=accept_wire)
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self._wal_dir = None if wal_dir is None else Path(wal_dir)
        self._wal_fsync = wal_fsync
        self._wal_checkpoint_bytes = wal_checkpoint_bytes
        #: Fleet-level durability toggle (the workers hold the logs; the
        #: supervisor's flag is what ``durability`` fan-out re-applies
        #: to replacement workers after a restart).
        self.durability = self._wal_dir is not None
        self.num_shards = shards
        self.ring = ShardRing(shards, points=ring_points)
        self._workers = [_ShardWorker(i) for i in range(shards)]
        self._routes: dict[str, _Route] = {}
        # Serializes every operation that changes *where sessions live*
        # (create, restore, migrate, shard restart), so the session
        # budget is enforced atomically and a restart can never race a
        # concurrent placement onto the worker it is replacing.  Lock
        # order is always placement -> route.lock, never the reverse.
        self._placement = asyncio.Lock()
        # Supervisor-side ops-plane extras: per-shard forward latency,
        # frames in flight per link, restart/migration counters, and
        # the cross-generation aggregator that keeps fleet counters
        # monotone across restart_shard (a worker's registry dies with
        # its process; see repro.service.metrics).
        self._c_migrations = self.metrics.counter("repro_migrations_total")
        self._gen_agg = metricslib.GenerationAggregator()
        self._forward_hists: dict[int, metricslib.Histogram] = {}
        for worker in self._workers:
            self.metrics.register_gauge_fn(
                "repro_forward_inflight",
                lambda w=worker: len(w.link.pending) if w.link else 0,
                shard=worker.index,
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Spawn the shard workers, then bind the front-end listener."""
        if self._server is not None:
            raise RuntimeError("server already started")
        try:
            await asyncio.gather(*(self._spawn_worker(w) for w in self._workers))
            return await super().start()
        except BaseException:
            await self._stop_workers()
            raise

    async def _spawn_worker(self, worker: _ShardWorker) -> None:
        """Start one worker process and wait for its announced port."""
        receiver, sender = _MP.Pipe(duplex=False)
        worker_wal = (
            None
            if self._wal_dir is None
            else str(self._wal_dir / f"shard-{worker.index}")
        )
        process = _MP.Process(
            target=shard_worker_main,
            args=(
                sender,
                self.max_sessions,
                worker_wal,
                self._wal_fsync,
                self._wal_checkpoint_bytes,
            ),
            name=f"repro-shard-{worker.index}",
            daemon=True,
        )
        process.start()
        sender.close()
        worker.process = process
        loop = asyncio.get_running_loop()
        try:
            worker.port = await loop.run_in_executor(
                None, _receive_port, receiver, process
            )
        finally:
            receiver.close()

    async def serve_until_shutdown(self) -> None:
        """Serve, then drain: front end first, then every worker."""
        try:
            await super().serve_until_shutdown()
        finally:
            await self._stop_workers()

    async def aclose(self) -> None:
        try:
            await super().aclose()
        finally:
            self._routes.clear()
            await self._stop_workers()

    async def _stop_workers(self) -> None:
        await asyncio.gather(*(self._stop_worker(w) for w in self._workers))

    async def _stop_worker(self, worker: _ShardWorker) -> None:
        """Gracefully drain one worker; escalate to terminate/kill."""
        worker.drop_link()
        process = worker.process
        if process is None:
            return
        if process.is_alive() and worker.port is not None:
            try:
                link = await asyncio.wait_for(
                    AsyncServiceClient.connect(
                        "127.0.0.1", worker.port, wire_protocol="v1"
                    ),
                    timeout=5,
                )
                try:
                    await asyncio.wait_for(link.request("shutdown"), timeout=5)
                finally:
                    await link.aclose()
            except Exception:
                pass  # worker already gone or wedged; escalate below
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, process.join, _WORKER_STOP_TIMEOUT)
        if process.is_alive():
            process.terminate()
            await loop.run_in_executor(None, process.join, 5)
            if process.is_alive():
                process.kill()
                await loop.run_in_executor(None, process.join, 5)
        worker.drop_link()  # one a racing reconnect opened meanwhile
        worker.port = None

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #
    async def _link(self, shard: int) -> _Link:
        """The shard's link, connected and upgraded to v2 on first use."""
        worker = self._workers[shard]
        link = worker.link
        if link is None:
            async with worker.connecting:
                link = worker.link
                if link is None:
                    link = worker.link = await self._connect(worker)
        return link

    async def _connect(self, worker: _ShardWorker) -> _Link:
        port = worker.port
        if port is None:
            raise ShardError(f"shard {worker.index} is not running")
        try:
            reader, writer = await asyncio.wait_for(
                _handshake(port), timeout=_FORWARD_TIMEOUT
            )
        except asyncio.TimeoutError:
            raise ShardError(
                f"shard {worker.index} did not answer the link handshake within "
                f"{_FORWARD_TIMEOUT:g}s"
            ) from None
        except (OSError, wire.WireError) as exc:
            raise ShardError(f"shard {worker.index} unreachable: {exc}") from exc
        return _Link(self, worker, reader, writer)

    async def _forward(self, shard: int, op: str, **fields: Any) -> dict[str, Any]:
        """One control request/response round trip over a shard's link.

        Worker-side errors re-raise as :class:`ServiceError` (the
        envelope preserves their original ``error_type``); a failed link
        raises :class:`ShardError`.  A request that cannot be encoded (a
        v1 client's non-finite batch) raises ``WireError`` before
        anything is written, so the link stays in sync.
        """
        link = await self._link(shard)
        request_id = link.next_id()
        data = await encode_v2_request({"id": request_id, "op": op, **fields})
        if link.failed:  # dropped while a big frame encoded off the loop
            raise ShardError(f"shard {shard} link closed")
        future = link.loop.create_future()
        link.writer.write(data)
        link.track(request_id, future)
        header, meta, payload = await future
        if header.payload_len > _INLINE_FRAME_BYTES:
            response = await link.loop.run_in_executor(
                None, wire.decode_frame, header, meta, payload
            )
        else:
            response = wire.decode_frame(header, meta, payload)
        if not response.pop("ok"):
            raise ServiceError(
                response.get("error", "unknown error"), response.get("error_type", "")
            )
        # The worker's request id is link-local; the supervisor re-wraps
        # the payload under the client's own id.
        response.pop("id", None)
        return response

    def _forward_hist(self, shard: int) -> metricslib.Histogram:
        hist = self._forward_hists.get(shard)
        if hist is None:
            hist = self._forward_hists[shard] = self.metrics.histogram(
                "repro_forward_seconds", shard=shard
            )
        return hist

    def _account(self, route: _Route, step: Any) -> None:
        """Move a route's step echo forward to a worker-reported step."""
        if isinstance(step, int) and step > route.step:
            self._c_steps.inc(step - route.step)
            route.step = step

    #: Session ops a v2 front-end connection forwards without decoding:
    #: the fixed header alone names the session, and the meta/payload
    #: bytes are spliced worker-ward verbatim.  Everything else (and
    #: every v1 line) takes the full-decode path through ``_OPS``.
    #: Derived from the shared op registry (``passthrough=True`` specs).
    _PASSTHROUGH_CODES = ops.passthrough_codes()

    async def _serve_v2(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The pipelined binary-frame loop of a client connection.

        A pass-through frame whose route is free is spliced to its
        worker's link as soon as it is read; its reply fills the frame's
        slot when the worker answers.  Every other frame — a control op,
        or a session frame whose route a ``migrate`` or
        ``restart_shard`` holds, or whose link must reconnect — is
        served before the next frame is read, so it is a barrier, and so
        is a ``finalize``.  Replies are written in request order either
        way.
        """
        replies = _Replies(writer)
        routes, workers = self._routes, self._workers
        try:
            while not self._stop.is_set():
                if len(replies.slots) >= _READ_AHEAD:
                    await replies.settle(_READ_AHEAD - 1)
                await writer.drain()
                try:
                    frame = await wire.read_frame(reader)
                except wire.WireError as exc:
                    # Framing is broken: answer once (after the replies
                    # already owed), then close — no resync is possible.
                    replies.push(wire.encode_error_frame(0, exc))
                    break
                except asyncio.IncompleteReadError:
                    break  # peer died mid-frame
                if frame is None:
                    break  # peer closed
                header = frame[0]
                if header.code not in self._PASSTHROUGH_CODES or not header.session:
                    replies.push(await self._respond_v2(frame))
                    continue
                sid = f"s{header.session}"
                route = routes.get(sid)
                link = None
                if route is not None and not route.lock.locked():
                    link = workers[route.shard].link
                if link is None:
                    try:
                        link = await self._await_route(sid, route)
                    except Exception as exc:  # fail closed, like _respond_v2
                        replies.push(wire.encode_error_frame(header.request_id, exc))
                        continue
                self._splice(link, sid, route, frame, replies)
                if header.code == _FINALIZE_CODE:
                    # The route goes when the reply arrives; frames read
                    # after a finalize must find it gone, as they would
                    # served one at a time.
                    await replies.settle(0)
            await replies.settle(0)  # answer everything read before closing
        finally:
            replies.closed = True

    async def _await_route(self, sid: str, route: _Route | None) -> _Link:
        """A session frame's barrier: wait out a ``migrate`` or
        ``restart_shard`` holding its route, then (re)connect the link."""
        if route is not None:
            async with route.lock:
                link = await self._link(route.shard)
                if self._routes.get(sid) is route:  # not finalized or lost
                    return link
        raise KeyError(f"no such session {sid!r}")

    def _splice(
        self,
        link: _Link,
        sid: str,
        route: _Route,
        frame: tuple[wire.FrameHeader, bytes, bytes],
        replies: _Replies,
    ) -> None:
        """Re-head one session frame for its worker and write it through.

        The supervisor-side cost of a forwarded feed is two header packs
        and the socket writes — no JSON parse, no base64, no payload
        copy.  The reply is handled by :meth:`_spliced`.
        """
        header, meta, payload = frame
        request_id = link.next_id()
        head = wire.pack_header(
            kind=header.kind,
            code=header.code,
            request_id=request_id,
            session=int(route.local[1:]),
            meta_len=header.meta_len,
            payload_len=header.payload_len,
        )
        if payload:
            link.writer.writelines((head, meta, payload))
        else:
            link.writer.write(head + meta)
        link.track(
            request_id,
            (
                replies,
                replies.reserve(),
                header.request_id,
                header.session,
                sid,
                route,
                header.code,
            ),
        )
        self._c_requests.inc()

    def _spliced(
        self, splice: tuple, frame: tuple[wire.FrameHeader, bytes, bytes]
    ) -> None:
        """A worker's reply to a spliced frame, as it arrives.

        Steps are accounted here, in arrival order, not when the reply
        is written: a reply written after a migration must neither roll
        the route's step back nor count its steps twice.
        """
        replies, slot, request_id, session, sid, route, code = splice
        reply, meta, payload = frame
        if reply.code == wire.STATUS_OK:
            if code in _STEP_CODES:
                # The only decoded bytes on this path: a tiny
                # {"step", "messages", ...} meta segment.
                self._account(route, json.loads(meta).get("step") if meta else None)
            elif code == _FINALIZE_CODE:
                self._routes.pop(sid, None)
        head = wire.pack_header(
            kind=reply.kind,
            code=reply.code,
            request_id=request_id,
            session=session if reply.session else 0,
            meta_len=reply.meta_len,
            payload_len=reply.payload_len,
            response=True,
        )
        replies.fill(slot, (head + meta, payload) if payload else head + meta)

    def _new_sid(self) -> str:
        if len(self._routes) >= self.max_sessions:
            raise RuntimeError(
                f"session limit reached ({self.max_sessions}); finalize or "
                "close sessions before creating more"
            )
        self._next_id += 1
        return f"s{self._next_id}"

    def _route(self, message: dict[str, Any]) -> tuple[str, _Route]:
        sid = message.get("session")
        route = self._routes.get(sid)
        if route is None:
            raise KeyError(f"no such session {sid!r}")
        return sid, route

    # ------------------------------------------------------------------ #
    # Migration
    # ------------------------------------------------------------------ #
    async def migrate_session(
        self, sid: str, target: int | None = None
    ) -> dict[str, Any]:
        """Move one session to ``target`` (default: the next shard).

        The move is checkpoint-based: snapshot on the owning shard,
        restore on the target, close the original — the session id the
        client holds does not change, and the restored session
        continues bit-identically (PR 3's checkpoint guarantee).
        """
        route = self._routes.get(sid)
        if route is None:
            raise KeyError(f"no such session {sid!r}")
        async with self._placement:
            async with route.lock:
                return await self._migrate_locked(sid, route, target)

    async def _migrate_locked(
        self, sid: str, route: _Route, target: int | None
    ) -> dict[str, Any]:
        source = route.shard
        if target is None:
            target = (source + 1) % self.num_shards
        if not 0 <= target < self.num_shards:
            raise ValueError(
                f"target shard {target} out of range [0, {self.num_shards})"
            )
        if target == source:
            return {
                "session": sid,
                "from_shard": source,
                "to_shard": target,
                "step": route.step,
                "moved": False,
            }
        snap = await self._forward(source, "snapshot", session=route.local)
        restored = await self._forward(target, "restore", state=snap["state"])
        try:
            await self._forward(source, "close", session=route.local)
        except (ShardError, ServiceError):
            # The restored copy is authoritative either way (identical at
            # the snapshot step; route.lock blocks feeds during the move).
            # A failed close at worst leaves a stale twin on a broken
            # source worker — cleared by restart_shard — and must not
            # orphan the reachable copy on the healthy target.
            pass
        route.shard = target
        route.local = restored["session"]
        route.step = restored["step"]
        self._c_migrations.inc()
        return {
            "session": sid,
            "from_shard": source,
            "to_shard": target,
            "step": route.step,
            "moved": True,
        }

    async def restart_shard(
        self, index: int, *, graceful: bool = False
    ) -> dict[str, Any]:
        """Replace a shard's worker process without losing session state.

        Rebalancing/maintenance *and* recovery primitive, in three
        flavors depending on configuration:

        - **No WAL, or durability toggled off** (the original path):
          every session hosted on shard ``index`` is snapshotted to the
          supervisor, the worker is drained and replaced, and the
          sessions are restored into the fresh process — placement and
          session ids unchanged, state bit-identical.  If the worker is
          already dead (snapshots unreachable) the unsaveable sessions'
          routes are dropped so their slots return to the session
          budget — ``lost`` reports them.
        - **WAL-backed** (durability on): no snapshot round trips.  The
          replacement worker replays its own checkpoint + log tail
          during startup (under the *original* local session ids), the
          supervisor re-syncs each route's step with a ``query``, and
          the result reports those sessions as ``recovered``.  A ``kill
          -9``'d worker loses nothing acknowledged — ``lost`` stays 0.
        - **``graceful=True``** (rolling restart, needs >= 2 shards and
          a live worker): resident sessions are first *migrated* to
          other shards through the checkpoint-migration path, so they
          keep serving while the process is swapped; sessions whose
          migration fails fall back to the applicable path above.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(f"shard {index} out of range [0, {self.num_shards})")
        worker = self._workers[index]
        # The WAL recovery path is only sound while appends are actually
        # on: with durability toggled off the log stops at the toggle,
        # so a healthy restart must fall back to the snapshot path (and
        # wipe the stale log — the snapshots are the authority).
        durable = self._wal_dir is not None and self.durability
        async with self._placement:
            # No placement can race us onto the dying worker: create,
            # restore and migrate all hold the same lock.
            resident = [
                (sid, route)
                for sid, route in self._routes.items()
                if route.shard == index
            ]
            acquired = []
            try:
                for _sid, route in resident:
                    await route.lock.acquire()
                    acquired.append(route)
                live = [
                    (sid, route)
                    for sid, route in resident
                    # finalized/closed while we awaited its lock
                    if self._routes.get(sid) is route
                ]
                migrated = 0
                if graceful and self.num_shards > 1:
                    remaining = []
                    for sid, route in live:
                        try:
                            await self._migrate_locked(sid, route, None)
                        except (ShardError, ServiceError):
                            remaining.append((sid, route))  # swap path below
                        else:
                            migrated += 1
                    live = remaining
                blobs = []
                lost = []
                worker_dead = False
                if not durable:
                    for sid, route in live:
                        if worker_dead:
                            lost.append(sid)
                            continue
                        try:
                            snap = await self._forward(
                                index, "snapshot", session=route.local
                            )
                        except ShardError:
                            worker_dead = True  # no point probing per session
                            lost.append(sid)
                            continue
                        except ServiceError:
                            lost.append(sid)  # gone on the worker: route is stale
                            continue
                        blobs.append((sid, route, snap["state"]))
                if not worker_dead:
                    # Harvest the dying registry under its process id;
                    # the fresh process restarts from zero and the
                    # aggregator keeps fleet counters monotone across
                    # the swap.  The scrape also fences the link: it
                    # lands behind every frame forwarded before it.
                    try:
                        scraped = await self._forward(index, "metrics")
                        self._gen_agg.update(
                            index, worker.process.pid, scraped["metrics"]
                        )
                    except (ShardError, ServiceError):
                        pass  # the tail counts die with the worker
                await self._stop_worker(worker)
                if not durable and self._wal_dir is not None:
                    # Superseded log: the fresh worker must not replay
                    # state the snapshots above are about to overwrite.
                    shutil.rmtree(
                        self._wal_dir / f"shard-{index}", ignore_errors=True
                    )
                await self._spawn_worker(worker)
                if not self.metrics.enabled:  # fresh workers default to metrics on
                    await self._forward(index, "metrics", enabled=False)
                if self._wal_dir is not None and not self.durability:
                    # ... and to appending on
                    await self._forward(index, "durability", enabled=False)
                self.metrics.counter("repro_shard_restarts_total", shard=index).inc()
                recovered = 0
                if durable:
                    # The fresh worker already replayed its WAL; the
                    # routes' local ids are unchanged by construction,
                    # so a query both verifies the session and re-syncs
                    # the supervisor's step echo.
                    for sid, route in live:
                        try:
                            payload = await self._forward(
                                index, "query", session=route.local
                            )
                        except (ShardError, ServiceError):
                            lost.append(sid)
                            continue
                        route.step = payload["step"]
                        recovered += 1
                else:
                    for sid, route, state in blobs:
                        restored = await self._forward(index, "restore", state=state)
                        route.local = restored["session"]
                        route.step = restored["step"]
                for sid in lost:
                    self._routes.pop(sid, None)
                if recovered:
                    self.metrics.counter(
                        "repro_shard_recovered_sessions_total", shard=index
                    ).inc(recovered)
            finally:
                for route in acquired:
                    route.lock.release()
        return {
            "shard": index,
            "sessions": recovered if durable else len(blobs),
            "lost": len(lost),
            "recovered": recovered,
            "migrated": migrated,
            "port": worker.port,
        }

    # ------------------------------------------------------------------ #
    # Ops (same vocabulary as MonitoringServer, plus ``migrate``)
    # ------------------------------------------------------------------ #
    async def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        shard_info = []
        for worker in self._workers:
            try:
                pong = await self._forward(worker.index, "ping")
            except ShardError:
                shard_info.append({"shard": worker.index, "alive": False})
                continue
            shard_info.append(
                {
                    "shard": worker.index,
                    "alive": True,
                    "sessions": pong["sessions"],
                    "stats": pong["stats"],
                }
            )
        return {
            "pong": True,
            "version": wire.PROTOCOL_VERSION,
            "accept_wire": self.accept_wire,
            "sessions": len(self._routes),
            "shards": self.num_shards,
            "shard_info": shard_info,
            "stats": dict(self.stats),
        }

    async def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        """Fan a metrics toggle out to the fleet, then serve its dump."""
        enabled = message.get("enabled")
        if enabled is not None and not isinstance(enabled, bool):
            raise wire.WireError(f"metrics enabled must be a bool, got {enabled!r}")
        if enabled is not None:
            for worker in self._workers:
                await self._forward(worker.index, "metrics", enabled=enabled)
            self.metrics.enabled = enabled
        return {"enabled": self.metrics.enabled, "metrics": await self.metrics_fleet()}

    async def _op_durability(self, message: dict[str, Any]) -> dict[str, Any]:
        """Fan the durability toggle out to every worker.

        WAL appends happen where the sessions live, so only the workers
        carry a log; the supervisor keeps its own flag in sync so it can
        re-apply the toggle to respawned processes (fresh WAL-backed
        workers default to appending on).
        """
        enabled = message.get("enabled")
        if enabled is not None and not isinstance(enabled, bool):
            raise wire.WireError(f"durability enabled must be a bool, got {enabled!r}")
        wal_backed = self._wal_dir is not None
        if enabled is not None:
            if enabled and not wal_backed:
                raise RuntimeError(
                    "durability needs a WAL directory (serve --wal-dir)"
                )
            if wal_backed:
                for worker in self._workers:
                    await self._forward(worker.index, "durability", enabled=enabled)
                self.durability = enabled
        return {"enabled": self.durability and wal_backed, "wal": wal_backed}

    async def metrics_fleet(self) -> dict[str, Any]:
        """Merge every worker registry into the fleet-wide view.

        Each reachable worker is scraped through the internal
        ``metrics`` op and folded into the cross-generation aggregator;
        an unreachable shard still serves its carried totals.  Worker
        metrics join the dump under a ``shard`` label (their session
        labels are worker-local ids), so supervisor-side counters are
        never double-counted.
        """
        for worker in self._workers:
            try:
                payload = await self._forward(worker.index, "metrics")
            except (ShardError, ServiceError):
                continue  # the carried totals below still count
            self._gen_agg.update(worker.index, worker.process.pid, payload["metrics"])
        fleet = self.metrics_dump()
        # The supervisor's step counter is a routing-level echo of the
        # same physical steps the workers count; the shard-labelled
        # worker series are the ground truth, so the echo leaves the
        # fleet view (the legacy ``stats`` dict keeps it for ``ping``,
        # and the ring series stays — it feeds the ingest sparkline and
        # is never summed).
        fleet["counters"].pop("repro_steps_ingested_total", None)
        for shard, total in sorted(self._gen_agg.shard_totals().items()):
            metricslib.merge_into(fleet, metricslib.relabel(total, shard=shard))
        return fleet

    async def _op_create(self, message: dict[str, Any]) -> dict[str, Any]:
        spec = message.get("spec")
        if not isinstance(spec, dict):
            raise wire.WireError("create needs a 'spec' object")
        async with self._placement:
            sid = self._new_sid()
            shard = self.ring.owner(sid)
            payload = await self._forward(shard, "create", spec=spec)
            self._routes[sid] = _Route(shard, payload["session"])
        return {"session": sid, "step": payload["step"], "shard": shard}

    async def _op_feed(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(
                route.shard,
                "feed",
                session=route.local,
                values=message.get("values"),
            )
            self._account(route, payload["step"])
        return {
            "session": sid,
            "step": payload["step"],
            "messages": payload["messages"],
        }

    async def _op_advance(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(
                route.shard,
                "advance",
                session=route.local,
                steps=message.get("steps"),
            )
            self._account(route, payload["step"])
        return {
            "session": sid,
            "step": payload["step"],
            "messages": payload["messages"],
            "done": payload["done"],
        }

    async def _op_query(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(route.shard, "query", session=route.local)
        return {**payload, "session": sid}

    async def _op_cost(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(route.shard, "cost", session=route.local)
        return {**payload, "session": sid}

    async def _op_snapshot(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(
                route.shard,
                "snapshot",
                session=route.local,
            )
        return {**payload, "session": sid}

    async def _op_restore(self, message: dict[str, Any]) -> dict[str, Any]:
        state = message.get("state")
        if not isinstance(state, (str, bytes, bytearray)):
            raise wire.WireError(
                "restore needs a 'state' checkpoint (base64 text or raw blob frame)"
            )
        async with self._placement:
            sid = self._new_sid()
            shard = self.ring.owner(sid)
            payload = await self._forward(shard, "restore", state=state)
            self._routes[sid] = _Route(shard, payload["session"], step=payload["step"])
        return {"session": sid, "step": payload["step"], "shard": shard}

    async def _op_finalize(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            payload = await self._forward(
                route.shard,
                "finalize",
                session=route.local,
            )
            self._routes.pop(sid, None)  # a concurrent close may have won
        return {"session": sid, "result": payload["result"]}

    async def _op_close(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        async with route.lock:
            try:
                await self._forward(route.shard, "close", session=route.local)
            except (ShardError, ServiceError):
                # Unreachable worker or already-gone worker session: the
                # route is garbage either way, and dropping it is the only
                # way to hand the slot back to the session budget — close
                # must stay the client's escape hatch for a dead shard.
                pass
            self._routes.pop(sid, None)  # a concurrent close may have won
        return {"session": sid, "closed": True}

    async def _op_list(self, message: dict[str, Any]) -> dict[str, Any]:
        reverse = {
            (route.shard, route.local): sid for sid, route in self._routes.items()
        }
        sessions = []
        unreachable = []
        for worker in self._workers:
            try:
                payload = await self._forward(worker.index, "list")
            except ShardError:
                # A dead shard degrades only its own rows, matching the
                # per-session failure semantics (and _op_ping's shape).
                unreachable.append(worker.index)
                continue
            for row in payload["sessions"]:
                sid = reverse.get((worker.index, row["session"]))
                if sid is not None:
                    sessions.append({**row, "session": sid, "shard": worker.index})
        sessions.sort(key=lambda row: int(row["session"][1:]))
        return {"sessions": sessions, "unreachable_shards": unreachable}

    async def _op_migrate(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, route = self._route(message)
        target = message.get("shard")
        if target is not None and not isinstance(target, int):
            raise wire.WireError(f"migrate shard must be an int, got {target!r}")
        async with self._placement:
            async with route.lock:
                return await self._migrate_locked(sid, route, target)

    #: Assigned below from the shared op registry: the supervisor serves
    #: the full vocabulary including ``migrate``, with ``hello`` and
    #: ``shutdown`` resolving to the inherited base-server handlers.
    _OPS: dict[str, Any]


ShardedMonitoringServer._OPS = ops.handler_table(
    ShardedMonitoringServer, supervisor=True
)


async def _handshake(port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a link to a worker and upgrade it to v2 frames."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=wire.MAX_LINE_BYTES
    )
    try:
        wire.set_nodelay(writer)
        writer.write(wire.encode_line({"id": 0, "op": "hello", "wire": wire.WIRE_V2}))
        line = await reader.readline()
        if not line or wire.decode_line(line).get("wire") != wire.WIRE_V2:
            raise ShardError(f"worker on port {port} refused the v2 link handshake")
    except BaseException:
        writer.close()
        raise
    return reader, writer


def _receive_port(receiver, process) -> int:
    """Wait (in an executor thread) for a worker's announced port."""
    deadline = time.monotonic() + _WORKER_START_TIMEOUT
    while time.monotonic() < deadline:
        if receiver.poll(0.2):
            try:
                return int(receiver.recv())
            except EOFError:
                # Death before the announce closes the pipe, and poll()
                # reports the EOF as readable — same diagnosis as below.
                process.join(5)
                raise ShardError(
                    f"worker {process.name} died during startup "
                    f"(exit code {process.exitcode})"
                ) from None
        if not process.is_alive():
            raise ShardError(
                f"worker {process.name} died during startup "
                f"(exit code {process.exitcode})"
            )
    raise ShardError(
        f"worker {process.name} did not announce a port within "
        f"{_WORKER_START_TIMEOUT:.0f}s"
    )
