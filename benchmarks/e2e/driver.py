"""The load driver: raw v2 connections on one asyncio loop.

Frames go out through the public codec of :mod:`repro.service.wire`
(``hello`` line, then ``encode_frame``); a dedicated reader task per
connection stamps every ack with ``perf_counter`` the moment
``read_frame`` returns it.  The library client is deliberately not
used: ``AsyncServiceClient.feed_nowait`` reads an ack only when its
window fills, which turns pipelined latency into window × block /
throughput (Little's law) instead of a measurement.

Two phase runners share the accounting of :class:`Tally`:

- :func:`run_closed` keeps a fixed window of frames in flight per
  connection and sends the next frame when an ack frees a slot;
- :func:`run_open` sends each frame at its due time, whatever the
  server is doing, and times it from that due time, so a stall is
  charged to every frame queued behind it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Sequence

from repro.service import wire

__all__ = ["DriverError", "Link", "Tally", "run_closed", "run_open"]

#: Seconds a phase waits for its last acks before counting them failed.
ACK_TIMEOUT = 60.0

AckHandler = Callable[[float, float, "dict[str, Any] | None"], None]


class DriverError(RuntimeError):
    """The server broke the protocol or the link died."""


class Link:
    """One v2 connection: writes frames, a reader task stamps the acks."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, tuple[AckHandler, float]] = {}
        self._next_id = 0
        self.error: BaseException | None = None
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int, timeout: float = 30.0) -> "Link":
        """Connect and upgrade with the ``hello`` line."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=wire.MAX_LINE_BYTES), timeout
        )
        wire.set_nodelay(writer)
        writer.write(wire.encode_line({"id": 1, "op": "hello", "wire": wire.WIRE_V2}))
        try:
            reply = wire.decode_line(await asyncio.wait_for(reader.readline(), timeout))
        except BaseException:
            writer.close()
            raise
        if not reply.get("ok") or reply.get("wire") != wire.WIRE_V2:
            writer.close()
            raise DriverError(f"server refused the v2 upgrade: {reply}")
        return cls(reader, writer)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def send(self, message: dict[str, Any], on_ack: AckHandler) -> float:
        """Write one request frame; returns its send time.

        ``on_ack(sent, stamp, reply)`` runs on the reader task with the
        send time, the ack's arrival time and the decoded reply (``None``
        when the link died before the ack came).
        """
        if self.error is not None:
            raise DriverError(f"link is down: {self.error}")
        self._next_id += 1
        frame = wire.encode_frame({**message, "id": self._next_id})
        sent = time.perf_counter()
        self._pending[self._next_id] = (on_ack, sent)
        self._writer.write(frame)
        return sent

    async def request(self, message: dict[str, Any], timeout: float = 60.0) -> dict:
        """One op in lockstep (setup, finalize, checks); raises on error."""
        future = asyncio.get_running_loop().create_future()

        def done(_sent: float, _stamp: float, reply: dict | None) -> None:
            if not future.done():
                future.set_result(reply)

        self.send(message, done)
        reply = await asyncio.wait_for(future, timeout)
        if reply is None:
            raise DriverError(f"link died during {message.get('op')}: {self.error}")
        if not reply.get("ok"):
            raise DriverError(f"{message.get('op')} failed: {reply.get('error')}")
        return reply

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await wire.read_frame(self._reader)
                stamp = time.perf_counter()
                if frame is None:
                    raise DriverError("server closed the connection")
                header, meta, payload = frame
                entry = self._pending.pop(header.request_id, None)
                if entry is None:
                    raise DriverError(f"ack for unknown request {header.request_id}")
                on_ack, sent = entry
                on_ack(sent, stamp, wire.decode_frame(header, meta, payload))
        except asyncio.CancelledError:
            self.error = self.error or DriverError("link closed")
            raise
        except (OSError, asyncio.IncompleteReadError, wire.WireError, DriverError) as exc:
            self.error = exc
        finally:
            pending, self._pending = self._pending, {}
            now = time.perf_counter()
            for on_ack, sent in pending.values():
                on_ack(sent, now, None)

    async def aclose(self) -> None:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


class Tally:
    """What one phase saw: latencies, lateness, steps, failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds, one per op acked ok
        self.lags: list[float] = []  # open loop: send time − due time
        self.attempted = 0
        self.failed = 0
        self.steps = 0  # feed steps acked ok
        self.mismatches: list[str] = []
        self.first_send: float | None = None
        self.last_ack: float | None = None
        self._outstanding = 0
        self._drained = asyncio.Event()
        self._drained.set()

    @property
    def wall(self) -> float:
        if self.first_send is None or self.last_ack is None:
            return 0.0
        return self.last_ack - self.first_send

    def sent(self, at: float) -> None:
        self.attempted += 1
        self._outstanding += 1
        self._drained.clear()
        if self.first_send is None:
            self.first_send = at

    def acked(
        self, op: Any, origin: float, stamp: float, reply: dict | None,
        check: Callable[[Any, dict], str | None],
    ) -> None:
        """Account one ack; ``origin`` is the send time (closed) or due time (open)."""
        self._outstanding -= 1
        if self._outstanding == 0:
            self._drained.set()
        if reply is None or not reply.get("ok"):
            self.failed += 1
            return
        self.latencies.append(stamp - origin)
        self.last_ack = stamp if self.last_ack is None else max(self.last_ack, stamp)
        problem = check(op, reply)
        if problem is not None:
            self.mismatches.append(problem)
        elif op.kind == "feed":
            self.steps += op.step - op.start

    async def drain(self, timeout: float = ACK_TIMEOUT) -> None:
        """Wait for every outstanding ack; what never comes counts failed."""
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            self.failed += self._outstanding
            raise DriverError(f"{self._outstanding} acks still missing after {timeout}s")


async def run_closed(
    links: Sequence[Link],
    ops: Sequence[Any],
    window: int,
    build: Callable[[Any], dict],
    check: Callable[[Any, dict], str | None],
) -> Tally:
    """Send ``ops`` keeping ``window`` frames in flight on each link."""
    tally = Tally()

    async def pump(link: Link, link_ops: list) -> None:
        slots = asyncio.Semaphore(window)
        for op in link_ops:
            await slots.acquire()

            def on_ack(sent: float, stamp: float, reply, op=op) -> None:
                slots.release()
                tally.acked(op, sent, stamp, reply, check)

            tally.sent(link.send(build(op), on_ack))

    per_link = [[op for op in ops if op.link == i] for i in range(len(links))]
    await asyncio.gather(*(pump(link, mine) for link, mine in zip(links, per_link)))
    await tally.drain()
    return tally


async def run_open(
    links: Sequence[Link],
    ops: Sequence[Any],
    steps_per_s: float,
    build: Callable[[Any], dict],
    check: Callable[[Any, dict], str | None],
) -> Tally:
    """Send each op at its due time and time it from that due time.

    An op is due ``op.due_steps / steps_per_s`` seconds after the phase
    starts; the generator never sends early, and how late it sends is
    kept in ``tally.lags`` (the loop's timer rounds sleeps up to the
    millisecond, so lags sit between 0 and ~1 ms when the driver keeps up).
    """
    tally = Tally()
    origin = time.perf_counter() + 0.005
    for op in ops:
        due = origin + op.due_steps / steps_per_s
        delay = due - time.perf_counter()
        # Always yield, even when behind: the reader tasks must keep
        # stamping acks while the generator catches up.
        await asyncio.sleep(max(0.0, delay))

        def on_ack(_sent: float, stamp: float, reply, op=op, due=due) -> None:
            tally.acked(op, due, stamp, reply, check)

        sent = links[op.link].send(build(op), on_ack)
        tally.lags.append(sent - due)
        tally.sent(sent)
    await tally.drain()
    return tally
