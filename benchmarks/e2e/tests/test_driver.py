import asyncio
import statistics
import time
import unittest

import numpy as np

from driver import Link, Tally, run_closed, run_open
from workloads import Op

from repro.service import wire


class StubServer:
    """Speaks ``hello`` + v2 frames; answers each connection's frames in
    order, after ``delays[i]`` seconds for the i-th frame (0 by default)."""

    def __init__(self, delays: dict[int, float] | None = None) -> None:
        self.delays = delays or {}
        self.frames = 0
        self._server: asyncio.AbstractServer | None = None
        self._closing = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()

    async def __aenter__(self) -> int:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def __aexit__(self, *exc) -> None:
        self._closing.set()  # cuts every stall short
        self._server.close()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()

    async def _serve(self, reader, writer) -> None:
        self._handlers.add(asyncio.current_task())
        hello = wire.decode_line(await reader.readline())
        writer.write(wire.encode_line({"id": hello["id"], "ok": True, "wire": 2}))
        try:
            while (frame := await wire.read_frame(reader)) is not None:
                header = frame[0]
                delay = self.delays.get(self.frames, 0.0)
                self.frames += 1
                if delay:
                    try:
                        await asyncio.wait_for(self._closing.wait(), delay)
                        return
                    except asyncio.TimeoutError:
                        pass
                writer.write(wire.encode_frame(
                    {"id": header.request_id, "ok": True, "step": 0}, response=True))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def feeds(count: int, rows: int = 1) -> list[Op]:
    return [Op("feed", 0, 0, i * rows, (i + 1) * rows, i * rows) for i in range(count)]


BLOCK = np.zeros((1, 4))


def build(op: Op) -> dict:
    return {"op": "feed", "session": "s1", "values": BLOCK}


def no_check(op: Op, reply: dict) -> None:
    return None


class AckReaderTest(unittest.IsolatedAsyncioTestCase):
    async def test_immediate_acks_read_under_a_millisecond_with_16_in_flight(self):
        # The library client reads an ack only when its window refills, so
        # with nothing more to send, 16 in-flight acks would all read ~50 ms.
        # (A timing claim: the test case's debug-mode loop would add its
        # own per-callback checks to every latency.)
        asyncio.get_running_loop().set_debug(False)
        tally = Tally()
        async with StubServer() as port:
            link = await Link.open("127.0.0.1", port)
            try:
                for op in feeds(16):
                    def on_ack(sent, stamp, reply, op=op):
                        tally.acked(op, sent, stamp, reply, no_check)

                    tally.sent(link.send(build(op), on_ack))
                await asyncio.sleep(0.05)
            finally:
                await link.aclose()
        self.assertEqual(len(tally.latencies), 16)
        self.assertLess(statistics.median(tally.latencies), 1e-3)
        self.assertLess(max(tally.latencies), 0.01)

    async def test_closed_loop_feeds_every_op_once(self):
        async with StubServer() as port:
            link = await Link.open("127.0.0.1", port)
            try:
                tally = await run_closed([link], feeds(400, rows=2), 16, build, no_check)
            finally:
                await link.aclose()
        self.assertEqual((tally.attempted, tally.failed, len(tally.latencies)), (400, 0, 400))
        self.assertEqual(tally.steps, 800)
        self.assertEqual(link.outstanding, 0)

    async def test_a_dead_server_fails_the_pending_ops(self):
        async with StubServer(delays={3: 2.0}) as port:
            link = await Link.open("127.0.0.1", port)
            phase = asyncio.ensure_future(run_closed([link], feeds(8), 8, build, no_check))
            await asyncio.sleep(0.1)
            link._writer.transport.abort()  # the connection drops mid-phase
            tally = await asyncio.wait_for(phase, 5)
            await link.aclose()
        self.assertEqual(tally.attempted, 8)
        self.assertEqual(tally.failed + len(tally.latencies), 8)
        self.assertGreater(tally.failed, 0)
        self.assertIsNotNone(link.error)


class OpenLoopTest(unittest.IsolatedAsyncioTestCase):
    async def test_a_stall_is_charged_to_every_frame_queued_behind_it(self):
        stall, interval = 0.1, 0.005
        async with StubServer(delays={4: stall}) as port:
            link = await Link.open("127.0.0.1", port)
            try:
                tally = await run_open([link], feeds(40), 1 / interval, build, no_check)
            finally:
                await link.aclose()
        latencies = tally.latencies  # acks arrive in send order on one link
        self.assertEqual(len(latencies), 40)
        # Frame 4 is due at 20 ms and answered ~100 ms later; frame j > 4
        # is due 5 ms later per step but waits for the same stall to end.
        for j in range(4, 20):
            expected = stall - (j - 4) * interval
            self.assertGreater(latencies[j], expected - 0.003, f"frame {j}")
        self.assertLess(statistics.median(latencies[25:]), 0.01)
        self.assertLess(max(tally.lags), 0.02)  # the generator never waited on the server

    async def test_late_sends_count_from_the_due_time(self):
        late = 0.03

        def slow_build(op: Op) -> dict:
            if op.start == 2:
                time.sleep(late)  # the generator itself falls behind
            return build(op)

        async with StubServer() as port:
            link = await Link.open("127.0.0.1", port)
            try:
                tally = await run_open([link], feeds(10), 1000.0, slow_build, no_check)
            finally:
                await link.aclose()
        # Frame 3 is due 1 ms after frame 2 but leaves ~30 ms late.
        self.assertGreater(tally.lags[3], late - 0.005)
        self.assertGreaterEqual(tally.latencies[3], tally.lags[3])
        self.assertEqual(len(tally.lags), 10)


if __name__ == "__main__":
    unittest.main()
