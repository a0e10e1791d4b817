"""Wire v2 end to end: negotiation, equivalence, pipelining, fuzz.

Three pillars:

- **Negotiation** — a v2 client against a default server upgrades; a
  v1 client against the same server, and any client against a server
  pinned to ``accept_wire=1``, keep speaking JSON lines; a strict
  ``wire_protocol="v2"`` client fails loudly against a pinned server.
- **Cross-protocol equivalence** — the same session driven over v1,
  over v2, and over v2 through a 4-shard supervisor (pass-through
  routing, with a mid-run migrate) yields bit-identical F(t) series,
  cost snapshots, and finalize results.
- **Malformed-frame fuzz** — truncated headers, bad magic, bad
  versions, oversize lengths, length/shape mismatches and non-finite
  payloads each draw a clean ``WireError`` response (or error frame)
  and never hang the connection; recoverable content errors leave the
  connection serving.

Real sockets, real worker processes — nothing is mocked.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.service import (
    AsyncServiceClient,
    MonitoringServer,
    ServiceError,
    ShardedMonitoringServer,
    shard,
    wire,
)
from repro.streams import registry

T, N, K, EPS = 360, 16, 3, 0.15
BLOCK = 60


def blocks_for(index: int):
    source = registry.stream("zipf", T, N, block_size=BLOCK, rng=21 + index)
    return list(source.iter_blocks())


def spec(index: int) -> dict:
    return dict(algorithm="approx-monitor", n=N, k=K, eps=EPS, seed=5 + index)


def payload(response: dict) -> dict:
    """A response minus its connection-local envelope (request id, ok)."""
    return {k: v for k, v in response.items() if k not in ("id", "ok")}


async def _served(server, wire_protocol):
    host, port = await server.start()
    client = await AsyncServiceClient.connect(
        host, port, wire_protocol=wire_protocol
    )
    return client


class TestNegotiation:
    def test_v2_client_upgrades_on_default_server(self):
        async def scenario():
            server = MonitoringServer()
            client = await _served(server, "v2")
            try:
                assert client.wire_version == wire.WIRE_V2
                pong = await client.ping()
                assert pong["pong"] is True and pong["accept_wire"] == 2
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_v1_client_unchanged_on_v2_default_server(self):
        """The interop guarantee: a client that never says hello keeps
        speaking JSON lines against a v2-default server."""

        async def scenario():
            server = MonitoringServer()
            client = await _served(server, "v1")
            try:
                assert client.wire_version == wire.WIRE_V1
                sid = await client.create_session(**spec(0))
                ack = await client.feed(sid, blocks_for(0)[0])
                assert ack["step"] == BLOCK
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_auto_falls_back_on_pinned_server(self):
        async def scenario():
            server = MonitoringServer(accept_wire=wire.WIRE_V1)
            client = await _served(server, "auto")
            try:
                assert client.wire_version == wire.WIRE_V1
                assert (await client.ping())["accept_wire"] == 1
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_auto_falls_back_on_server_without_hello(self):
        """A server predating the hello op rejects it as unknown; auto
        mode treats that as 'v1 only' instead of failing the connect."""

        class PreHelloServer(MonitoringServer):
            _OPS = {
                op: handler
                for op, handler in MonitoringServer._OPS.items()
                if op != "hello"
            }

        async def scenario():
            server = PreHelloServer()
            client = await _served(server, "auto")
            try:
                assert client.wire_version == wire.WIRE_V1
                assert (await client.ping())["pong"] is True
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_strict_v2_fails_loudly_on_pinned_server(self):
        async def scenario():
            server = MonitoringServer(accept_wire=wire.WIRE_V1)
            host, port = await server.start()
            try:
                with pytest.raises(ServiceError, match="only grants wire v1"):
                    await AsyncServiceClient.connect(host, port, wire_protocol="v2")
            finally:
                await server.aclose()

        asyncio.run(scenario())

    def test_pinned_supervisor_keeps_v2_worker_links(self):
        """``accept_wire=1`` pins only the client-facing listener: a v1
        client is served end to end, over a worker link speaking v2."""

        async def scenario():
            server = ShardedMonitoringServer(shards=1, accept_wire=wire.WIRE_V1)
            client = await _served(server, "auto")
            try:
                assert client.wire_version == wire.WIRE_V1
                # The whole topology still serves sessions.
                sid = await client.create_session(**spec(0))
                ack = await client.feed(sid, blocks_for(0)[0])
                assert ack["step"] == BLOCK
                # The worker grants v2, and its link is a v2 frame link.
                assert (await server._forward(0, "ping"))["accept_wire"] == 2
                assert isinstance(server._workers[0].link, shard._Link)
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())


async def _drive_transcript(server, wire_protocol, *, migrate_after=None):
    """Create two sessions, feed all blocks, record every observable.

    The same shape as tests/service/test_shard.py's transcript, with a
    snapshot/restore pair thrown in so checkpoint transport is part of
    the equivalence law.
    """
    client = await _served(server, wire_protocol)
    try:
        sids = [await client.create_session(**spec(i)) for i in range(2)]
        data = [blocks_for(i) for i in range(2)]
        transcript = []
        for block_index in range(len(data[0])):
            for sid, blocks in zip(sids, data):
                await client.feed(sid, blocks[block_index])
                status = await client.query(sid)
                transcript.append(
                    (status["step"], status["messages"], tuple(status["output"]))
                )
            if block_index == migrate_after:
                await client.migrate(sids[0])
        # Checkpoint round trip: the twin continues bit-identically, so
        # its final status folds into the transcript.
        blob = await client.snapshot(sids[0])
        twin = await client.restore(blob)
        twin_status = await client.query(twin)
        transcript.append(
            (twin_status["step"], twin_status["messages"],
             tuple(twin_status["output"]))
        )
        await client.close_session(twin)
        costs = [
            {k: v for k, v in payload(await client.cost(sid)).items()
             if k != "session"}
            for sid in sids
        ]
        results = [await client.finalize(sid) for sid in sids]
        return transcript, costs, results
    finally:
        await client.aclose()
        await server.aclose()


class TestCrossProtocolEquivalence:
    def test_v1_v2_and_sharded_v2_are_bit_identical(self):
        """One session history, four transports — v1 lines, v2 frames,
        pipelined v2, and v2 through a 4-shard supervisor's pass-through
        path with a mid-run migration — all indistinguishable."""
        v1 = asyncio.run(_drive_transcript(MonitoringServer(), "v1"))
        v2 = asyncio.run(_drive_transcript(MonitoringServer(), "v2"))
        sharded = asyncio.run(
            _drive_transcript(
                ShardedMonitoringServer(shards=4), "v2", migrate_after=2
            )
        )
        assert v2 == v1
        assert sharded == v1

    def test_pipelined_feeds_match_lockstep(self):
        """Windowed in-flight feeds with a flush barrier produce the
        same session state as lockstep request-response."""

        async def pipelined():
            server = MonitoringServer()
            client = await _served(server, "v2")
            try:
                sid = await client.create_session(**spec(0))
                for block in blocks_for(0):
                    await client.feed_nowait(sid, block)
                await client.flush()
                status = await client.query(sid)
                result = await client.finalize(sid)
                return payload(status), result
            finally:
                await client.aclose()
                await server.aclose()

        async def lockstep():
            server = MonitoringServer()
            client = await _served(server, "v1")
            try:
                sid = await client.create_session(**spec(0))
                for block in blocks_for(0):
                    await client.feed(sid, block)
                status = await client.query(sid)
                result = await client.finalize(sid)
                return payload(status), result
            finally:
                await client.aclose()
                await server.aclose()

        assert asyncio.run(pipelined()) == asyncio.run(lockstep())


class TestPipelining:
    def test_query_observes_every_prior_feed(self):
        """Any op is an implicit barrier: a query right after queued
        feeds reflects all of them."""

        async def scenario():
            server = MonitoringServer()
            client = await _served(server, "v2")
            try:
                sid = await client.create_session(**spec(0))
                blocks = blocks_for(0)
                for block in blocks:
                    await client.feed_nowait(sid, block)
                status = await client.query(sid)  # no explicit flush
                assert status["step"] == T
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_pipeline_error_surfaces_at_flush(self):
        async def scenario():
            server = MonitoringServer()
            client = await _served(server, "v2")
            try:
                sid = await client.create_session(**spec(0))
                block = blocks_for(0)[0]
                await client.feed_nowait(sid, block)
                # Wrong width: the engine rejects it server-side.
                await client.feed_nowait(sid, np.ones((4, N + 3)))
                await client.feed_nowait(sid, block)
                with pytest.raises(ServiceError, match="shape"):
                    await client.flush()
                # The error is consumed; the connection keeps serving
                # and the two good blocks landed.
                assert (await client.query(sid))["step"] == 2 * BLOCK
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_client_side_encode_failure_leaves_no_ghost_ack(self):
        """A batch the codec itself rejects (3-D) raises immediately and
        must not leave a pending entry — the next barrier would
        otherwise wait forever for an ack that was never requested."""

        async def scenario():
            server = MonitoringServer()
            client = await _served(server, "v2")
            try:
                sid = await client.create_session(**spec(0))
                block = blocks_for(0)[0]
                await client.feed_nowait(sid, block)
                with pytest.raises(wire.WireError, match="batch"):
                    await client.feed_nowait(sid, np.zeros((2, 2, N)))
                await client.feed_nowait(sid, block)
                await asyncio.wait_for(client.flush(), timeout=10)
                assert (await client.query(sid))["step"] == 2 * BLOCK
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_window_bounds_in_flight_feeds(self):
        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()
            client = await AsyncServiceClient.connect(
                host, port, wire_protocol="v2", window=2
            )
            try:
                sid = await client.create_session(**spec(0))
                for block in blocks_for(0):
                    await client.feed_nowait(sid, block)
                    assert len(client._pending) <= 2
                await client.flush()
                assert (await client.query(sid))["step"] == T
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())


async def _raw_v2_connection(host, port):
    """A socket upgraded to v2 by hand (no client machinery)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(wire.encode_line({"id": 1, "op": "hello", "wire": 2}))
    await writer.drain()
    granted = json.loads(await reader.readline())
    assert granted["ok"] and granted["wire"] == 2
    return reader, writer


async def _read_error_frame(reader):
    frame = await asyncio.wait_for(wire.read_frame(reader), timeout=10)
    assert frame is not None
    header, meta, _payload = frame
    assert header.response and header.code != wire.STATUS_OK
    return json.loads(meta)


class TestMalformedFrames:
    """Every fuzz case must answer (or close) within the timeout —
    a hung connection fails the test by timing out."""

    def _scenario(self, fuzz):
        async def run():
            server = MonitoringServer()
            host, port = await server.start()
            try:
                return await asyncio.wait_for(fuzz(server, host, port), timeout=30)
            finally:
                await server.aclose()

        return asyncio.run(run())

    def test_garbage_instead_of_header_closes_cleanly(self):
        async def fuzz(server, host, port):
            reader, writer = await _raw_v2_connection(host, port)
            writer.write(b"{not a frame\n")
            await writer.drain()
            error = await _read_error_frame(reader)
            assert error["error_type"] == "WireError"
            assert "magic" in error["error"]
            assert await reader.read() == b""  # server closed: no resync
            writer.close()

        self._scenario(fuzz)

    def test_truncated_header_then_eof_does_not_hang(self):
        async def fuzz(server, host, port):
            reader, writer = await _raw_v2_connection(host, port)
            writer.write(wire.MAGIC + b"\x02\x01")  # 4 of 30 header bytes
            await writer.drain()
            writer.close()  # EOF mid-header
            # The server notices the truncation, answers/closes instead
            # of parking the reader, and keeps serving new connections.
            await asyncio.wait_for(reader.read(), timeout=10)
            pong = await _probe_alive(host, port)
            assert pong["pong"] is True

        self._scenario(fuzz)

    def test_wrong_version_rejected(self):
        async def fuzz(server, host, port):
            reader, writer = await _raw_v2_connection(host, port)
            bad = bytearray(
                wire.pack_header(kind=wire.KIND_NONE, code=wire.OP_CODES["ping"],
                                 request_id=1, session=0, meta_len=0, payload_len=0)
            )
            bad[2] = 9  # version byte
            writer.write(bytes(bad))
            await writer.drain()
            error = await _read_error_frame(reader)
            assert "version" in error["error"]
            writer.close()

        self._scenario(fuzz)

    def test_oversize_lengths_rejected(self):
        async def fuzz(server, host, port):
            reader, writer = await _raw_v2_connection(host, port)
            writer.write(
                struct.pack(
                    "<2sBBHQQII", wire.MAGIC, 2, wire.KIND_NONE,
                    wire.OP_CODES["ping"], 1, 0, 0, wire.MAX_PAYLOAD_BYTES + 1,
                )
            )
            await writer.drain()
            error = await _read_error_frame(reader)
            assert "cap" in error["error"]
            writer.close()

        self._scenario(fuzz)

    def test_payload_shape_mismatch_is_recoverable(self):
        """A well-framed but wrong-length values payload errors the one
        request; the connection keeps serving."""

        async def fuzz(server, host, port):
            reader, writer = await _raw_v2_connection(host, port)
            meta = json.dumps({"shape": [2, 4]}).encode()
            payload = b"\x00" * 24  # 24 bytes, shape needs 64
            writer.write(
                wire.pack_header(
                    kind=wire.KIND_VALUES, code=wire.OP_CODES["feed"],
                    request_id=5, session=1, meta_len=len(meta),
                    payload_len=len(payload),
                ) + meta + payload
            )
            await writer.drain()
            error = await _read_error_frame(reader)
            assert error["error_type"] == "WireError"
            # same connection, next request answers fine
            writer.write(wire.encode_frame({"id": 6, "op": "ping"}))
            await writer.drain()
            frame = await asyncio.wait_for(wire.read_frame(reader), timeout=10)
            assert frame[0].code == wire.STATUS_OK
            writer.close()

        self._scenario(fuzz)

    def test_non_finite_payload_rejected_cleanly(self):
        async def fuzz(server, host, port):
            client = await AsyncServiceClient.connect(host, port, wire_protocol="v2")
            try:
                sid = await client.create_session(**spec(0))
                bad = np.full((2, N), np.nan)
                with pytest.raises((ServiceError, wire.WireError),
                                   match="non-finite"):
                    await client.feed(sid, bad)
                # the connection survives a rejected batch
                assert (await client.query(sid))["step"] == 0
            finally:
                await client.aclose()

        self._scenario(fuzz)

    def test_link_survives_encode_rejected_batches(self):
        """A v1 client's bad batch fails at the supervisor→worker link
        *encode* (nothing written): the link must stay in sync and keep
        serving, not force a reconnect per bad request."""

        async def run():
            # One link per worker: every forwarded op shares it, so the
            # worker's connection count moves iff the link is dropped.
            server = ShardedMonitoringServer(shards=1)
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port, wire_protocol="v1")
            try:
                sid = await client.create_session(**spec(0))
                good = blocks_for(0)[0]
                await client.feed(sid, good)
                before = (await client.ping())["shard_info"][0]["stats"]["connections"]
                bad = wire.encode_values(np.full((2, N), np.nan), "b64")
                for _ in range(3):
                    with pytest.raises(ServiceError, match="non-finite"):
                        await client.request("feed", session=sid, values=bad)
                after = (await client.ping())["shard_info"][0]["stats"]["connections"]
                assert after == before  # no link was poisoned/reconnected
                await client.feed(sid, good)  # and the link still serves
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(asyncio.wait_for(run(), timeout=120))

    def test_sharded_passthrough_fuzz(self):
        """Malformed session frames against the supervisor's splice
        path fail closed without decoding (unknown session) and without
        wedging the route."""

        async def run():
            server = ShardedMonitoringServer(shards=1)
            host, port = await server.start()
            try:
                reader, writer = await _raw_v2_connection(host, port)
                # pass-through op for a session that does not exist
                writer.write(
                    wire.pack_header(
                        kind=wire.KIND_NONE, code=wire.OP_CODES["query"],
                        request_id=9, session=777, meta_len=0, payload_len=0,
                    )
                )
                await writer.drain()
                error = await asyncio.wait_for(
                    _read_error_frame(reader), timeout=10
                )
                assert "no such session" in error["error"]
                writer.close()
                # the supervisor still serves new clients
                client = await AsyncServiceClient.connect(
                    host, port, wire_protocol="v2"
                )
                try:
                    sid = await client.create_session(**spec(0))
                    ack = await client.feed(sid, blocks_for(0)[0])
                    assert ack["step"] == BLOCK
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        asyncio.run(asyncio.wait_for(run(), timeout=120))


async def _probe_alive(host, port):
    client = await AsyncServiceClient.connect(host, port, wire_protocol="v1")
    try:
        return await client.ping()
    finally:
        await client.aclose()
