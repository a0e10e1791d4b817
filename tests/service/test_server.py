"""The asyncio server: op coverage, concurrency, error envelope.

Written against a real TCP socket on localhost (no mocks): every test
starts a fresh in-process server on an OS-assigned port and talks to it
through the client library.  Plain ``asyncio.run`` keeps the suite free
of plugin dependencies.
"""

import asyncio

import numpy as np
import pytest

from repro.model.engine import MonitoringEngine
from repro.service import AsyncServiceClient, MonitoringServer, ServiceError, wire
from repro.service.algorithms import make_algorithm
from repro.streams import registry

T, N, K, EPS = 400, 12, 3, 0.15


def served(coro_fn):
    """Run ``coro_fn(server, client)`` against a fresh server."""

    async def scaffold():
        server = MonitoringServer()
        host, port = await server.start()
        client = await AsyncServiceClient.connect(host, port)
        try:
            return await coro_fn(server, client)
        finally:
            await client.aclose()
            await server.aclose()

    return asyncio.run(scaffold())


@pytest.fixture(scope="module")
def reference():
    source = registry.stream("zipf", T, N, block_size=50, rng=13)
    result = MonitoringEngine(
        source, make_algorithm("approx-monitor", K, EPS),
        k=K, eps=EPS, seed=3, record_outputs=False,
    ).run()
    return result, list(source.iter_blocks())


def spec(**overrides):
    base = dict(algorithm="approx-monitor", n=N, k=K, eps=EPS, seed=3)
    base.update(overrides)
    return base


class TestBasicOps:
    def test_ping(self):
        async def scenario(server, client):
            pong = await client.ping()
            assert pong["pong"] is True
            assert pong["sessions"] == 0
            assert pong["version"] >= 1

        served(scenario)

    def test_create_feed_query_finalize(self, reference):
        ref, blocks = reference

        async def scenario(server, client):
            sid = await client.create_session(**spec())
            for block in blocks:
                ack = await client.feed(sid, block)
            assert ack["step"] == T
            status = await client.query(sid)
            assert status["step"] == T
            assert len(status["output"]) == K
            cost = await client.cost(sid)
            assert cost["messages"] == ref.messages
            assert cost["by_scope"] == ref.ledger.by_scope()
            result = await client.finalize(sid)
            assert result["messages"] == ref.messages
            assert result["num_steps"] == T
            # finalize removes the session
            assert await client.list_sessions() == []

        served(scenario)

    def test_json_encoding_parity(self, reference):
        ref, blocks = reference

        async def scenario(server, client):
            sid = await client.create_session(**spec())
            for block in blocks:
                await client.feed(sid, block, encoding="json")
            result = await client.finalize(sid)
            assert result["messages"] == ref.messages

        served(scenario)

    def test_workload_backed_advance(self, reference):
        ref, _blocks = reference

        async def scenario(server, client):
            sid = await client.create_session(**spec(
                workload="zipf", num_steps=T, block_size=50, workload_seed=13,
            ))
            ack = await client.advance(sid, 150)
            assert ack["step"] == 150 and not ack["done"]
            ack = await client.advance(sid)
            assert ack["step"] == T and ack["done"]
            result = await client.finalize(sid)
            assert result["messages"] == ref.messages

        served(scenario)

    def test_snapshot_restore_over_the_wire(self, reference):
        ref, blocks = reference

        async def scenario(server, client):
            sid = await client.create_session(**spec())
            half = len(blocks) // 2
            for block in blocks[:half]:
                await client.feed(sid, block)
            blob = await client.snapshot(sid)
            sid2 = await client.restore(blob)
            assert sid2 != sid
            for block in blocks[half:]:
                await client.feed(sid2, block)
            result = await client.finalize(sid2)
            assert result["messages"] == ref.messages

        served(scenario)

    def test_close_drops_session(self):
        async def scenario(server, client):
            sid = await client.create_session(**spec())
            await client.close_session(sid)
            with pytest.raises(ServiceError, match="no such session"):
                await client.query(sid)

        served(scenario)


class TestErrorEnvelope:
    def test_bad_create_is_a_response_not_a_crash(self):
        async def scenario(server, client):
            with pytest.raises(ServiceError) as err:
                await client.create_session(algorithm="nope", n=8, k=2)
            assert err.value.error_type == "KeyError"
            # the connection survives the error
            assert (await client.ping())["pong"]

        served(scenario)

    def test_unknown_op(self):
        """v1 sends the op and the server rejects it; v2 cannot even
        encode an op without a code — either way it's a clean error."""

        async def scenario(server, client):
            with pytest.raises((ServiceError, wire.WireError), match="unknown op"):
                await client.request("frobnicate")

        served(scenario)

    def test_unknown_session(self):
        async def scenario(server, client):
            with pytest.raises(ServiceError, match="no such session"):
                await client.feed("s999", np.ones((1, 4)))

        served(scenario)

    def test_bad_values_payload(self):
        async def scenario(server, client):
            sid = await client.create_session(**spec())
            with pytest.raises(ServiceError) as err:
                await client.request("feed", session=sid, values="garbage")
            assert err.value.error_type == "WireError"

        served(scenario)

    def test_malformed_json_line(self):
        """A bad line on a v1 connection draws the JSON error envelope
        (the v2 framing's fuzz twin lives in test_protocol_v2.py)."""

        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port, wire_protocol="v1")
            try:
                client._writer.write(b"{not json\n")
                await client._writer.drain()
                line = await client._reader.readline()
                import json
                response = json.loads(line)
                assert response["ok"] is False
                assert response["error_type"] == "WireError"
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_session_limit(self):
        async def scenario():
            server = MonitoringServer(max_sessions=2)
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                await client.create_session(**spec())
                await client.create_session(**spec())
                with pytest.raises(ServiceError, match="session limit"):
                    await client.create_session(**spec())
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())


class TestSmallOpFastPath:
    def test_hello_reports_negotiation(self):
        async def scenario(server, client):
            response = await client.request("hello", wire=1)
            assert response["wire"] == 1  # requesting v1 never upgrades
            assert response["version"] >= 1

        served(scenario)

    def test_cheap_ops_never_touch_the_executor(self, reference):
        """INLINE_OPS are served on the event loop: no run_in_executor
        round trip.  So is a feed of an ordinary block; heavy ops
        (create) still go through the executor."""
        _ref, blocks = reference

        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                sid = await client.create_session(**spec())
                await client.feed(sid, blocks[0])

                real_run_sync, calls = server._run_sync, []

                async def tracking(fn, *args):
                    calls.append(getattr(fn, "__name__", str(fn)))
                    return await real_run_sync(fn, *args)

                server._run_sync = tracking
                try:
                    covered = {
                        "ping", "hello", "query", "cost", "list", "close",
                        "metrics", "durability",
                    }
                    # shutdown is inline too but would stop the server;
                    # everything else in the contract set must be hit
                    # here, so editing INLINE_OPS forces updating this.
                    assert covered == MonitoringServer.INLINE_OPS - {"shutdown"}
                    await client.ping()
                    await client.request("hello", wire=1)
                    await client.query(sid)
                    await client.cost(sid)
                    await client.list_sessions()
                    await client.metrics()
                    await client.durability()
                    await client.close_session(sid)
                    assert calls == []  # every cheap op stayed on the loop
                    sid2 = await client.create_session(**spec())
                    assert calls == ["session_from_wire"]  # create offloads
                    await client.feed(sid2, blocks[0])
                    assert calls == ["session_from_wire"]  # the feed did not
                finally:
                    server._run_sync = real_run_sync
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_inline_ops_set_matches_handlers(self):
        """Every declared inline op exists; the declaration is the
        documentation the fast path is held to."""
        assert MonitoringServer.INLINE_OPS <= set(MonitoringServer._OPS)


class TestConcurrency:
    def test_concurrent_sessions_are_isolated(self, reference):
        """Interleaved clients on distinct sessions reproduce serial runs."""
        ref, blocks = reference

        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()

            async def drive(seed_offset: int) -> int:
                client = await AsyncServiceClient.connect(host, port)
                try:
                    sid = await client.create_session(**spec(seed=3 + seed_offset))
                    for block in blocks:
                        await client.feed(sid, block)
                    return (await client.finalize(sid))["messages"]
                finally:
                    await client.aclose()

            totals = await asyncio.gather(*(drive(i) for i in range(4)))
            await server.aclose()
            return totals

        totals = asyncio.run(scenario())
        # seed_offset 0 is the reference run; all runs consumed the same data
        assert totals[0] == ref.messages
        assert all(t > 0 for t in totals)

    def test_shutdown_op_stops_serve_loop(self):
        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_shutdown())
            client = await AsyncServiceClient.connect(host, port)
            response = await client.request("shutdown")
            assert response["stopping"] is True
            await asyncio.wait_for(serve_task, timeout=5)
            await client.aclose()

        asyncio.run(scenario())

    def test_shutdown_with_idle_connection_does_not_hang(self):
        """An idle connection parks its handler in readline(); shutdown
        must cancel it instead of waiting (wait_closed blocks on open
        handlers since Python 3.12.1)."""

        async def scenario():
            server = MonitoringServer()
            host, port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_shutdown())
            idle = await AsyncServiceClient.connect(host, port)
            await idle.ping()  # the connection is live, then goes quiet
            shutter = await AsyncServiceClient.connect(host, port)
            await shutter.request("shutdown")
            await asyncio.wait_for(serve_task, timeout=5)
            await shutter.aclose()
            await idle.aclose()

        asyncio.run(scenario())
