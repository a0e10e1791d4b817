"""Sharded serving: placement, bit-identical sessions, migration, drain.

The heart of this file is the topology-independence law: the same
workload served by the single-process server, a 1-shard supervisor and
a 4-shard supervisor — with a mid-run checkpoint migration and a whole
shard restart thrown in — must produce *bit-identical* F(t) series,
cost snapshots and final results.  Worker processes are real (spawned),
sockets are real; nothing is mocked.
"""

import asyncio
from collections import Counter

import pytest

from repro.service import (
    AsyncServiceClient,
    MonitoringServer,
    ServiceError,
    ShardedMonitoringServer,
    ShardRing,
    wire,
)
from repro.streams import registry

T, N, K, EPS = 360, 16, 3, 0.15
BLOCK = 60


def blocks_for(index: int):
    source = registry.stream("zipf", T, N, block_size=BLOCK, rng=13 + index)
    return list(source.iter_blocks())


def spec(index: int) -> dict:
    return dict(algorithm="approx-monitor", n=N, k=K, eps=EPS, seed=3 + index)


def payload(response: dict) -> dict:
    """A response minus its connection-local envelope (request id, ok)."""
    return {k: v for k, v in response.items() if k not in ("id", "ok")}


class TestShardRing:
    def test_deterministic_across_instances(self):
        a, b = ShardRing(4), ShardRing(4)
        keys = [f"s{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_covers_every_shard(self):
        ring = ShardRing(4)
        owners = Counter(ring.owner(f"s{i}") for i in range(500))
        assert sorted(owners) == [0, 1, 2, 3]
        # no shard starves: each owns a nontrivial share of keys
        assert min(owners.values()) > 25

    def test_growth_moves_few_keys(self):
        """Consistent hashing: adding a shard relocates ~1/N of the keys,
        not all of them (the property a modulo hash lacks)."""
        before, after = ShardRing(4), ShardRing(5)
        keys = [f"s{i}" for i in range(1000)]
        moved = sum(before.owner(k) != after.owner(k) for k in keys)
        assert 0 < moved < 400  # ideal is ~200 of 1000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least 1 shard"):
            ShardRing(0)
        with pytest.raises(ValueError, match="at least 1 point"):
            ShardRing(2, points=0)


async def _drive_transcript(server, *, migrate_after=None, restart_after=None):
    """Create two sessions, feed all blocks, record every observable.

    ``migrate_after``: after that block index, migrate session 0.
    ``restart_after``: after that block index, restart the shard
    hosting session 1 (checkpoint out, replace the process, restore).
    Both are only meaningful on a :class:`ShardedMonitoringServer`.
    """
    host, port = await server.start()
    client = await AsyncServiceClient.connect(host, port)
    try:
        sids = [await client.create_session(**spec(i)) for i in range(2)]
        data = [blocks_for(i) for i in range(2)]
        transcript = []
        for block_index in range(len(data[0])):
            for sid, blocks in zip(sids, data):
                await client.feed(sid, blocks[block_index])
                status = await client.query(sid)
                transcript.append(
                    (sid, status["step"], status["messages"], tuple(status["output"]))
                )
            if block_index == migrate_after:
                await client.migrate(sids[0])
            if block_index == restart_after:
                await server.restart_shard(server._routes[sids[1]].shard)
        costs = [payload(await client.cost(sid)) for sid in sids]
        results = [await client.finalize(sid) for sid in sids]
        return transcript, costs, results
    finally:
        await client.aclose()
        await server.aclose()


async def _pipelined_transcript(server, sessions=8):
    """Pipeline feed/query/cost/snapshot/finalize frames over every
    session on one raw v2 connection; return the replies in arrival order.

    Every frame of the run is written before the replies are consumed,
    so the supervisor has far more frames in flight than its read-ahead
    bound; the replies must still come back in request order.
    """
    host, port = await server.start()
    client = await AsyncServiceClient.connect(host, port, wire_protocol="v2")
    try:
        sids = [await client.create_session(**spec(i)) for i in range(sessions)]
        if isinstance(server, ShardedMonitoringServer):
            shards = {server._routes[sid].shard for sid in sids}
            assert shards == set(range(server.num_shards))
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(wire.encode_line({"id": 0, "op": "hello", "wire": 2}))
        assert wire.decode_line(await reader.readline())["wire"] == 2
        data = [blocks_for(i) for i in range(sessions)]
        frames = []
        for block_index in range(len(data[0])):
            for sid, blocks in zip(sids, data):
                frames.append(
                    {"op": "feed", "session": sid, "values": blocks[block_index]}
                )
                frames.append({"op": "query", "session": sid})
                if block_index % 2:
                    frames.append({"op": "cost", "session": sid})
                if block_index == 2:
                    frames.append({"op": "snapshot", "session": sid})
        for sid in sids:  # a frame right behind a finalize finds no session
            frames.append({"op": "finalize", "session": sid})
            frames.append({"op": "query", "session": sid})
        for request_id, frame in enumerate(frames, start=1):
            writer.write(wire.encode_frame({"id": request_id, **frame}))
        replies = []
        for _ in frames:
            header, meta, body = await asyncio.wait_for(wire.read_frame(reader), 30)
            replies.append(wire.decode_frame(header, meta, body))
        writer.close()
        assert [reply["id"] for reply in replies] == list(range(1, len(frames) + 1))
        tail = 2 * sessions
        assert [reply["ok"] for reply in replies[-tail:]] == [True, False] * sessions
        assert all(reply["ok"] for reply in replies[:-tail])
        return replies
    finally:
        await client.aclose()
        await server.aclose()


class TestTopologyIndependence:
    def test_sharded_serving_is_bit_identical(self):
        """shards=1, shards=4, and the single-process server agree on
        every F(t), every cost snapshot, and every final result — even
        with a mid-run migration and a shard restart in the 4-shard run."""
        single = asyncio.run(_drive_transcript(MonitoringServer()))
        one_shard = asyncio.run(_drive_transcript(ShardedMonitoringServer(shards=1)))
        four_shards = asyncio.run(
            _drive_transcript(
                ShardedMonitoringServer(shards=4),
                migrate_after=2,
                restart_after=3,
            )
        )
        assert one_shard == single
        assert four_shards == single

    def test_pipelined_frames_answer_in_order_and_bit_identical(self):
        """One connection pipelines session frames over all four shards:
        replies come back in request order, and every reply — step
        echoes, F(t), cost bills, checkpoint bytes, final results and
        the errors of frames behind a finalize — matches single-process
        serving."""
        single = asyncio.run(_pipelined_transcript(MonitoringServer()))
        four_shards = asyncio.run(
            _pipelined_transcript(ShardedMonitoringServer(shards=4))
        )
        assert four_shards == single


class TestLifecycle:
    def test_migrate_restore_and_errors(self):
        async def scenario():
            server = ShardedMonitoringServer(shards=2, max_sessions=3)
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                sid = await client.create_session(**spec(0))
                blocks = blocks_for(0)
                for block in blocks[:3]:
                    await client.feed(sid, block)

                # explicit-target migration, then a same-shard no-op
                here = server._routes[sid].shard
                there = 1 - here
                move = await client.migrate(sid, there)
                assert move["moved"] and move["to_shard"] == there
                assert server._routes[sid].shard == there
                stay = await client.migrate(sid, there)
                assert stay["moved"] is False
                with pytest.raises(ServiceError, match="out of range"):
                    await client.migrate(sid, 7)
                with pytest.raises(ServiceError, match="no such session"):
                    await client.migrate("s999")

                # checkpoint travels through the supervisor like any op
                blob = await client.snapshot(sid)
                twin = await client.restore(blob)
                for block in blocks[3:]:
                    await client.feed(sid, block)
                    await client.feed(twin, block)
                assert payload(await client.query(twin)) == {
                    **payload(await client.query(sid)),
                    "session": twin,
                }

                # worker-side errors keep their type through forwarding
                with pytest.raises(ServiceError) as err:
                    await client.create_session(algorithm="nope", n=8, k=2)
                assert err.value.error_type == "KeyError"

                # the supervisor enforces the global session budget
                third = await client.create_session(**spec(1))
                with pytest.raises(ServiceError, match="session limit"):
                    await client.create_session(**spec(1))
                await client.close_session(third)

                rows = await client.list_sessions()
                assert [row["session"] for row in rows] == [sid, twin]
                assert all(row["shard"] in (0, 1) for row in rows)

                pong = await client.ping()
                assert pong["shards"] == 2
                assert pong["sessions"] == 2
                assert [s["alive"] for s in pong["shard_info"]] == [True, True]
            finally:
                await client.aclose()
                await server.aclose()
            assert all(w.process.exitcode == 0 for w in server._workers)

        asyncio.run(scenario())

    def test_dead_worker_fails_closed_and_restart_recovers(self):
        """A killed worker fails its own sessions' requests (ShardError),
        never the supervisor; `close` frees their budget slots even with
        the worker gone; restart_shard replaces the process, dropping the
        unsaveable sessions as `lost`, and the shard serves again."""

        async def scenario():
            server = ShardedMonitoringServer(shards=2)
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                sids = [await client.create_session(**spec(i)) for i in range(4)]
                blocks = blocks_for(0)
                for sid in sids:
                    await client.feed(sid, blocks[0])
                dead = server._routes[sids[0]].shard
                victims = [s for s in sids if server._routes[s].shard == dead]
                survivors = [s for s in sids if s not in victims]
                process = server._workers[dead].process
                process.kill()
                await asyncio.get_running_loop().run_in_executor(
                    None, process.join, 10
                )

                with pytest.raises(ServiceError) as err:
                    await client.feed(victims[0], blocks[1])
                assert err.value.error_type == "ShardError"
                for sid in survivors:  # the rest of the fleet keeps serving
                    await client.feed(sid, blocks[1])

                # close is the client's escape hatch for a dead shard
                await client.close_session(victims[0])
                assert (await client.ping())["sessions"] == len(sids) - 1

                info = await server.restart_shard(dead)
                assert info["lost"] == len(victims) - 1
                assert info["sessions"] == 0
                for sid in victims[1:]:  # unsaveable state is dropped loudly
                    with pytest.raises(ServiceError, match="no such session"):
                        await client.query(sid)

                fresh = await client.create_session(**spec(9))
                for block in blocks:
                    await client.feed(fresh, block)
                assert (await client.query(fresh))["step"] == T
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())

    def test_unread_replies_stall_only_their_connection(self):
        """A client that pipelines frames but never reads the replies
        stalls its own connection at the supervisor's read-ahead bound:
        forwarding stops, other connections keep being served, and once
        the client reads, every reply arrives in request order."""

        async def scenario():
            server = ShardedMonitoringServer(shards=1)
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            writer = None
            try:
                sid = await client.create_session(**spec(0))
                await client.feed(sid, blocks_for(0)[0])
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(wire.encode_line({"id": 0, "op": "hello", "wire": 2}))
                assert wire.decode_line(await reader.readline())["wire"] == 2
                frames = 4000  # checkpoint replies: far more than socket buffers
                for request_id in range(1, frames + 1):
                    writer.write(
                        wire.encode_frame(
                            {"id": request_id, "op": "snapshot", "session": sid}
                        )
                    )
                forwarded = -1
                while server.stats["requests"] != forwarded:  # until it stalls
                    forwarded = server.stats["requests"]
                    await asyncio.sleep(0.5)
                assert forwarded < frames
                assert (await client.query(sid))["step"] == BLOCK
                for request_id in range(1, frames + 1):
                    header, _meta, _blob = await asyncio.wait_for(
                        wire.read_frame(reader), 30
                    )
                    assert (header.request_id, header.code) == (request_id, 0)
            finally:
                if writer is not None:
                    writer.close()
                await client.aclose()
                await server.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_shutdown_op_drains_workers(self):
        async def scenario():
            server = ShardedMonitoringServer(shards=1)
            host, port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_shutdown())
            client = await AsyncServiceClient.connect(host, port)
            sid = await client.create_session(**spec(0))
            await client.feed(sid, blocks_for(0)[0])
            response = await client.request("shutdown")
            assert response["stopping"] is True
            await asyncio.wait_for(serve_task, timeout=30)
            await client.aclose()
            return server

        server = asyncio.run(scenario())
        assert all(w.process.exitcode == 0 for w in server._workers)
