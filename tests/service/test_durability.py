"""Chaos: kill -9 a shard worker mid-pipeline — nothing acknowledged is lost.

The PR's acceptance law, asserted end to end: a sharded server with a
WAL directory gets a worker SIGKILLed while a window of pipelined feeds
is in flight; ``restart_shard`` must recover every resident session
from the worker's write-ahead log (``lost == 0``), and after the client
re-drives the unacknowledged tail (query the recovered step, resend
from that block boundary — the documented recovery protocol of
docs/OPERATIONS.md) every observable — F(t) status, cost snapshot,
checkpoint bytes, finalize result — is bit-identical to an in-process
twin that never crashed.  CI runs this file under both wire pins
(``REPRO_WIRE=v1`` / ``v2``); the client honors the variable on
connect.

The second scenario is the zero-downtime flavor: a graceful rolling
restart (``restart_shard(..., graceful=True)``) drains residents by
checkpoint-migration instead of replaying them, with the same
bit-identical outcome and zero loss.  The third stops a worker instead
of killing it: the supervisor's deadline must fail that worker's frames
while the rest of the fleet serves on.
"""

import asyncio
import os
import signal

from repro.service import shard
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.session import session_from_wire
from repro.service.shard import ShardedMonitoringServer
from repro.streams import registry

T, N, K, EPS = 360, 16, 3, 0.15
BLOCK = 60
SESSIONS = 3
PREFIX = 2  # blocks acknowledged one-by-one before the pipelined burst


def spec(index: int) -> dict:
    return dict(algorithm="approx-monitor", n=N, k=K, eps=EPS, seed=3 + index)


def blocks_for(index: int) -> list:
    source = registry.stream("zipf", T, N, block_size=BLOCK, rng=13 + index)
    return list(source.iter_blocks())


def twin(index: int):
    """A never-crashed in-process session fed the full stream."""
    session = session_from_wire(spec(index))
    for block in blocks_for(index):
        session.feed(block)
    return session


def result_payload(result) -> dict:
    """The finalize summary exactly as the server serializes it."""
    return {
        "algorithm": result.algorithm_name,
        "num_steps": result.num_steps,
        "n": result.n,
        "k": result.k,
        "messages": result.messages,
        "output_changes": result.output_changes,
        "max_rounds_per_step": result.ledger.max_rounds_per_step,
        "by_scope": result.ledger.by_scope(),
    }


async def _flush_all(client) -> int:
    """Drain the pipeline; count (don't propagate) failed feeds."""
    errors = 0
    while True:
        try:
            await client.flush()
            return errors
        except ServiceError:
            errors += 1


async def _assert_bit_identical(client, sids) -> None:
    """Every observable matches the never-crashed twin, bit for bit."""
    for index, sid in enumerate(sids):
        reference = twin(index)
        status = await client.query(sid)
        assert status["step"] == reference.step == T
        assert status["messages"] == reference.messages
        cost = await client.cost(sid)
        assert cost["messages"] == reference.cost().messages
        assert cost["by_scope"] == reference.bill()
        assert await client.snapshot(sid) == reference.snapshot()
        assert await client.finalize(sid) == result_payload(reference.finalize())


class TestKillNineMidPipeline:
    def test_no_acknowledged_feed_lost(self, tmp_path):
        async def scenario():
            server = ShardedMonitoringServer(shards=2, wal_dir=tmp_path)
            await server.start()
            client = None
            try:
                client = await AsyncServiceClient.connect(
                    server.host, server.port, window=8
                )
                sids = [
                    await client.create_session(**spec(i))
                    for i in range(SESSIONS)
                ]
                streams = {i: blocks_for(i) for i in range(SESSIONS)}
                for i, sid in enumerate(sids):
                    for block in streams[i][:PREFIX]:
                        await client.feed(sid, block)

                # pipeline the whole remaining stream, then murder the
                # shard hosting sids[0] while the window is in flight
                victim = server._routes[sids[0]].shard
                sent_errors = 0
                for count in range(PREFIX, T // BLOCK):
                    for i, sid in enumerate(sids):
                        try:
                            await client.feed_nowait(sid, streams[i][count])
                        except ServiceError:
                            sent_errors += 1
                os.kill(
                    server._workers[victim].process.pid, signal.SIGKILL
                )
                await _flush_all(client)

                info = await server.restart_shard(victim)
                assert info["lost"] == 0
                assert info["recovered"] >= 1  # sids[0] lives there

                # the documented client recovery protocol: query the
                # recovered step, resend from that block boundary —
                # never blind-retry (a duplicate would double-feed)
                for i, sid in enumerate(sids):
                    status = await client.query(sid)
                    step = status["step"]
                    assert step % BLOCK == 0  # blocks apply atomically
                    assert step >= PREFIX * BLOCK  # acked prefix intact
                    for block in streams[i][step // BLOCK :]:
                        await client.feed(sid, block)

                await _assert_bit_identical(client, sids)
            finally:
                if client is not None:
                    await client.aclose()
                await server.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))


class TestGracefulRollingRestart:
    def test_drain_migrates_without_loss(self, tmp_path):
        async def scenario():
            server = ShardedMonitoringServer(shards=2, wal_dir=tmp_path)
            await server.start()
            client = None
            try:
                client = await AsyncServiceClient.connect(server.host, server.port)
                sids = [
                    await client.create_session(**spec(i))
                    for i in range(SESSIONS)
                ]
                streams = {i: blocks_for(i) for i in range(SESSIONS)}
                half = (T // BLOCK) // 2
                for i, sid in enumerate(sids):
                    for block in streams[i][:half]:
                        await client.feed(sid, block)

                # roll the whole fleet, one shard at a time; residents
                # drain to peers via checkpoint migration, not replay
                migrated = 0
                for index in range(server.num_shards):
                    info = await server.restart_shard(index, graceful=True)
                    assert info["lost"] == 0
                    migrated += info["migrated"]
                assert migrated >= len(sids)  # every resident drained

                for i, sid in enumerate(sids):
                    status = await client.query(sid)
                    assert status["step"] == half * BLOCK  # no loss
                    for block in streams[i][half:]:
                        await client.feed(sid, block)

                await _assert_bit_identical(client, sids)
            finally:
                if client is not None:
                    await client.aclose()
                await server.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))


class TestStoppedWorker:
    """The stuck-worker row of docs/OPERATIONS.md §6, injected with SIGSTOP.

    Feeds run on their worker's event loop, so a stuck feed holds its
    whole process: nothing on that worker answers, ``ping`` and
    ``query`` included.  The supervisor's per-link deadline turns that
    into :class:`ShardError` replies for the stopped worker's frames —
    in flight and new alike — while the other shard keeps serving; a
    SIGKILL (a stopped process ignores SIGTERM until continued) and
    ``restart_shard`` then recover every session from the log.
    """

    DEADLINE = 1.0

    def test_deadline_fails_its_frames_and_restart_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shard, "_FORWARD_TIMEOUT", self.DEADLINE)
        slack = 5.0  # scheduling on a loaded CI host, not protocol time

        async def scenario():
            server = ShardedMonitoringServer(shards=2, wal_dir=tmp_path)
            await server.start()
            clients = []
            stopped = None
            try:
                client = await AsyncServiceClient.connect(server.host, server.port)
                other = await AsyncServiceClient.connect(server.host, server.port)
                clients += [client, other]
                sids = []
                while len({server._routes[s].shard for s in sids}) < 2:
                    sids.append(await client.create_session(**spec(len(sids))))
                stream = blocks_for(0)
                for sid in sids:
                    await client.feed(sid, stream[0])
                victim_shard = server._routes[sids[0]].shard
                victims = [s for s in sids if server._routes[s].shard == victim_shard]
                survivor = next(s for s in sids if s not in victims)

                stopped = server._workers[victim_shard].process.pid
                os.kill(stopped, signal.SIGSTOP)
                loop = asyncio.get_running_loop()

                # In-flight frames: a pipelined window to a stopped worker.
                start = loop.time()
                for block in stream[1:4]:
                    await client.feed_nowait(victims[0], block)
                # The other shard keeps serving meanwhile.
                ack = await asyncio.wait_for(
                    other.feed(survivor, stream[1]), timeout=self.DEADLINE
                )
                assert ack["step"] == 2 * BLOCK
                try:
                    await client.flush()
                except ServiceError as exc:
                    assert exc.error_type == "ShardError"
                else:
                    raise AssertionError("frames to a stopped worker were acked")
                assert loop.time() - start < 3 * self.DEADLINE + slack

                # A new frame: the reconnect's hello meets the deadline too.
                start = loop.time()
                try:
                    await client.query(victims[0])
                except ServiceError as exc:
                    assert exc.error_type == "ShardError"
                else:
                    raise AssertionError("a stopped worker answered a query")
                assert loop.time() - start < self.DEADLINE + slack
                assert (await other.query(survivor))["step"] == 2 * BLOCK

                os.kill(stopped, signal.SIGKILL)
                stopped = None
                info = await server.restart_shard(victim_shard)
                assert info["lost"] == 0
                assert info["recovered"] == len(victims)
                for sid in victims:  # the acked block survived, nothing else
                    assert (await client.query(sid))["step"] == BLOCK
                assert (await client.feed(victims[0], stream[1]))["step"] == 2 * BLOCK
            finally:
                if stopped is not None:
                    os.kill(stopped, signal.SIGKILL)
                for c in clients:
                    await c.aclose()
                await server.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))
