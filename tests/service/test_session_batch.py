"""The cohort law at the service layer: batched sessions ≡ serial twins.

Two tiers:

1. :class:`~repro.service.session.SessionBatch` — membership rules and
   ``feed_batch`` ticks at S = 1, 16 and 257 (one non-batchable
   straggler forcing the serial fallback inside a tick), compared
   against serially-fed twin sessions on ``F(t)``, the cost snapshot
   and the checkpoint **bytes**.
2. Served sessions of one cohort — concurrent feeds from many
   connections, in process and behind a 1-shard supervisor, answer
   exactly what the in-process oracle answers.  Servers feed each
   session on its own (coalescing is an in-process library tool only),
   and the retired ``batch`` op is answered as an unknown op.

The sharded topology is covered by the stateful fuzz tier and the
supervisor tests in tests/service/test_shard.py; here the 1-shard case
rides the same scenario via a parametrized topology.
"""

import asyncio

import numpy as np
import pytest

from repro.service import wire
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.server import MonitoringServer
from repro.service.session import Session, SessionBatch, session_from_wire
from repro.service.shard import ShardedMonitoringServer

N, K, EPS = 6, 2, 0.25

SPECS = [
    pytest.param({"algorithm": "approx-monitor", "n": N, "k": K, "eps": EPS}, id="approx"),
    pytest.param({"algorithm": "exact-cor3.3", "n": N, "k": K}, id="exact"),
    pytest.param({"algorithm": "topk-protocol", "n": N, "k": K, "eps": EPS}, id="topk"),
]


def make_session(spec, seed):
    return session_from_wire({**spec, "seed": seed})


def walk_blocks(T, S, n=N, seed=0, jump_every=9):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0, 0.5, size=(T, S, n)), axis=0) + 50.0
    jumps = rng.uniform(20, 60, size=(T, S, n)) * (rng.random((T, S, n)) < 1 / jump_every)
    data = np.abs(base + jumps)
    return [np.ascontiguousarray(data[:, i, :]) for i in range(S)]


def assert_twin(batched: Session, serial: Session):
    assert batched.step == serial.step
    assert batched.messages == serial.messages
    assert batched.output() == serial.output()
    assert batched.cost() == serial.cost()
    assert batched.bill() == serial.bill()
    assert batched.snapshot() == serial.snapshot()  # raw checkpoint bytes


class TestMembership:
    def test_join_requires_matching_cohort(self):
        a = make_session({"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}, 1)
        b = make_session({"algorithm": "approx-monitor", "n": 6, "k": 1, "eps": 0.2}, 1)
        batch = SessionBatch(a.cohort_key)
        batch.join(a)
        batch.join(a)  # idempotent
        assert len(batch) == 1
        with pytest.raises(ValueError, match="cohort"):
            batch.join(b)
        batch.leave(a)
        batch.leave(a)  # idempotent, and safe for never-joined sessions
        batch.leave(b)
        assert len(batch) == 0

    def test_workload_sessions_are_not_batchable(self):
        s = make_session(
            {
                "algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2,
                "workload": "zipf", "num_steps": 16, "block_size": 8,
            },
            1,
        )
        assert not s.batchable

    def test_finalized_sessions_are_not_batchable(self):
        s = make_session({"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}, 1)
        assert s.batchable
        s.finalize()
        assert not s.batchable


class TestCohortLaw:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("S", [1, 16])
    def test_bit_identical_to_serial_twins(self, spec, S):
        T = 48
        blocks = walk_blocks(T, S, seed=5)
        batched = [make_session(spec, seed=i) for i in range(S)]
        serial = [make_session(spec, seed=i) for i in range(S)]
        batch = SessionBatch(batched[0].cohort_key)
        for s in batched:
            batch.join(s)
        # Two ticks so the second starts from already-advanced state.
        for lo, hi in ((0, T // 2), (T // 2, T)):
            results = batch.feed_batch([(s, b[lo:hi]) for s, b in zip(batched, blocks)])
            for s, twin, block, result in zip(batched, serial, blocks, results):
                step = twin.feed(block[lo:hi].copy())
                assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)
        for got, want in zip(batched, serial):
            a, b = got.finalize(), want.finalize()
            assert a.messages == b.messages
            assert a.output_changes == b.output_changes
        assert batch.ticks >= (2 if S > 1 else 0)
        assert batch.batched_steps == (S * T if S > 1 else 0)

    def test_s257_with_straggler_fallback(self):
        """256 batchable members + one opt-out algorithm in the same tick."""
        S, T = 256, 8
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        straggler_spec = {"algorithm": "send-always", "n": 4, "k": 1}
        blocks = walk_blocks(T, S + 1, n=4, seed=9)
        batched = [make_session(spec, seed=i) for i in range(S)]
        batched.append(make_session(straggler_spec, seed=0))
        serial = [make_session(spec, seed=i) for i in range(S)]
        serial.append(make_session(straggler_spec, seed=0))
        assert not batched[-1].batchable  # forces the serial fallback path
        batch = SessionBatch(batched[0].cohort_key)
        results = batch.feed_batch(list(zip(batched, blocks)))
        for twin, block, result in zip(serial, blocks, results):
            step = twin.feed(block.copy())
            assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)
        assert batch.batched_steps == S * T  # the straggler never batched

    def test_unequal_block_lengths_segment(self):
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        lengths = (37, 13, 1, 0)
        blocks = [b[:t] for b, t in zip(walk_blocks(40, 4, n=4, seed=2), lengths)]
        batched = [make_session(spec, seed=i) for i in range(4)]
        serial = [make_session(spec, seed=i) for i in range(4)]
        batch = SessionBatch(batched[0].cohort_key)
        results = batch.feed_batch(list(zip(batched, blocks)))
        for twin, block, result in zip(serial, blocks, results):
            step = twin.feed(block.copy())
            assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)

    def test_finalized_member_surfaces_serial_error(self):
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        blocks = walk_blocks(6, 2, n=4, seed=4)
        alive, dead = make_session(spec, seed=0), make_session(spec, seed=1)
        twin = make_session(spec, seed=0)
        dead.finalize()
        batch = SessionBatch(alive.cohort_key)
        results = batch.feed_batch([(alive, blocks[0]), (dead, blocks[1])])
        step = twin.feed(blocks[0].copy())
        assert results[0] == (step, twin.messages)
        assert isinstance(results[1], RuntimeError)  # "already finalized"
        assert_twin(alive, twin)


def _drive_topology(shards: int):
    """Concurrent per-connection feeds vs serially-fed oracle sessions."""
    spec = {"algorithm": "approx-monitor", "n": N, "k": K, "eps": EPS, "seed": 17}
    S, T, CHUNK = 8, 40, 20
    blocks = walk_blocks(T, S, seed=21)

    async def scenario():
        if shards:
            server: MonitoringServer = ShardedMonitoringServer(shards=shards)
        else:
            server = MonitoringServer()
        await server.start()
        try:

            async def drive(i):
                client = await AsyncServiceClient.connect(server.host, server.port)
                try:
                    sid = (await client.request("create", spec=dict(spec)))["session"]
                    last = None
                    for lo in range(0, T, CHUNK):
                        last = await client.feed(sid, blocks[i][lo : lo + CHUNK])
                    blob = await client.snapshot(sid)
                    final = await client.finalize(sid)
                    return last, blob, final
                finally:
                    await client.aclose()

            return await asyncio.gather(*(drive(i) for i in range(S)))
        finally:
            await server.aclose()

    results = asyncio.run(scenario())
    for i, (last, blob, final) in enumerate(results):
        oracle = session_from_wire(dict(spec))
        oracle.feed(blocks[i].copy())
        assert (last["step"], last["messages"]) == (oracle.step, oracle.messages)
        assert blob == oracle.snapshot()  # checkpoint bytes, the strong form
        expected = oracle.finalize()
        assert final["messages"] == expected.messages
        assert final["output_changes"] == expected.output_changes


class TestServedCohorts:
    def test_inproc_topology_stays_bit_identical(self):
        _drive_topology(shards=0)

    def test_one_shard_topology_stays_bit_identical(self):
        _drive_topology(shards=1)

    def test_retired_batch_op_is_unknown(self):
        """Code 15 (``batch``) is reserved: both framings answer it as an
        unknown op, and the connection keeps serving."""

        async def scenario():
            server = MonitoringServer()
            await server.start()
            try:
                client = await AsyncServiceClient.connect(
                    server.host, server.port, wire_protocol="v1"
                )
                try:
                    with pytest.raises(ServiceError, match="unknown op") as err:
                        await client.request("batch", enabled=False)
                    assert err.value.error_type == "WireError"
                    assert (await client.ping())["pong"] is True
                finally:
                    await client.aclose()
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    writer.write(wire.encode_line({"id": 1, "op": "hello", "wire": 2}))
                    assert wire.decode_line(await reader.readline())["wire"] == 2
                    writer.write(
                        wire.pack_header(
                            kind=wire.KIND_NONE, code=15, request_id=7, session=0,
                            meta_len=0, payload_len=0,
                        )
                        + wire.encode_frame({"id": 8, "op": "ping"})
                    )
                    for request_id, ok in ((7, False), (8, True)):
                        reply = wire.decode_frame(*await wire.read_frame(reader))
                        assert (reply["id"], reply["ok"]) == (request_id, ok)
                        if not ok:
                            assert "unknown op code 15" in reply["error"]
                finally:
                    writer.close()
            finally:
                await server.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))
