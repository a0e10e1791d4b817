"""Stateful protocol fuzzing: every op sequence, every topology, one law.

:class:`ProtocolMachine` walks the full client op vocabulary —
create (valid and invalid), feed, pipelined feed_nowait windows, flush,
advance, query, cost, snapshot, restore (and deliberately corrupted
restores), finalize, close, list, ping, mid-sequence v1→v2 hello
upgrades, checkpoint migrations and whole-shard restarts — and the
:class:`~repro.service.fuzzharness.TopologyHarness` applies each step
to an in-process :class:`~repro.service.session.Session` oracle and to
every configured live topology in lockstep, comparing responses (and
checkpoint blobs, byte for byte) after every op.  Any divergence or
hang raises a shrinkable :class:`DivergenceError`; hypothesis minimises
the sequence and the harness dumps it as JSON for
``python -m repro.service.fuzz_replay``.

Sessions and snapshots live in bundles and *stay there* after
finalize/close — ops addressed at dead ids are part of the vocabulary
(every topology must answer KeyError), not noise to be filtered out.

The file also holds the directed restart-vs-pipeline races (schedules
hypothesis cannot reliably reach): a shard restart racing a window of
in-flight ``feed_nowait``s must never hang and never corrupt — acked
feeds survive into the replacement worker, unacked ones surface as
clean ``ServiceError``s, and the session keeps serving — and checkpoint
migrations racing the same window apply every feed exactly once.
"""

import asyncio
import os

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule

from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.shard import ShardedMonitoringServer
from repro.service import wire

from .conftest import shared_harness, wire_pin

pytestmark = pytest.mark.fuzz

#: Valid session specs (paired with their block width ``n``).  Small on
#: purpose: collisions in n/k/seed make shrunk sequences readable, and
#: tiny nodes keep each compared op to a few milliseconds per topology.
SPECS = (
    {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2, "seed": 1},
    {"algorithm": "approx-monitor", "n": 6, "k": 2, "eps": 0.25, "seed": 3},
    {"algorithm": "exact-cor3.3", "n": 4, "k": 2, "seed": 5},
    {
        "algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2, "seed": 7,
        "workload": "zipf", "num_steps": 24, "block_size": 8,
    },
)

#: Specs every layer must reject — each exercises a different validator
#: (algorithm registry, SessionConfig bounds, wire field allowlist).
BAD_SPECS = (
    {"algorithm": "no-such-algorithm", "n": 4, "k": 1},
    {"algorithm": "approx-monitor", "n": 1, "k": 1},
    {"algorithm": "approx-monitor", "n": 4, "k": 9},
    {"algorithm": "approx-monitor", "n": 4, "k": 1, "bogus_field": True},
    {"algorithm": "approx-monitor", "n": 4, "k": 1, "workload": "zipf"},
)

#: Observation values: small non-negative integers as floats.  The law
#: is about protocol state, not numerics — tiny alphabets shrink well.
VALUES = st.integers(min_value=0, max_value=8).map(float)


class ProtocolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.harness = shared_harness()
        self.harness.reset()
        #: logical session id -> block width n (kept after death so
        #: dead-session feeds still send well-shaped blocks).
        self.width: dict[int, int] = {}
        #: snapshot index -> width of the session it captured.
        self.blob_width: dict[int, int] = {}

    sessions = Bundle("sessions")
    snapshots = Bundle("snapshots")

    def _block(self, data, logical: int, rows: int, width_delta: int = 0):
        n = self.width[logical] + width_delta
        return data.draw(
            st.lists(
                st.lists(VALUES, min_size=n, max_size=n),
                min_size=rows, max_size=rows,
            ),
            label="block",
        )

    # ---------------------------------------------------------------- #
    # Session lifecycle
    # ---------------------------------------------------------------- #
    @rule(target=sessions, spec=st.sampled_from(SPECS))
    def create(self, spec):
        logical = self.harness.create(dict(spec))
        if logical is None:
            return multiple()
        self.width[logical] = spec["n"]
        return logical

    @rule(spec=st.sampled_from(BAD_SPECS))
    def create_invalid(self, spec):
        assert self.harness.create(dict(spec)) is None

    @rule(session=sessions)
    def finalize(self, session):
        self.harness.finalize(session)

    @rule(session=sessions)
    def close(self, session):
        self.harness.close(session)

    # ---------------------------------------------------------------- #
    # Data plane
    # ---------------------------------------------------------------- #
    @rule(session=sessions, rows=st.integers(min_value=1, max_value=3), data=st.data())
    def feed(self, session, rows, data):
        self.harness.feed(session, self._block(data, session, rows))

    @rule(session=sessions, rows=st.integers(min_value=1, max_value=2), data=st.data())
    def feed_nowait(self, session, rows, data):
        self.harness.feed_nowait(session, self._block(data, session, rows))

    @rule(
        session=sessions,
        rows=st.integers(min_value=2, max_value=64),
        pipelined=st.booleans(),
        data=st.data(),
    )
    def feed_quiet_run(self, session, rows, pipelined, data):
        # Independent rows almost always violate a filter; a repeated row
        # with a few perturbed cells gives the engine's time-axis scan
        # multi-row quiet runs to replay between escalations.
        row = self._block(data, session, 1)[0]
        block = [list(row) for _ in range(rows)]
        edits = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=rows - 1),
                    st.integers(min_value=0, max_value=len(row) - 1),
                    VALUES,
                ),
                max_size=3,
            ),
            label="edits",
        )
        for r, c, value in edits:
            block[r][c] = value
        if pipelined:
            self.harness.feed_nowait(session, block)
        else:
            self.harness.feed(session, block)

    @rule(session=sessions, data=st.data())
    def feed_wrong_width(self, session, data):
        self.harness.feed(session, self._block(data, session, 1, width_delta=1))

    @rule(session=sessions, data=st.data(), pipelined=st.booleans())
    def feed_nonfinite(self, session, data, pipelined):
        block = self._block(data, session, 1)
        block[0][0] = float("nan")
        if pipelined:
            self.harness.feed_nowait(session, block)
        else:
            self.harness.feed(session, block)

    @rule()
    def flush(self):
        self.harness.flush()

    @rule(session=sessions, steps=st.sampled_from([None, 1, 3, 10]))
    def advance(self, session, steps):
        self.harness.advance(session, steps)

    # ---------------------------------------------------------------- #
    # Introspection
    # ---------------------------------------------------------------- #
    @rule(session=sessions)
    def query(self, session):
        self.harness.query(session)

    @rule(session=sessions)
    def cost(self, session):
        self.harness.cost(session)

    @rule()
    def list_sessions(self):
        self.harness.list_sessions()

    @rule()
    def ping(self):
        self.harness.ping()

    # ---------------------------------------------------------------- #
    # Checkpoints
    # ---------------------------------------------------------------- #
    @rule(target=snapshots, session=sessions)
    def snapshot(self, session):
        index = self.harness.snapshot(session)
        if index is None:
            return multiple()
        self.blob_width[index] = self.width[session]
        return index

    @rule(target=sessions, blob=snapshots)
    def restore(self, blob):
        logical = self.harness.restore(blob)
        if logical is None:
            return multiple()
        self.width[logical] = self.blob_width[blob]
        return logical

    @rule(blob=st.none() | snapshots)
    def corrupt_restore(self, blob):
        self.harness.corrupt_restore(blob)

    # ---------------------------------------------------------------- #
    # Connection + topology perturbations
    # ---------------------------------------------------------------- #
    @rule()
    def upgrade_wire(self):
        self.harness.upgrade_wire()

    @rule(enabled=st.booleans())
    def toggle_metrics(self, enabled):
        # The metrics-on/off transparency law: scraping and toggling
        # telemetry mid-sequence must move nothing observable either.
        self.harness.set_metrics(enabled)

    @rule(enabled=st.booleans())
    def toggle_durability(self, enabled):
        # WAL appends are transparent too: logging + checkpointing
        # (re-enable forces one) must move nothing observable.
        self.harness.set_durability(enabled)

    @rule(session=sessions)
    def migrate(self, session):
        self.harness.migrate(session)

    @rule(seed=st.integers(min_value=0, max_value=7))
    def restart_shard(self, seed):
        self.harness.restart_shard(seed)

    @rule(seed=st.integers(min_value=0, max_value=7))
    def crash_shard(self, seed):
        # kill -9 a worker, recover from the WAL: nothing acknowledged
        # may be lost, and the recovered state must keep matching the
        # oracle bit for bit (the durability law).
        self.harness.crash_shard(seed)


TestProtocolMachine = ProtocolMachine.TestCase


class TestRestartRacesPipeline:
    """Directed schedules: a feed_nowait window crossing shard restarts
    and checkpoint migrations."""

    N, FEEDS = 6, 48

    def _race(self, disrupt):
        """Spam one session with 2-row feeds while ``disrupt(server, sid)``
        runs; return ``(sent, errors, step, echoed)`` with ``echoed`` the
        supervisor's step count for the session after one more feed."""
        accept = wire.WIRE_V1 if wire_pin() == "v1" else wire.WIRE_V2

        async def scenario():
            server = ShardedMonitoringServer(shards=2, accept_wire=accept)
            await server.start()
            client = None
            try:
                client = await AsyncServiceClient.connect(
                    server.host, server.port, window=self.FEEDS
                )
                sid = await client.create_session(
                    algorithm="approx-monitor", n=self.N, k=2, eps=0.2, seed=11
                )
                block = np.arange(2 * self.N, dtype=np.float64).reshape(2, self.N)

                sent = 0
                errors: list[ServiceError] = []

                async def spam():
                    nonlocal sent
                    for _ in range(self.FEEDS):
                        try:
                            await client.feed_nowait(sid, block)
                        except ServiceError as exc:
                            errors.append(exc)
                            return
                        sent += 1
                        await asyncio.sleep(0.001)  # spread over the disruption

                spam_task = asyncio.create_task(spam())
                await asyncio.sleep(0.005)  # let a window get in flight
                await disrupt(server, sid)
                await spam_task
                try:
                    await client.flush()
                except ServiceError as exc:
                    errors.append(exc)

                # Unacked feeds surface as clean ServiceErrors (asserted
                # by the except clauses above — anything else propagates
                # and fails the test); the session keeps serving.
                status = await client.query(sid)
                before = status["step"]
                applied = await client.feed(sid, block)
                assert applied["step"] == before + 2
                blob = await client.snapshot(sid)
                assert isinstance(blob, bytes) and blob
                echoed = server.stats["steps_ingested"]
                return sent, len(errors), status["step"], echoed, applied["step"]
            finally:
                if client is not None:
                    await client.aclose()
                await server.aclose()

        # Never a hang: the whole schedule, disruptions included, bounded.
        return asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_no_hang_no_corruption(self):
        async def restart_all(server, sid):
            for index in range(server.num_shards):
                await server.restart_shard(index)

        sent, _errors, step, _echoed, _final = self._race(restart_all)
        # Acked feeds survived the restart and the step counts exactly
        # the applied blocks.  Each 2-row block advances the step clock
        # by 2; an odd step would mean a block was half-applied.
        assert 0 <= step <= 2 * sent
        assert step % 2 == 0

    def test_migrations_lose_no_step_and_apply_none_twice(self):
        """Migrations move no frame out of order: every feed of the
        window is applied exactly once, and the supervisor's step echo
        counts each exactly once (replies land on both sides of a move)."""

        async def migrate_around(server, sid):
            for _ in range(2 * server.num_shards):
                await server.migrate_session(sid)
                await asyncio.sleep(0.002)

        sent, errors, step, echoed, final = self._race(migrate_around)
        assert (sent, errors) == (self.FEEDS, 0)
        assert step == 2 * self.FEEDS
        assert echoed == final == step + 2


if os.environ.get("REPRO_FUZZ_SELFTEST"):
    # Not part of any tier: `REPRO_FUZZ_SELFTEST=1 pytest -m fuzz -k smoke`
    # drives one representative hand-written sequence (the same one the
    # development smoke script uses) when iterating on the harness.
    class TestHarnessSmoke:
        def test_one_sequence(self):
            harness = shared_harness()
            harness.reset()
            s = harness.create(dict(SPECS[0]))
            harness.feed(s, [[1.0] * 4])
            harness.feed_nowait(s, [[2.0] * 4])
            harness.flush()
            blob = harness.snapshot(s)
            harness.restore(blob)
            harness.migrate(s)
            harness.restart_shard(1)
            harness.crash_shard(0)
            harness.set_durability(False)
            harness.set_durability(True)
            harness.query(s)
            harness.finalize(s)
            harness.list_sessions()
