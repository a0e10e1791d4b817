"""Cross-topology differential harness for the stateful protocol fuzzer.

The topology-independence law says one op sequence must produce
bit-identical observables no matter how it is served: in-process,
behind a 1-shard supervisor, or spread over 4 shard workers — under
either wire framing, across mid-sequence v1→v2 upgrades, checkpoint
migrations and whole-shard restarts.  This module turns that law into
an executable check: :class:`TopologyHarness` applies every op of a
generated sequence to

- a pure in-process :class:`~repro.service.session.Session` **oracle**
  (no sockets, no server — the semantics the model layer defines), and
- one live server per configured topology,

in lockstep, and compares the normalized responses — or the raised
error's type — across all of them after every single op.  The oracle
needs no mocking because a server hosts the very same ``Session``
stack: a healthy server's error type is ``type(exc).__name__`` of the
exception the oracle raises.  Checkpoint blobs are compared as raw
bytes: sessions pickle canonically (see ``model/ledger.py``,
``model/engine.py``, ``model/node.py``), so the blob is a pure
function of session state.

The harness is deliberately hypothesis-agnostic: the state machine in
tests/service/stateful/ drives it, and ``python -m
repro.service.fuzz_replay failure.json`` re-drives a recorded sequence
without hypothesis in the loop.  Every op is appended to
:attr:`TopologyHarness.trace` in a JSON-serializable form; on the
first divergence the harness dumps the trace (see
:func:`failure_dump_path`) and raises :class:`DivergenceError`, which
hypothesis shrinks to a minimal sequence.

Hangs are failures too: every client call runs under :data:`OP_TIMEOUT`,
so a lost ack or a deadlocked lock surfaces as a shrinkable assertion
instead of wedging the test run.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.service import wire
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.server import MonitoringServer
from repro.service.session import Session, session_from_wire
from repro.service.shard import ShardedMonitoringServer

__all__ = [
    "OP_TIMEOUT",
    "TOPOLOGIES",
    "DivergenceError",
    "TopologyHarness",
    "configured_topologies",
    "failure_dump_path",
]

#: Ceiling on one client call.  Deliberately above the shard
#: supervisor's ``_FORWARD_TIMEOUT`` so a hung *worker* surfaces as the
#: supervisor's ShardError response (a comparable outcome) before the
#: harness declares the whole topology hung.
OP_TIMEOUT = 90.0

#: All known topologies, name -> shard worker count (0 = in-process).
TOPOLOGIES: dict[str, int] = {"inproc": 0, "shard1": 1, "shard4": 4}


def configured_topologies() -> tuple[str, ...]:
    """Topology set under test (env ``REPRO_FUZZ_TOPOLOGIES``).

    Defaults to all three.  CI's short profile trims to
    ``inproc,shard1``; the nightly long profile runs the full set.
    """
    raw = os.environ.get("REPRO_FUZZ_TOPOLOGIES", "inproc,shard1,shard4")
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = [name for name in names if name not in TOPOLOGIES]
    if unknown or not names:
        raise ValueError(
            f"REPRO_FUZZ_TOPOLOGIES must name topologies from "
            f"{sorted(TOPOLOGIES)}, got {raw!r}"
        )
    return names


def failure_dump_path() -> Path:
    """Where a diverging sequence is dumped (env ``REPRO_FUZZ_DUMP``)."""
    return Path(os.environ.get("REPRO_FUZZ_DUMP", ".hypothesis/fuzz-failure.json"))


class DivergenceError(AssertionError):
    """Two serving topologies (or a topology and the oracle) disagreed."""


def _short(value: Any, limit: int = 800) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + f"… [{len(text)} chars]"


class _Topology:
    """One live serving stack: server + a single client connection."""

    def __init__(self, name: str, server: MonitoringServer) -> None:
        self.name = name
        self.server = server
        self.client: AsyncServiceClient | None = None
        #: logical session id -> this topology's wire session id.  The
        #: numeric ids genuinely diverge across topologies (a failed
        #: create burns an id on the supervisor but not on the
        #: in-process server), so all comparisons go through this map.
        self.sids: dict[int, str] = {}


class TopologyHarness:
    """Drive one op sequence against every topology plus the oracle.

    Parameters
    ----------
    wire_pin:
        ``"v1"`` pins every server to JSON lines (the ``hello`` upgrade
        is *refused*, which :meth:`upgrade_wire` asserts); ``"auto"``
        lets it negotiate binary frames mid-sequence.  Connections
        always start in v1, matching the protocol's design.
    topologies:
        Names from :data:`TOPOLOGIES`; defaults to
        :func:`configured_topologies`.
    """

    def __init__(
        self, wire_pin: str = "auto", topologies: tuple[str, ...] | None = None
    ) -> None:
        if wire_pin not in ("v1", "auto"):
            raise ValueError(f"wire_pin must be 'v1' or 'auto', got {wire_pin!r}")
        self.wire_pin = wire_pin
        self.topology_names = tuple(topologies or configured_topologies())
        self.accept_wire = wire.WIRE_V1 if wire_pin == "v1" else wire.WIRE_V2
        self._loop = asyncio.new_event_loop()
        self._topologies: list[_Topology] = []
        #: Per-topology WAL directories (temp; removed at teardown, but
        #: copied next to the failure dump first when a run diverges).
        self._wal_dirs: list[str] = []
        #: The in-process oracle: logical id -> live Session (``None``
        #: once finalized/closed — ops on the id must fail KeyError).
        self._oracle: dict[int, Session | None] = {}
        self._next_logical = 0
        #: Blobs captured by snapshot ops: one dict per snapshot,
        #: keyed by topology name plus ``"oracle"``.
        self._blobs: list[dict[str, bytes]] = []
        #: Mirrors the servers' durability toggle (transparent mode, so
        #: no oracle involvement) — :meth:`crash_shard` only asserts
        #: lossless recovery while appends are actually on.
        self._durability = True
        #: Acceptable error types for the first queued pipelined-feed
        #: failure (``None`` = no failure queued).  A set, not a single
        #: type: for a doubly-invalid feed (dead session *and*
        #: non-finite block) the reported type legitimately depends on
        #: validation order — v2 decodes the payload before dispatch
        #: (WireError) while the sharded pass-through checks the route
        #: first (KeyError) — and the law only fixes single-fault types.
        self._pipeline_expect: frozenset[str] | None = None
        #: JSON-serializable record of every op applied (for replay).
        self.trace: list[dict[str, Any]] = []
        #: Set on any failure: server state can no longer be assumed to
        #: be in lockstep, so the owner must rebuild the harness.
        self.dirty = False
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._started:
            raise RuntimeError("harness already started")
        self._started = True
        self._run(self._start())

    async def _start(self) -> None:
        for name in self.topology_names:
            shards = TOPOLOGIES[name]
            # Every topology runs WAL-backed: durability is a
            # transparent mode (appends observe acked ops, never session
            # state), so the differential run doubles as the check that
            # logging + checkpointing moves nothing observable — and the
            # crash_shard perturbation needs a log to recover from.
            wal_dir = tempfile.mkdtemp(prefix=f"repro-fuzz-wal-{name}-")
            self._wal_dirs.append(wal_dir)
            if shards:
                server: MonitoringServer = ShardedMonitoringServer(
                    shards=shards, accept_wire=self.accept_wire, wal_dir=wal_dir
                )
            else:
                server = MonitoringServer(accept_wire=self.accept_wire, wal_dir=wal_dir)
            await server.start()
            self._topologies.append(_Topology(name, server))
        await self._connect_clients()

    async def _connect_clients(self) -> None:
        for topo in self._topologies:
            if topo.client is not None:
                await topo.client.aclose()
            # Every connection starts as v1 JSON lines; the ``upgrade``
            # op performs the mid-sequence hello negotiation.
            topo.client = await AsyncServiceClient.connect(
                topo.server.host, topo.server.port, wire_protocol="v1", window=4
            )

    def reset(self) -> None:
        """Fresh example on reused servers: drop sessions, reconnect.

        Rebuilding 4-shard worker fleets per example would dominate the
        run time, so the servers persist across examples and only the
        per-example state (sessions, connections, wire version,
        pipeline windows) is recycled.  A dirty harness must not be
        reset — the owner rebuilds it from scratch.
        """
        if self.dirty:
            raise RuntimeError("dirty harness cannot be reset; rebuild it")
        if not self._started:
            self.start()
        self._run(self._reset())
        self._oracle.clear()
        self._blobs.clear()
        self.trace.clear()
        self._pipeline_expect = None
        # Logical ids restart per example so a dumped trace replays
        # verbatim: the same op sequence mints the same ids.
        self._next_logical = 0

    async def _reset(self) -> None:
        await self._connect_clients()  # fresh v1 connections, clean pipelines
        for topo in self._topologies:
            assert topo.client is not None
            for logical, sid in list(topo.sids.items()):
                if self._oracle.get(logical) is not None:
                    await asyncio.wait_for(topo.client.close_session(sid), OP_TIMEOUT)
            topo.sids.clear()
            # A previous example may have toggled durability off on the
            # reused server; each example starts appending (the
            # re-enable also forces a checkpoint, truncating the log).
            await asyncio.wait_for(topo.client.durability(True), OP_TIMEOUT)
        self._durability = True

    def teardown(self) -> None:
        """Shut every topology down (asserting the shutdown op answers)."""
        if not self._started:
            return
        try:
            self._run(self._teardown())
        finally:
            self._loop.close()
            self._started = False
            for wal_dir in self._wal_dirs:
                shutil.rmtree(wal_dir, ignore_errors=True)
            self._wal_dirs.clear()

    async def _teardown(self) -> None:
        for topo in self._topologies:
            try:
                if topo.client is not None and not self.dirty:
                    # shutdown is part of the vocabulary under test: a
                    # clean teardown exercises it on every topology.
                    response = await asyncio.wait_for(
                        topo.client.request("shutdown"), OP_TIMEOUT
                    )
                    assert response.get("stopping") is True, response
            except (ServiceError, OSError, asyncio.TimeoutError):
                pass  # a dirty/hung server still gets force-closed below
            finally:
                if topo.client is not None:
                    await topo.client.aclose()
                await topo.server.aclose()

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    # ------------------------------------------------------------------ #
    # Failure plumbing
    # ------------------------------------------------------------------ #
    def _record(self, op: str, **args: Any) -> None:
        self.trace.append({"op": op, **args})

    def _dump_failure(self, reason: str) -> Path:
        path = failure_dump_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "wire_pin": self.wire_pin,
                    "topologies": list(self.topology_names),
                    "reason": reason,
                    "ops": self.trace,
                },
                indent=2,
            )
        )
        # Preserve the WAL state alongside the trace: the logs are the
        # forensic record of exactly which ops were acknowledged, and
        # the teardown below would otherwise delete them (CI uploads
        # this directory as the failure artifact).
        wal_copy = path.with_name(path.name + ".wal")
        shutil.rmtree(wal_copy, ignore_errors=True)
        for name, wal_dir in zip(self.topology_names, self._wal_dirs):
            if os.path.isdir(wal_dir):
                shutil.copytree(wal_dir, wal_copy / name, dirs_exist_ok=True)
        return path

    def _fail(self, message: str) -> None:
        self.dirty = True
        path = self._dump_failure(message)
        raise DivergenceError(
            f"{message}\nsequence dumped to {path} — replay with:\n"
            f"  python -m repro.service.fuzz_replay {path}"
        )

    async def _call(self, topo: _Topology, coro) -> tuple[str, Any]:
        """One client call -> ``('ok', payload)`` | ``('error', type)``."""
        try:
            return "ok", await asyncio.wait_for(coro, OP_TIMEOUT)
        except ServiceError as exc:
            return "error", exc.error_type or type(exc).__name__
        except wire.WireError:
            # Client-side encode rejection: nothing reached the wire.
            return "error", "WireError"
        except asyncio.TimeoutError:
            self._fail(
                f"[{topo.name}] call did not answer within {OP_TIMEOUT:.0f}s "
                "(hang: lost ack or deadlock)"
            )
            raise AssertionError("unreachable")  # _fail always raises

    def _oracle_call(self, fn) -> tuple[str, Any]:
        """One oracle step, in the same outcome shape as :meth:`_call`."""
        try:
            return "ok", fn()
        except Exception as exc:
            return "error", type(exc).__name__

    def _compare(
        self,
        op: str,
        expected: tuple[str, Any],
        results: list[tuple[str, tuple[str, Any]]],
    ) -> None:
        """Assert every topology's outcome matches the oracle's."""
        for name, outcome in results:
            if outcome[0] != expected[0] or outcome[1] != expected[1]:
                self._fail(
                    f"op {op!r}: [{name}] diverges from the oracle:\n"
                    f"  {name}: {outcome[0]} {_short(outcome[1])}\n"
                    f"  oracle: {expected[0]} {_short(expected[1])}"
                )

    def _barrier(self) -> None:
        """The client contract makes every op an implicit pipeline
        barrier: a queued feed failure pre-empts the next op.  The
        harness runs that barrier explicitly (as a compared flush op)
        so the op's own outcome stays comparable across topologies."""
        if self._pipeline_expect is not None:
            self.flush()

    def _note_pipeline_error(self, *error_types: str) -> None:
        if self._pipeline_expect is None:  # the first failure wins
            self._pipeline_expect = frozenset(error_types)

    def _logical_of(self, topo: _Topology, sid: str) -> int | None:
        for logical, mapped in topo.sids.items():
            if mapped == sid:
                return logical
        return None

    def _sid(self, topo: _Topology, logical: int) -> str:
        # A never-granted logical id maps to a syntactically valid but
        # unknown sid, so "op on a dead/unknown session" is exercisable.
        return topo.sids.get(logical, f"s{4_000_000_000 + logical}")

    @staticmethod
    def _is_nonfinite(array: np.ndarray) -> bool:
        return bool(array.size) and not bool(np.all(np.isfinite(array)))

    # ------------------------------------------------------------------ #
    # Vocabulary
    # ------------------------------------------------------------------ #
    def create(self, spec: dict[str, Any]) -> int | None:
        """``create``; returns the new logical id (None if rejected)."""
        self._barrier()
        self._record("create", spec=spec)
        expected = self._oracle_call(lambda: session_from_wire(dict(spec)))
        expected_cmp = (
            expected
            if expected[0] == "error"
            else ("ok", {"step": expected[1].step})
        )
        results = []
        sids: dict[str, str] = {}
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(
                self._call(topo, topo.client.request("create", spec=dict(spec)))
            )
            if outcome[0] == "ok":
                sids[topo.name] = outcome[1]["session"]
                outcome = ("ok", {"step": outcome[1]["step"]})
            results.append((topo.name, outcome))
        self._compare("create", expected_cmp, results)
        if expected[0] == "error":
            return None
        logical = self._next_logical
        self._next_logical += 1
        self._oracle[logical] = expected[1]
        for topo in self._topologies:
            topo.sids[logical] = sids[topo.name]
        return logical

    def _session_op(self, op: str, logical: int, oracle_fn, client_fn) -> Any:
        """Shared plumbing for ops addressed at one session.

        ``oracle_fn(session)`` produces the expected payload (or raises
        the expected exception); ``client_fn(client, sid)`` returns a
        coroutine producing the comparably normalized payload.
        """
        oracle_session = self._oracle.get(logical)
        if oracle_session is None:
            # Finalized/closed (or never existed): every server answers
            # KeyError from its slot/route lookup.
            expected: tuple[str, Any] = ("error", "KeyError")
        else:
            expected = self._oracle_call(lambda: oracle_fn(oracle_session))
        results = []
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(
                self._call(topo, client_fn(topo.client, self._sid(topo, logical)))
            )
            results.append((topo.name, outcome))
        self._compare(op, expected, results)
        return expected[1] if expected[0] == "ok" else None

    def feed(self, logical: int, block: list[list[float]]) -> None:
        self._barrier()
        self._record("feed", session=logical, block=block)
        array = np.asarray(block, dtype=np.float64)
        if self._is_nonfinite(array):
            self._feed_nonfinite(logical, array)
            return

        def oracle_fn(session: Session) -> dict[str, Any]:
            step = session.feed(array.copy())
            return {"step": step, "messages": session.messages}

        def client_fn(client: AsyncServiceClient, sid: str):
            async def run():
                response = await client.feed(sid, array)
                return {"step": response["step"], "messages": response["messages"]}

            return run()

        self._session_op("feed", logical, oracle_fn, client_fn)

    def _feed_nonfinite(self, logical: int, array: np.ndarray) -> None:
        """A non-finite batch is rejected at the wire as WireError on
        every topology — *before* any session state is touched.  When
        the session is also dead the reported type is validation-order
        dependent (see :attr:`_pipeline_expect`), so each topology may
        answer either type of the double fault."""
        alive = self._oracle.get(logical) is not None
        acceptable = {"WireError"} if alive else {"WireError", "KeyError"}
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(
                self._call(
                    topo, topo.client.feed(self._sid(topo, logical), array)
                )
            )
            if outcome[0] != "error" or outcome[1] not in acceptable:
                self._fail(
                    f"op 'feed': [{topo.name}] non-finite batch answered "
                    f"{outcome[0]} {_short(outcome[1])} (expected one of "
                    f"{sorted(acceptable)})"
                )

    def feed_nowait(self, logical: int, block: list[list[float]]) -> None:
        """Queue a pipelined feed everywhere; the oracle applies it now.

        No comparison happens here — per the client contract the ack
        surfaces at the next barrier (an explicit :meth:`flush` or any
        other op).  The oracle's session state is untouched by a
        failing block, matching the server, and the expected
        first-error type is remembered for the barrier's comparison.
        """
        self._record("feed_nowait", session=logical, block=block)
        array = np.asarray(block, dtype=np.float64)
        oracle_session = self._oracle.get(logical)
        if self._is_nonfinite(array):
            if oracle_session is None:
                self._note_pipeline_error("WireError", "KeyError")
            else:
                self._note_pipeline_error("WireError")
        elif oracle_session is None:
            self._note_pipeline_error("KeyError")
        else:
            try:
                oracle_session.feed(array.copy())
            except Exception as exc:
                self._note_pipeline_error(type(exc).__name__)
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(
                self._call(
                    topo, topo.client.feed_nowait(self._sid(topo, logical), array)
                )
            )
            if outcome[0] == "error":
                # feed_nowait itself only raises for client-side encode
                # failures, which none of the generated blocks trigger —
                # anything here is a real bug (e.g. a poisoned pipeline).
                self._fail(
                    f"op 'feed_nowait': [{topo.name}] raised "
                    f"{_short(outcome[1])} while queueing"
                )

    def flush(self) -> None:
        """Barrier: drain pipelined acks everywhere, compare outcomes."""
        self._record("flush")
        expect, self._pipeline_expect = self._pipeline_expect, None
        for topo in self._topologies:
            assert topo.client is not None

            async def run(client=topo.client):
                await client.flush()
                return None

            outcome = self._run(self._call(topo, run()))
            if expect is None:
                if outcome[0] != "ok":
                    self._fail(
                        f"op 'flush': [{topo.name}] surfaced "
                        f"{_short(outcome[1])} with no failure queued"
                    )
            elif outcome[0] != "error" or outcome[1] not in expect:
                self._fail(
                    f"op 'flush': [{topo.name}] answered {outcome[0]} "
                    f"{_short(outcome[1])}; the oracle queued a failure of "
                    f"type {sorted(expect)}"
                )

    def advance(self, logical: int, steps: int | None) -> None:
        self._barrier()
        self._record("advance", session=logical, steps=steps)

        def oracle_fn(session: Session) -> dict[str, Any]:
            step = session.advance(steps)
            return {"step": step, "messages": session.messages, "done": session.done}

        def client_fn(client: AsyncServiceClient, sid: str):
            async def run():
                response = await client.advance(sid, steps)
                return {
                    "step": response["step"],
                    "messages": response["messages"],
                    "done": response["done"],
                }

            return run()

        self._session_op("advance", logical, oracle_fn, client_fn)

    def query(self, logical: int) -> None:
        self._barrier()
        self._record("query", session=logical)

        def client_fn(client: AsyncServiceClient, sid: str):
            async def run():
                response = await client.query(sid)
                return {
                    key: value
                    for key, value in response.items()
                    if key not in ("id", "ok", "session")
                }

            return run()

        self._session_op("query", logical, lambda s: s.status(), client_fn)

    def cost(self, logical: int) -> None:
        self._barrier()
        self._record("cost", session=logical)

        def oracle_fn(session: Session) -> dict[str, Any]:
            snap = session.cost()
            return {
                "messages": snap.messages,
                "node_to_server": snap.node_to_server,
                "server_to_node": snap.server_to_node,
                "broadcasts": snap.broadcasts,
                "rounds": snap.rounds,
                "broadcast_cost": snap.broadcast_cost,
                "by_scope": session.bill(),
            }

        def client_fn(client: AsyncServiceClient, sid: str):
            async def run():
                response = await client.cost(sid)
                return {
                    key: value
                    for key, value in response.items()
                    if key not in ("id", "ok", "session")
                }

            return run()

        self._session_op("cost", logical, oracle_fn, client_fn)

    def snapshot(self, logical: int) -> int | None:
        """``snapshot``; blobs must be bit-identical across topologies.

        Returns an index usable by :meth:`restore` (None on failure).
        """
        self._barrier()
        self._record("snapshot", session=logical)
        blobs: dict[str, bytes] = {}

        def oracle_fn(session: Session) -> dict[str, Any]:
            blob = session.snapshot()
            blobs["oracle"] = blob
            return {"blob": blob}

        def client_fn(client: AsyncServiceClient, sid: str):
            topo_name = next(t.name for t in self._topologies if t.client is client)

            async def run():
                blob = await client.snapshot(sid)
                blobs[topo_name] = blob
                # The blob IS the compared payload: canonical pickling
                # (SNAPSHOT_FORMAT 2) makes byte equality the contract.
                return {"blob": blob}

            return run()

        payload = self._session_op("snapshot", logical, oracle_fn, client_fn)
        if payload is None:
            return None
        self._blobs.append(blobs)
        return len(self._blobs) - 1

    def restore(self, blob_index: int) -> int | None:
        """``restore`` from a recorded blob; returns the new logical id.

        Each topology restores *its own* snapshot bytes — which
        :meth:`snapshot` already proved identical — so a restored
        session must continue bit-identically everywhere.
        """
        self._barrier()
        self._record("restore", blob=blob_index)
        blobs = self._blobs[blob_index]
        expected = self._oracle_call(lambda: Session.restore(blobs["oracle"]))
        expected_cmp = (
            expected if expected[0] == "error" else ("ok", {"step": expected[1].step})
        )
        results = []
        sids: dict[str, str] = {}
        for topo in self._topologies:
            assert topo.client is not None

            async def run(client=topo.client, blob=blobs[topo.name]):
                sid = await client.restore(blob)
                return {"sid": sid, "step": (await client.query(sid))["step"]}

            outcome = self._run(self._call(topo, run()))
            if outcome[0] == "ok":
                sids[topo.name] = outcome[1]["sid"]
                outcome = ("ok", {"step": outcome[1]["step"]})
            results.append((topo.name, outcome))
        self._compare("restore", expected_cmp, results)
        if expected[0] == "error":
            return None
        logical = self._next_logical
        self._next_logical += 1
        self._oracle[logical] = expected[1]
        for topo in self._topologies:
            topo.sids[logical] = sids[topo.name]
        return logical

    def corrupt_restore(self, blob_index: int | None) -> None:
        """``restore`` with a corrupted blob: SnapshotError everywhere.

        ``blob_index=None`` sends plain garbage; otherwise a truncated
        prefix of a previously captured (valid) checkpoint.
        """
        self._barrier()
        self._record("corrupt_restore", blob=blob_index)
        if blob_index is None:
            garbage = b"not a checkpoint at all"
        else:
            source = self._blobs[blob_index]["oracle"]
            garbage = source[: max(1, len(source) // 2)]
        expected = self._oracle_call(lambda: Session.restore(garbage))
        results = []
        for topo in self._topologies:
            assert topo.client is not None

            async def run(client=topo.client):
                return await client.restore(garbage)

            results.append((topo.name, self._run(self._call(topo, run()))))
        self._compare("corrupt_restore", expected, results)

    def finalize(self, logical: int) -> None:
        self._barrier()
        self._record("finalize", session=logical)

        def oracle_fn(session: Session) -> dict[str, Any]:
            result = session.finalize()
            self._oracle[logical] = None  # the server drops the slot too
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

        def client_fn(client: AsyncServiceClient, sid: str):
            return client.finalize(sid)

        self._session_op("finalize", logical, oracle_fn, client_fn)

    def close(self, logical: int) -> None:
        self._barrier()
        self._record("close", session=logical)

        def oracle_fn(session: Session) -> None:
            self._oracle[logical] = None
            return None

        def client_fn(client: AsyncServiceClient, sid: str):
            async def run():
                await client.close_session(sid)
                return None

            return run()

        self._session_op("close", logical, oracle_fn, client_fn)

    def list_sessions(self) -> None:
        """``list``: same live sessions, same status rows, everywhere."""
        self._barrier()
        self._record("list")
        expected_rows = sorted(
            (
                {"logical": logical, **session.status()}
                for logical, session in self._oracle.items()
                if session is not None
            ),
            key=lambda row: row["logical"],
        )
        results = []
        for topo in self._topologies:
            assert topo.client is not None

            async def run(topo=topo):
                rows = [
                    {
                        "logical": self._logical_of(topo, row["session"]),
                        **{
                            key: value
                            for key, value in row.items()
                            if key not in ("session", "shard")
                        },
                    }
                    for row in await topo.client.list_sessions()
                ]
                return sorted(
                    rows, key=lambda row: (row["logical"] is None, row["logical"])
                )

            results.append((topo.name, self._run(self._call(topo, run()))))
        self._compare("list", ("ok", expected_rows), results)

    def ping(self) -> None:
        """``ping``: the comparable slice is the live-session count."""
        self._barrier()
        self._record("ping")
        live = sum(1 for session in self._oracle.values() if session is not None)
        results = []
        for topo in self._topologies:
            assert topo.client is not None

            async def run(client=topo.client):
                response = await client.ping()
                return {"pong": response["pong"], "sessions": response["sessions"]}

            results.append((topo.name, self._run(self._call(topo, run()))))
        self._compare("ping", ("ok", {"pong": True, "sessions": live}), results)

    def set_metrics(self, enabled: bool) -> None:
        """``metrics``: toggle the ops-plane telemetry on every topology.

        Metrics are a *transparent* mode: instruments
        observe session state but never touch it, so the oracle has no
        metrics concept and every later feed/cost/snapshot comparison is
        the check that toggling (and scraping) moved nothing observable
        — the metrics-on/off transparency law.  Only the op's own ack is
        asserted here; the dump itself is topology-shaped (shard labels)
        and deliberately not compared.
        """
        self._barrier()
        self._record("metrics", enabled=enabled)
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(self._call(topo, topo.client.metrics(enabled)))
            if outcome[0] != "ok" or outcome[1].get("enabled") is not enabled:
                self._fail(
                    f"op 'metrics': [{topo.name}] answered {outcome[0]} "
                    f"{_short(outcome[1])} (expected enabled={enabled})"
                )

    def set_durability(self, enabled: bool) -> None:
        """``durability``: toggle WAL appends on every topology.

        Durability is transparent like metrics: the log
        observes acknowledged ops but never session state, so the
        oracle has no durability concept and every later comparison is
        the check that toggling (re-enabling forces a full checkpoint)
        moved nothing observable.  Every harness topology runs with a
        WAL directory, so the ack must echo the requested state.
        """
        self._barrier()
        self._record("durability", enabled=enabled)
        for topo in self._topologies:
            assert topo.client is not None
            outcome = self._run(self._call(topo, topo.client.durability(enabled)))
            if outcome[0] != "ok" or outcome[1].get("enabled") is not enabled:
                self._fail(
                    f"op 'durability': [{topo.name}] answered {outcome[0]} "
                    f"{_short(outcome[1])} (expected enabled={enabled})"
                )
        self._durability = enabled

    def upgrade_wire(self) -> None:
        """Mid-sequence ``hello``: upgrade every connection to v2.

        Under a v1 pin the upgrade must be *refused* everywhere (the
        connections stay on JSON lines); otherwise it must be granted
        everywhere and all later ops ride binary frames.  Either way
        the sequence's observables must not move — that asymmetry is
        exactly what the differential run checks.  Idempotent: already
        upgraded connections are left alone.
        """
        self._barrier()
        self._record("upgrade_wire")
        granted = wire.WIRE_V1 if self.accept_wire == wire.WIRE_V1 else wire.WIRE_V2
        results = []
        for topo in self._topologies:
            assert topo.client is not None
            if topo.client.wire_version == wire.WIRE_V2:
                continue

            async def run(client=topo.client):
                response = await client.request("hello", wire=wire.WIRE_V2)
                if response["wire"] >= wire.WIRE_V2:
                    # The server switches this connection to binary
                    # frames right after the response line; mirror it.
                    client.wire_version = wire.WIRE_V2
                return {"wire": response["wire"]}

            results.append((topo.name, self._run(self._call(topo, run()))))
        self._compare("upgrade_wire", ("ok", {"wire": granted}), results)

    # ------------------------------------------------------------------ #
    # Topology perturbations (sharded only; observables must not move)
    # ------------------------------------------------------------------ #
    def migrate(self, logical: int) -> None:
        """``migrate`` the session on every *sharded* topology.

        The in-process server does not serve ``migrate`` (it is
        supervisor-only in the op registry), so this is a perturbation,
        not a compared op: its response is asserted per-topology, and
        the independence law requires the session's observables to be
        unchanged afterwards — which the next query/cost/snapshot
        checks against the oracle.
        """
        self._barrier()
        self._record("migrate", session=logical)
        alive = self._oracle.get(logical) is not None
        for topo in self._topologies:
            assert topo.client is not None
            if not isinstance(topo.server, ShardedMonitoringServer):
                continue
            outcome = self._run(
                self._call(topo, topo.client.migrate(self._sid(topo, logical)))
            )
            if alive and outcome[0] != "ok":
                self._fail(
                    f"op 'migrate': [{topo.name}] failed with "
                    f"{_short(outcome[1])} for a live session"
                )
            if not alive and outcome != ("error", "KeyError"):
                self._fail(
                    f"op 'migrate': [{topo.name}] answered {outcome[0]} "
                    f"{_short(outcome[1])} for a dead session (expected KeyError)"
                )

    def restart_shard(self, seed: int) -> None:
        """Restart one worker per sharded topology (sessions survive).

        A perturbation like :meth:`migrate`: every resident session is
        checkpointed out and restored into the replacement process, so
        nothing observable may change and ``lost`` must be 0.
        """
        self._barrier()
        self._record("restart_shard", seed=seed)
        for topo in self._topologies:
            server = topo.server
            if not isinstance(server, ShardedMonitoringServer):
                continue
            index = seed % server.num_shards

            async def run(server=server, index=index):
                return await server.restart_shard(index)

            outcome = self._run(self._call(topo, run()))
            if outcome[0] != "ok":
                self._fail(
                    f"op 'restart_shard': [{topo.name}] failed: "
                    f"{_short(outcome[1])}"
                )
            if outcome[1]["lost"]:
                self._fail(
                    f"op 'restart_shard': [{topo.name}] lost "
                    f"{outcome[1]['lost']} live session(s) on a healthy worker"
                )

    def crash_shard(self, seed: int) -> None:
        """SIGKILL one worker per sharded topology, then recover it.

        The durability law under test: because the harness barriers
        first (so every generated op has been acknowledged) and every
        topology appends to a WAL, ``kill -9`` of the worker followed
        by :meth:`~repro.service.shard.ShardedMonitoringServer.
        restart_shard` must lose **zero** sessions — and the next
        query/cost/snapshot comparison proves the replayed state is
        bit-identical to the oracle, which never crashed.  Skipped (ops
        recorded, nothing killed) while durability is toggled off:
        without appends a crash legitimately loses the tail.
        """
        self._barrier()
        self._record("crash_shard", seed=seed)
        if not self._durability:
            return
        for topo in self._topologies:
            server = topo.server
            if not isinstance(server, ShardedMonitoringServer):
                continue
            index = seed % server.num_shards
            os.kill(server._workers[index].process.pid, signal.SIGKILL)

            async def run(server=server, index=index):
                return await server.restart_shard(index)

            outcome = self._run(self._call(topo, run()))
            if outcome[0] != "ok":
                self._fail(
                    f"op 'crash_shard': [{topo.name}] recovery failed: "
                    f"{_short(outcome[1])}"
                )
            if outcome[1]["lost"]:
                self._fail(
                    f"op 'crash_shard': [{topo.name}] lost "
                    f"{outcome[1]['lost']} acknowledged session(s) after kill -9"
                )

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def apply(self, record: dict[str, Any]) -> None:
        """Apply one recorded trace entry (the replay entry point)."""
        op = dict(record)
        name = op.pop("op")
        dispatch = {
            "create": lambda: self.create(op["spec"]),
            "feed": lambda: self.feed(op["session"], op["block"]),
            "feed_nowait": lambda: self.feed_nowait(op["session"], op["block"]),
            "flush": self.flush,
            "advance": lambda: self.advance(op["session"], op.get("steps")),
            "query": lambda: self.query(op["session"]),
            "cost": lambda: self.cost(op["session"]),
            "snapshot": lambda: self.snapshot(op["session"]),
            "restore": lambda: self.restore(op["blob"]),
            "corrupt_restore": lambda: self.corrupt_restore(op.get("blob")),
            "finalize": lambda: self.finalize(op["session"]),
            "close": lambda: self.close(op["session"]),
            "list": self.list_sessions,
            "ping": self.ping,
            "upgrade_wire": self.upgrade_wire,
            "metrics": lambda: self.set_metrics(op["enabled"]),
            "durability": lambda: self.set_durability(op["enabled"]),
            "migrate": lambda: self.migrate(op["session"]),
            "restart_shard": lambda: self.restart_shard(op["seed"]),
            "crash_shard": lambda: self.crash_shard(op["seed"]),
        }
        try:
            runner = dispatch[name]
        except KeyError:
            raise ValueError(f"unknown trace op {name!r}") from None
        runner()
