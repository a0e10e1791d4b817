"""The four served workloads: topology, traffic shape, and input plans.

Every workload monitors with the ε-approximate dispatcher of Thm 5.8
(``approx-monitor``, ε = 0.1).  A run feeds the same sessions through an
untimed warm-up and then :data:`CYCLES` cycles of two timed phases: a
*closed* phase (a fixed window of frames in flight per connection;
gives capacity) and an *open* phase (frames due on a fixed schedule at
``offered_steps_per_s``; gives latency).  Cycling spreads both
measurements over the whole run: the host's speed drifts over tens of
seconds, and one long phase of each kind would sample a single regime.

Phase sizes are fixed counts, not deadlines: the closed phases feed
``nominal_steps_per_s × 0.4 × seconds`` steps in all and the open
phases ``offered_steps_per_s × 0.6 × seconds``, rounded to whole rounds
over the sessions.  So one ``(seed, seconds)`` always feeds the same
blocks, and a run's outputs can be pinned and replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.streams import registry

__all__ = [
    "ALGORITHM",
    "EPS",
    "WORKLOADS",
    "Op",
    "Plan",
    "Workload",
    "generate",
    "make_plan",
    "session_spec",
]

ALGORITHM = "approx-monitor"
EPS = 0.1

#: Shares of ``--seconds`` given to the closed and the open phases.
CLOSED_SHARE = 0.4
OPEN_SHARE = 0.6

#: Closed/open phase pairs per run.
CYCLES = 4

#: The warm-up feeds this share of the closed phase's rounds (at least
#: one round, so every session has taken its costly first step).
WARM_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slug: str
    n: int
    k: int
    sessions: int
    rows: int  # rows per feed frame
    connections: int
    window: int  # closed phase: frames in flight per connection
    nominal_steps_per_s: float  # sizes the closed phase
    offered_steps_per_s: float  # open phase schedule (feed steps)
    shards: int = 0  # 0 = single-process ``serve``
    durable: bool = False  # ``serve --wal-dir``
    query_every: int = 0  # a query after every Nth feed of a session
    snapshot_every: int = 0  # a snapshot after every Nth feed of a session


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="single_quiet",
            why="one session, 64-row frames: the per-frame serving path "
            "dominates and nothing can coalesce",
            slug="zipf", n=32, k=4, sessions=1, rows=64, connections=1,
            window=16, nominal_steps_per_s=40_000, offered_steps_per_s=16_000,
        ),
        Workload(
            name="cohort_fleet",
            why="256 same-cohort sessions behind a 1-shard supervisor: "
            "ingestion-bound, exercises splice, cohort gate and batch ticks",
            slug="walk", n=8, k=2, sessions=256, rows=16, connections=2,
            # ~26% of capacity: supervisor, worker and driver share two
            # cores, so a host slowdown of 1.7x (seen here) must still
            # leave the open loop without a backlog.
            window=64, nominal_steps_per_s=27_000, offered_steps_per_s=7_000,
            shards=1,
        ),
        Workload(
            name="escalating",
            why="iid streams escalate every step, so protocol and ledger "
            "work dominate and wire or batching changes should not show",
            slug="iid", n=32, k=4, sessions=4, rows=8, connections=1,
            window=16, nominal_steps_per_s=1_600, offered_steps_per_s=800,
        ),
        Workload(
            name="durable_mixed",
            why="WAL-backed feeds with queries and snapshots beside them, "
            "plus crash recovery: durability shares the session layer",
            slug="zipf", n=32, k=4, sessions=16, rows=64, connections=1,
            window=16, nominal_steps_per_s=34_000, offered_steps_per_s=12_800,
            durable=True, query_every=8, snapshot_every=128,
        ),
    )
}


class Op(NamedTuple):
    """One request of a plan: a feed of ``rows`` rows at ``start``, or a read."""

    kind: str  # "feed" | "query" | "snapshot"
    session: int  # index into the workload's sessions
    link: int  # connection index
    start: int  # first row of the feed (feeds only)
    step: int  # the session's step once this op is applied
    due_steps: int  # feed steps of the stage sent before this op's due time


class Plan(NamedTuple):
    warm: list[Op]
    #: ``(closed ops, open ops)`` per cycle, in execution order
    cycles: list[tuple[list[Op], list[Op]]]
    steps_per_session: int

    def ops(self) -> list[Op]:
        """Every op of the run in execution order."""
        out = list(self.warm)
        for closed, open_ in self.cycles:
            out += closed + open_
        return out


def _rounds(steps_per_s: float, seconds: float, per_round: int) -> int:
    return max(1, round(steps_per_s * seconds / per_round))


def make_plan(w: Workload, seconds: float) -> Plan:
    """The ops of each phase, round-robin over the sessions.

    Session ``i`` always uses connection ``i % connections`` — the
    server answers one connection's frames in order, so per-session
    ordering (and thus every expected step) holds by construction.
    """
    per_round = w.rows * w.sessions
    closed_rounds = _rounds(w.nominal_steps_per_s, CLOSED_SHARE * seconds / CYCLES, per_round)
    warm_rounds = max(1, math.ceil(WARM_SHARE * closed_rounds * CYCLES))
    open_rounds = _rounds(w.offered_steps_per_s, OPEN_SHARE * seconds / CYCLES, per_round)
    feeds = [0] * w.sessions
    step = [0] * w.sessions

    def stage(rounds: int) -> list[Op]:
        ops: list[Op] = []
        sent = 0
        for _ in range(rounds):
            for s in range(w.sessions):
                link = s % w.connections
                ops.append(Op("feed", s, link, step[s], step[s] + w.rows, sent))
                due = sent
                sent += w.rows
                step[s] += w.rows
                feeds[s] += 1
                # A read rides right behind the feed it follows, due with it.
                if w.query_every and feeds[s] % w.query_every == 0:
                    ops.append(Op("query", s, link, 0, step[s], due))
                if w.snapshot_every and feeds[s] % w.snapshot_every == 0:
                    ops.append(Op("snapshot", s, link, 0, step[s], due))
        return ops

    warm = stage(warm_rounds)
    cycles = [(stage(closed_rounds), stage(open_rounds)) for _ in range(CYCLES)]
    return Plan(warm, cycles, step[0])


def generate(w: Workload, seed: int, steps: int) -> list[np.ndarray]:
    """Every session's observation rows, ``(steps, n)`` each.

    One wide ``registry.stream`` call of ``sessions × n`` columns, split
    by columns: per-session calls cost seconds per hundred sessions,
    while the workloads' generators are column-independent, so the
    split has the same law as separate streams.
    """
    source = registry.stream(
        w.slug, steps, w.sessions * w.n, block_size=max(1, min(steps, 1 << 16)),
        rng=seed,
    )
    wide = np.concatenate(list(source.iter_blocks()))
    return [wide[:, i * w.n : (i + 1) * w.n] for i in range(w.sessions)]


def session_spec(w: Workload, seed: int, index: int) -> dict:
    """The ``create`` spec of session ``index`` (channel seed from ``seed``)."""
    return {
        "algorithm": ALGORITHM, "n": w.n, "k": w.k, "eps": EPS,
        "seed": seed * 4096 + index,
    }
