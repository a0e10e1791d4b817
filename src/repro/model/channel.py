"""The communication gateway between server algorithms and nodes.

Server-side algorithms hold a :class:`Channel` and nothing else; every way
of learning anything about node values goes through a method here and is
charged to the :class:`~repro.model.ledger.CostLedger`.  The primitives
mirror what the paper's model allows:

- ``announce`` / ``broadcast_filters`` — server broadcast, cost 1
  (Cormode et al.'s broadcast-channel enhancement, Sect. 1/2 of the paper).
- ``unicast_filter`` / ``request_value`` — server→node messages, cost 1
  each (plus the node's reply for a request).
- ``existence_*`` — the randomized EXISTENCE protocol of Lemma 3.1, run
  over a node-local predicate.  Nodes whose predicate is *false* stay
  silent; active nodes send independently with probability ``2^r / n`` in
  round ``r`` until the first round in which at least one message arrives
  (Las Vegas, O(1) messages in expectation, ``≤ log n + 1`` rounds).
  The no-active case costs zero messages — the crucial property that lets
  filter-based algorithms be silent while nothing happens (Cor. 3.2).
  Each protocol the paper builds on it is one call here, sharing one
  round loop (:meth:`Channel._existence_run`): ``existence_any`` (the OR
  of a predicate), ``existence_violation`` (Cor. 3.2 detection, the one
  report the server acts on), ``existence_violations`` (every report of
  that run) and ``existence_extremum`` (Lemma 2.6's whole max/min loop).
  Each call charges its run once, with the same totals, scope
  attribution and random draws as charging round by round.
- ``collect_*`` — deterministic "everyone matching the predicate reports"
  probes: 1 broadcast for the query plus one upstream message per match.
  DENSEPROTOCOL uses these to seed its node partition and to evaluate its
  counting conditions (steps 3.b.1 / 3.b'.1).

Node-local predicate evaluation is free: a node comparing its own value to
a broadcast threshold performs local computation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.model.ledger import CostLedger
from repro.model.node import (
    NodeArray,
    VIOLATION_ABOVE,
    VIOLATION_BELOW,
)
from repro.util.intervals import Interval
from repro.util.mathx import ceil_log2
from repro.util.rngtools import make_rng

__all__ = ["Channel", "Violation"]


@dataclass(frozen=True, slots=True)
class Violation:
    """A filter-violation report: ``(node, value, kind)``.

    ``kind`` is :data:`~repro.model.node.VIOLATION_BELOW` when the node's
    value exceeded its filter's upper bound (paper: "violates from below")
    and :data:`~repro.model.node.VIOLATION_ABOVE` when it dropped under the
    lower bound ("violates from above").
    """

    node: int
    value: float
    kind: int

    @property
    def from_below(self) -> bool:
        """True for an upward crossing (value > filter upper bound)."""
        return self.kind == VIOLATION_BELOW

    @property
    def from_above(self) -> bool:
        """True for a downward crossing (value < filter lower bound)."""
        return self.kind == VIOLATION_ABOVE


class Channel:
    """Cost-metered communication between the server and ``n`` nodes.

    Parameters
    ----------
    nodes:
        The node state (values + filters).  Algorithms must not touch this
        object; they receive the :class:`Channel` only.
    ledger:
        Message/round account shared with the engine.
    rng:
        Source of the per-node coin flips of the existence protocol.
    """

    def __init__(
        self,
        nodes: NodeArray,
        ledger: CostLedger | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        existence_base: float = 2.0,
    ) -> None:
        if existence_base <= 1.0:
            raise ValueError(f"existence_base must be > 1, got {existence_base}")
        self._nodes = nodes
        self.ledger = ledger if ledger is not None else CostLedger()
        self.rng = make_rng(rng)
        self.existence_base = float(existence_base)
        if existence_base == 2.0:
            self._gamma = ceil_log2(nodes.n)
        else:
            self._gamma = max(0, int(math.ceil(math.log(nodes.n, existence_base))))

    # ------------------------------------------------------------------ #
    # Topology facts the server legitimately knows
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes (public knowledge in the model)."""
        return self._nodes.n

    @property
    def existence_rounds(self) -> int:
        """Round cost of one existence check when *no* node is active.

        Every probability round of Cor. 3.2 runs (γ+1 of them) and nobody
        speaks, so the check costs exactly ``γ+1`` rounds, zero messages,
        and — crucially for the engine's quiet-row replay — consumes no
        randomness: :meth:`_existence_run` returns before touching
        the RNG when the active set is empty.
        """
        return self._gamma + 1

    # ------------------------------------------------------------------ #
    # Downstream: broadcasts and unicasts
    # ------------------------------------------------------------------ #
    def announce(self) -> None:
        """Broadcast a constant-size control message (threshold, query, id).

        Cost: 1.  The message content itself is tracked by the caller; the
        model only restricts size to O(log(n·Δ)) bits, which every control
        message we send satisfies (a few values and at most one node id).
        """
        self.ledger.charge_broadcast()

    def broadcast_filters(self, groups: Sequence[tuple[np.ndarray, Interval]]) -> None:
        """Install filters for several node groups with a single broadcast.

        The broadcast carries the round's constants (e.g. ``ℓ_r``, ``u_r``,
        ``z``); every node derives its own interval locally from its class
        label, exactly as in DENSEPROTOCOL step 2.  Cost: 1.

        Parameters
        ----------
        groups:
            ``(ids, interval)`` pairs; ids may be a set of node ids (the
            phase cores' member sets), an ndarray, a list, or a boolean
            mask.  Later groups override earlier ones on overlap, and
            every group — empty ones included — is one state change.
        """
        self.ledger.charge_broadcast()
        self._nodes.set_filter_groups(groups)

    def unicast_filter(self, node: int, interval: Interval) -> None:
        """Assign one node's filter with a direct message.  Cost: 1."""
        self.ledger.charge_down()
        self._nodes.set_filter(int(node), interval)

    def broadcast_freeze(self) -> None:
        """Broadcast the rule "filter := your current value".  Cost: 1.

        Each node derives the point filter ``[v_i, v_i]`` locally from its
        own observation — a filter rule, not a data transfer, so a single
        broadcast suffices.  Used by the send-on-change baseline.
        """
        self.ledger.charge_broadcast()
        self._nodes.freeze_all()

    def self_freeze(self, node: int) -> None:
        """Node-local re-freeze after a report.  Cost: 0.

        Once the freeze rule has been broadcast, a node that just reported
        its new value re-arms its own point filter without any message —
        pure local computation, hence free in the model.
        """
        self._nodes.freeze_one(int(node))

    def request_value(self, node: int) -> float:
        """Ask one node for its current value.  Cost: 2 (query + reply)."""
        self.ledger.charge_down()
        self.ledger.charge_up()
        return float(self._nodes.values[int(node)])

    # ------------------------------------------------------------------ #
    # Existence protocol (Lemma 3.1) over node-local predicates
    # ------------------------------------------------------------------ #
    def _existence_run(self, active_ids: np.ndarray) -> tuple[np.ndarray | None, int]:
        """One run of the EXISTENCE protocol over ``active_ids``; charges nothing.

        Every entry point below shares this round loop: active nodes send
        independently with probability ``min(1, base**r / n)`` in round
        ``r``, one ``rng.random(len(active_ids))`` draw per round, and the
        run ends in the first round in which somebody sends.  Returns the
        senders of that round (ids in ``active_ids`` order) and the rounds
        the run took; the caller charges both with one
        :meth:`CostLedger.charge_run`.  ``(None, γ + 1)`` when nobody is
        active: every round passes in silence and no randomness is drawn.
        """
        size = active_ids.size
        if not size:
            return None, self._gamma + 1
        random = self.rng.random
        probabilities = _send_probabilities(self.existence_base, self._nodes.n, self._gamma + 1)
        for r, p in enumerate(probabilities):
            senders = active_ids[random(size) < p]
            if senders.size:
                return senders, r + 1
        raise AssertionError("existence protocol must fire by round gamma (p=1)")

    def existence_any(self, active: np.ndarray) -> bool:
        """Decide the OR of the predicate (Lemma 3.1).  O(1) expected msgs."""
        senders, rounds = self._existence_run(active.nonzero()[0])
        self.ledger.charge_run(rounds, 0 if senders is None else senders.size)
        return senders is not None

    def existence_violation(self, scope: str | None = None) -> Violation | None:
        """Detect one filter-violation via the existence protocol (Cor. 3.2).

        Every violating node (the node array's cached batch) participates
        with a 1; all responders of the first successful round are charged,
        and the report the server acts on — the responder with the lowest
        id — is returned ("the server processes one violation at a time
        ... and simply ignores" the rest).  ``None`` and no messages when
        nothing violates.  Messages are attributed to ``scope`` (on top of
        any open scopes) without a ``with ledger.scope(...)`` block.
        """
        nodes = self._nodes
        senders, rounds = self._existence_run(nodes.violation_ids())
        self.ledger.charge_run(rounds, 0 if senders is None else senders.size, scope=scope)
        if senders is None:
            return None
        node = int(senders[0])
        value = float(nodes.values[node])
        # A violator under its lower bound crossed from above; that test
        # comes first, so a node outside an empty filter (lo > hi) reads
        # ABOVE, as NodeArray.violation_kind decides it.
        kind = VIOLATION_ABOVE if value < nodes.filter_lo[node] else VIOLATION_BELOW
        return Violation(node, value, kind)

    def existence_violations(self) -> list[Violation]:
        """Every responder's report of one Cor. 3.2 detection run.

        Same protocol run and charges as :meth:`existence_violation`, for
        callers that act on each report of the successful round (the
        send-on-change baseline); an empty list when nothing violates.
        """
        nodes = self._nodes
        senders, rounds = self._existence_run(nodes.violation_ids())
        self.ledger.charge_run(rounds, 0 if senders is None else senders.size)
        if senders is None:
            return []
        kinds = nodes.violation_kind()[senders]
        values = nodes.values[senders]
        return [
            Violation(i, v, kind)
            for i, v, kind in zip(senders.tolist(), values.tolist(), kinds.tolist())
        ]

    def existence_extremum(
        self,
        threshold: float,
        *,
        exclude: np.ndarray | None = None,
        lowest: bool = False,
        scope: str | None = None,
    ) -> tuple[int, float] | None:
        """The max protocol of Lemma 2.6 (or its min mirror), whole.

        Repeats: announce the threshold (one broadcast), run the existence
        protocol over the nodes strictly above it (below, for
        ``lowest=True``), and jump the threshold to the best value heard.
        Returns ``(id, value)`` of the last jump — the largest (smallest)
        value among non-excluded nodes beyond the initial ``threshold``,
        ties to the lowest id among that round's senders — or ``None``
        when no node qualifies.  ``exclude`` silences nodes the server
        already heard from (their stand-down unicasts are the caller's).

        Each round's active set is a fresh mask of the nodes beyond the
        threshold; the exclusion ids are converted once per run.
        Announcements, rounds and replies are charged once at the end,
        attributed to ``scope``.
        """
        values = self._nodes.values
        exclude = np.asarray(exclude, dtype=np.int64) if exclude is not None and len(exclude) > 0 else None
        best: tuple[int, float] | None = None
        announcements = rounds = replies = 0
        while True:
            mask = values < threshold if lowest else values > threshold
            if exclude is not None:
                mask[exclude] = False
            active = mask.nonzero()[0]
            announcements += 1
            senders, used = self._existence_run(active)
            rounds += used
            if senders is None:
                break
            replies += senders.size
            heard = values[senders]
            node = int(senders[heard.argmin() if lowest else heard.argmax()])
            threshold = float(values[node])
            best = (node, threshold)
        self.ledger.charge_run(rounds, replies, announcements, scope)
        return best

    def report_violations_all(self) -> list[Violation]:
        """Every violating node reports directly (no existence batching).

        The pre-Lemma-3.1 reporting discipline: nodes cannot coordinate,
        so each simultaneous violator costs one upstream message.  Silent
        systems cost nothing.  Used by the `[6]`-style baseline monitor.
        """
        self.ledger.charge_rounds(1)
        ids = self._nodes.violation_ids()
        kind = self._nodes.violation_kind()
        self.ledger.charge_up(int(ids.size))
        return [
            Violation(int(i), float(self._nodes.values[i]), int(kind[i])) for i in ids
        ]

    def notify(self, node: int) -> None:
        """Send one control unicast (e.g. "stand down").  Cost: 1."""
        self.ledger.charge_down()
        _ = int(node)

    # ------------------------------------------------------------------ #
    # Deterministic collect probes (1 broadcast + one reply per match)
    # ------------------------------------------------------------------ #
    def collect_above(self, threshold: float, *, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with value above ``threshold`` report ``(id, value)``."""
        return self._collect(self._nodes.mask_above(threshold, strict=strict))

    def collect_below(self, threshold: float, *, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with value below ``threshold`` report ``(id, value)``."""
        return self._collect(self._nodes.mask_below(threshold, strict=strict))

    def collect_between(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with ``lo <= value <= hi`` report ``(id, value)``.

        DENSEPROTOCOL seeds its V1/V2/V3 partition by probing the
        ε-neighborhood of ``z`` this way (cost σ + O(1), cf. Lemma 5.3).
        """
        mask = self._nodes.mask_above(lo, strict=False) & self._nodes.mask_below(hi, strict=False)
        return self._collect(mask)

    def count_above(self, threshold: float, *, strict: bool = True, scope: str | None = None) -> int:
        """Number of nodes above ``threshold`` (1 broadcast + 1 msg each).

        Charged like :meth:`collect_above`, attributed to ``scope``.
        """
        return self._count(self._nodes.mask_above(threshold, strict=strict), scope)

    def count_below(self, threshold: float, *, strict: bool = True) -> int:
        """Number of nodes below ``threshold`` (1 broadcast + 1 msg each)."""
        return self._count(self._nodes.mask_below(threshold, strict=strict), None)

    def _collect(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ids = mask.nonzero()[0]
        self.ledger.charge_run(1, ids.size, 1)  # the query, one round, the replies
        return ids, self._nodes.values[ids]  # fancy index: a copy

    def _count(self, mask: np.ndarray, scope: str | None) -> int:
        count = int(np.count_nonzero(mask))
        self.ledger.charge_run(1, count, 1, scope)
        return count

    # ------------------------------------------------------------------ #
    # Deterministic violation search (the pre-Lemma-3.1 baseline)
    # ------------------------------------------------------------------ #
    def range_has_violator(self, lo_id: int, hi_id: int) -> bool:
        """Deterministic query "any violator with id in [lo_id, hi_id]?".

        Models the group-testing detection that the existence protocol
        replaces: 1 broadcast for the query and 1 upstream message iff the
        answer is yes (charitably assuming perfect collision resolution —
        this *under*-counts the baseline's cost, so measured gaps are
        conservative).  Used only by the `[6]`-style baseline monitor.
        """
        self.ledger.charge_broadcast()
        self.ledger.charge_rounds(1)
        mask = self._nodes.violating_mask()
        mask[: int(lo_id)] = False
        mask[int(hi_id) + 1 :] = False
        hit = bool(mask.any())
        if hit:
            self.ledger.charge_up()
        return hit

    def violation_report(self, node: int) -> Violation | None:
        """Ask one specific node for a violation report.  Cost: 2.

        Returns ``None`` when the node is inside its filter.
        """
        self.ledger.charge_down()
        self.ledger.charge_up()
        kind = int(self._nodes.violation_kind()[int(node)])
        if kind == 0:
            return None
        return Violation(int(node), float(self._nodes.values[int(node)]), kind)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def current_filters(self) -> tuple[np.ndarray, np.ndarray]:
        """The filters the server assigned (server-side knowledge, free)."""
        return self._nodes.filter_lo.copy(), self._nodes.filter_hi.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Channel(n={self.n}, {self.ledger!r})"


@lru_cache(maxsize=64)
def _send_probabilities(base: float, n: int, rounds: int) -> tuple[float, ...]:
    """Per-round send probabilities ``min(1, base**r / n)`` of Lemma 3.1."""
    return tuple(min(1.0, (base**r) / n) for r in range(rounds))
