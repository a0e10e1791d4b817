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
        randomness: :meth:`_existence_collect` returns before touching
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
            ``(ids, interval)`` pairs; ids may be an ndarray, list, or
            boolean mask.  Later groups override earlier ones on overlap.
        """
        self.ledger.charge_broadcast()
        nodes = self._nodes
        for ids, interval in groups:
            ids = self._as_index(ids)
            if ids.size:
                nodes.set_filters_bulk(ids, interval.lo, interval.hi)
            else:
                nodes.touch()  # an empty group is still one state change

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
    def _existence_collect(
        self, active: np.ndarray | None = None, *, active_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the EXISTENCE protocol over the active-node set.

        Pass either the boolean ``active`` mask or, for callers that
        already hold the ids (the node array's cached violation batch),
        ``active_ids`` — the coin-flip sequence is identical either way.
        Returns the ``(ids, values)`` of the nodes that sent in the first
        successful round (all their messages are charged).  Empty arrays
        when no node is active; that case costs zero messages and
        ``γ + 1`` rounds of silence.
        """
        if active_ids is None:
            if active is None:
                raise TypeError("pass exactly one of active= or active_ids=")
            active_ids = active.nonzero()[0]
        elif active is not None:
            raise TypeError("pass exactly one of active= or active_ids=")
        ledger = self.ledger
        if active_ids.size == 0:
            ledger.charge_rounds(self._gamma + 1)
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        size, random = active_ids.size, self.rng.random
        probabilities = _send_probabilities(self.existence_base, self._nodes.n, self._gamma + 1)
        for r, p in enumerate(probabilities):
            senders = active_ids[random(size) < p]
            if senders.size:
                ledger.charge_rounds(r + 1)  # rounds 0..r, one per draw
                ledger.charge_up(senders.size)
                return senders, self._nodes.values[senders]  # fancy index: a copy
        raise AssertionError("existence protocol must fire by round gamma (p=1)")

    def existence_any(self, active: np.ndarray) -> bool:
        """Decide the OR of the predicate (Lemma 3.1).  O(1) expected msgs."""
        ids, _ = self._existence_collect(active)
        return ids.size > 0

    def existence_violations(self) -> list[Violation]:
        """Detect filter-violations via the existence protocol (Cor. 3.2).

        Every violating node participates with a 1; responders of the first
        successful round report ``(id, value)`` and whether they crossed
        from below or above.  No violations → no messages.
        """
        violating = self._nodes.violation_ids()  # cached batch containment test
        ids, values = self._existence_collect(active_ids=violating)
        if ids.size == 0:
            return []
        kinds = self._nodes.violation_kind()[ids]
        return [
            Violation(i, v, kind)
            for i, v, kind in zip(ids.tolist(), values.tolist(), kinds.tolist())
        ]

    def existence_above(
        self,
        threshold: float,
        *,
        strict: bool = True,
        exclude: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Existence-collect over nodes with value above ``threshold``.

        The caller is responsible for having announced the threshold (one
        :meth:`announce`); this method charges only the upstream messages.
        ``exclude`` silences nodes the server already heard from (they were
        told to stand down with a :meth:`notify` unicast, charged by the
        caller).  Used by the max-finding protocol of Lemma 2.6.
        """
        mask = self._nodes.mask_above(threshold, strict=strict)  # a fresh array
        if exclude is not None and len(exclude) > 0:
            mask[np.asarray(exclude, dtype=np.int64)] = False
        return self._existence_collect(mask)

    def existence_below(
        self,
        threshold: float,
        *,
        strict: bool = True,
        exclude: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mirror of :meth:`existence_above` for the min-finding protocol."""
        mask = self._nodes.mask_below(threshold, strict=strict)  # a fresh array
        if exclude is not None and len(exclude) > 0:
            mask[np.asarray(exclude, dtype=np.int64)] = False
        return self._existence_collect(mask)

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

    def count_above(self, threshold: float, *, strict: bool = True) -> int:
        """Number of nodes above ``threshold`` (1 broadcast + 1 msg each)."""
        ids, _ = self.collect_above(threshold, strict=strict)
        return int(ids.size)

    def count_below(self, threshold: float, *, strict: bool = True) -> int:
        """Number of nodes below ``threshold`` (1 broadcast + 1 msg each)."""
        ids, _ = self.collect_below(threshold, strict=strict)
        return int(ids.size)

    def _collect(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.ledger.charge_broadcast()  # the query
        self.ledger.charge_rounds(1)
        ids = mask.nonzero()[0]
        self.ledger.charge_up(ids.size)
        return ids, self._nodes.values[ids]  # fancy index: a copy

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
    @staticmethod
    def _as_index(ids: object) -> np.ndarray:
        arr = np.asarray(ids)
        if arr.dtype == bool:
            return np.flatnonzero(arr)
        return arr.astype(np.int64, copy=False)

    def current_filters(self) -> tuple[np.ndarray, np.ndarray]:
        """The filters the server assigned (server-side knowledge, free)."""
        return self._nodes.filter_lo.copy(), self._nodes.filter_hi.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Channel(n={self.n}, {self.ledger!r})"


@lru_cache(maxsize=64)
def _send_probabilities(base: float, n: int, rounds: int) -> tuple[float, ...]:
    """Per-round send probabilities ``min(1, base**r / n)`` of Lemma 3.1."""
    return tuple(min(1.0, (base**r) / n) for r in range(rounds))
