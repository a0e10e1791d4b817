"""Corollary 5.9 — one-round DENSE against an ε/2-restricted adversary.

If the offline algorithm's error is slightly smaller (ε' ≤ ε/2), the
expensive interval-refinement of DENSEPROTOCOL becomes unnecessary: the
online algorithm "simulates the first round of the DENSEPROTOCOL" with
hard thresholds

- ``ℓ₀ = (1 - ε/2)·z``  (the midpoint of ``[(1-ε)z, z]``) and
- ``u₀ = ℓ₀ / (1-ε)``,

classifies nodes once (``V1 = {v > u₀}``, ``V3 = {v < ℓ₀}``, ``V2`` the
rest) and then only *moves* V2 nodes outward on violations — no S-sets,
no halving.  The phase ends when a V1/V3 node violates or a cardinality
guard trips; at that moment any offline player restricted to error
ε' ≤ ε/2 must have reset filters (the Cor. 5.9 contradiction argument),
so the phase cost O(σ + k log n) is fully charged to OPT.

Total: O(σ + k log n + log log Δ + log 1/ε)-competitive.
"""

from __future__ import annotations

from repro.core.phased import PhaseCore, PhaseOutcome, PhasedMonitor
from repro.core.topk_protocol import TopKCore
from repro.model.channel import Channel, Violation
from repro.util.checks import check_epsilon
from repro.util.intervals import Interval

__all__ = ["HalfEpsMonitor", "OneRoundDenseCore"]


class OneRoundDenseCore(PhaseCore):
    """The simulated first DENSE round with direct V1/V3 promotion."""

    def __init__(
        self, channel: Channel, k: int, eps: float, probe: list[tuple[int, float]]
    ) -> None:
        super().__init__(channel, k, eps)
        self.z = probe[k - 1][1]  # current v_k
        self.l0 = (1.0 - eps / 2.0) * self.z
        self.u0 = self.l0 / (1.0 - eps)
        self.V1: set[int] = set()
        self.V2: set[int] = set()
        self.V3: set[int] = set()
        self._fill: set[int] = set()
        self._output: frozenset[int] = frozenset()
        self.moves = 0  # statistics: V2 promotions this phase

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        ids_above, _ = self.channel.collect_above(self.u0, strict=True)
        self.V1 = set(ids_above.tolist())
        ids_band, _ = self.channel.collect_between(self.l0, self.u0)
        self.V2 = set(ids_band.tolist()) - self.V1
        self.V3 = set(range(self.channel.n)) - self.V1 - self.V2
        self._install_filters()
        outcome = self._refresh_output()
        # At phase start |V1| ≤ k-1 (u₀ > z = the current k-th largest
        # value) and |V1 ∪ V2| ≥ k (all top-k values are ≥ z ≥ ℓ₀), so a
        # RESTART here is impossible; assert it to catch modeling bugs.
        assert outcome is None, "Cor. 5.9 round-0 classification cannot be infeasible"

    def handle(self, violation: Violation) -> PhaseOutcome | None:
        i = violation.node
        if i in self.V1:
            return PhaseOutcome.RESTART if violation.from_above else None
        if i in self.V3:
            return PhaseOutcome.RESTART if violation.from_below else None
        # i ∈ V2: promote outward, exactly once per node and direction.
        self.V2.discard(i)
        self.moves += 1
        if violation.from_below:  # v > u₀
            self.V1.add(i)
            if len(self.V1) > self.k:
                return PhaseOutcome.RESTART
            self.channel.unicast_filter(i, Interval.at_least(self.l0))
        else:  # v < ℓ₀
            self.V3.add(i)
            if len(self.V3) > self.channel.n - self.k:
                return PhaseOutcome.RESTART
            self.channel.unicast_filter(i, Interval.at_most(self.u0))
        if len(self.V1) == self.k and len(self.V3) == self.channel.n - self.k:
            # "If exactly k nodes are in V1 and n−k in V3, TOP-K-PROTOCOL
            # is executed" — realized by restarting: the dispatcher's next
            # probe sees the separation and selects TOP-K.
            return PhaseOutcome.RESTART
        return self._refresh_output()

    def output(self) -> frozenset[int]:
        return self._output

    # ------------------------------------------------------------------ #
    def _install_filters(self) -> None:
        self.channel.broadcast_filters(
            [
                (self.V1, Interval.at_least(self.l0)),
                (self.V2, Interval(self.l0, self.u0)),
                (self.V3, Interval.at_most(self.u0)),
            ]
        )

    def _refresh_output(self) -> PhaseOutcome | None:
        if len(self.V1) > self.k:
            return PhaseOutcome.RESTART
        need = self.k - len(self.V1)
        keep = sorted(self._fill & self.V2)[:need]
        if len(keep) < need:
            extra = sorted(self.V2 - set(keep))
            keep.extend(extra[: need - len(keep)])
        if len(keep) < need:
            return PhaseOutcome.RESTART  # |V1 ∪ V2| < k — phase over
        self._fill = set(keep)
        self._output = frozenset(self.V1 | self._fill)
        return None


class HalfEpsMonitor(PhasedMonitor):
    """The Corollary 5.9 monitor (dispatcher as in Thm 5.8)."""

    def __init__(self, k: int, eps: float) -> None:
        super().__init__(k, check_epsilon(eps))
        self.name = f"halfeps-monitor(eps={eps:g})"
        self.topk_phases = 0
        self.dense_phases = 0

    def _dispatch(self, probe: list[tuple[int, float]]) -> PhaseCore:
        v_k = probe[self.k - 1][1]
        v_k1 = probe[self.k][1]
        if v_k1 < (1.0 - self.eps) * v_k:
            self.topk_phases += 1
            return TopKCore(self.channel, self.k, self.eps, probe)
        self.dense_phases += 1
        return OneRoundDenseCore(self.channel, self.k, self.eps, probe)
