"""Exact Top-k-Position Monitoring (Corollary 3.3 and the [6] baseline).

The algorithm is the *generic framework* of Section 3 with the midpoint
strategy:

- Phase start: probe the k+1 largest values; ``F`` := top-k,
  ``L₀ = [v_{k+1}, v_k]``.
- Broadcast the midpoint ``m`` of ``L``; filters ``F1 = [m, ∞]`` for
  ``F``, ``F2 = [-∞, m]`` for the rest.
- A violation from below by ``i ∉ F`` proves OPT's separating value lies
  above ``v_i`` (``L := L ∩ [v_i, ∞]``); a violation from above by
  ``i ∈ F`` proves it lies below (``L := L ∩ [-∞, v_i]``).  Re-broadcast
  the new midpoint.
- ``L = ∅`` ⇒ no separating value existed throughout the phase ⇒ OPT
  communicated ⇒ start a new phase.

The distance ``|L|`` halves per violation, so a phase costs
O(log Δ) violations.  Where the log n factor of [6] comes from — and how
Lemma 3.1 removes it — is modeled explicitly:

- **Corollary 3.3 mode** (``use_existence=True``): violations are
  detected through the existence protocol (O(1) expected messages even
  with many simultaneous violators), and the reported value alone updates
  ``L`` (the relaxed "invalid filters" convention makes that sound).
  Total **O(k log n + log Δ)** per phase.
- **[6]-baseline mode** (``use_existence=False``): violators self-report
  directly (one message per simultaneous violator), and after every
  violation the algorithm *re-probes the boundary* on the violated side
  with the Lemma 2.6 max/min protocol — the O(log n)-messages-per-
  violation structure behind [6]'s **O(k log n + log Δ · log n)**.
  (The re-probe is a sound tightening of ``L``: Lemma 2.5 puts the
  offline separator above MAX over the non-output side and below MIN
  over the output side.)

Experiment T3 measures exactly this gap.  The exact problem assumes
distinct values (Sect. 2); apply
:func:`repro.streams.transforms.make_distinct` to raw integer traces.
"""

from __future__ import annotations

import numpy as np

from repro.core.phased import PhaseCore, PhaseOutcome, PhasedMonitor, two_filter_groups
from repro.core.primitives import (
    detect_violation_direct,
    detect_violation_existence,
    max_protocol,
    min_protocol,
)
from repro.model.channel import Channel, Violation
from repro.util.intervals import Interval

__all__ = ["ExactTopKMonitor", "MidpointCore"]


class MidpointCore(PhaseCore):
    """One phase of the generic framework with the midpoint strategy.

    ``reprobe_boundary=True`` selects the [6]-style per-violation
    boundary recomputation (see the module docstring).
    """

    def __init__(
        self,
        channel: Channel,
        k: int,
        probe: list[tuple[int, float]],
        *,
        reprobe_boundary: bool = False,
        stats: dict[str, int] | None = None,
    ) -> None:
        super().__init__(channel, k, eps=0.0)
        self._top_ids = np.array([node for node, _ in probe[:k]], dtype=np.int64)
        self._output = frozenset(self._top_ids.tolist())
        self._interval = Interval(probe[k][1], probe[k - 1][1])  # [v_{k+1}, v_k]
        self._reprobe = bool(reprobe_boundary)
        #: shared counters owned by the monitor (survive phase changes)
        self._stats = stats if stats is not None else {}

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._broadcast_midpoint()

    def handle(self, violation: Violation) -> PhaseOutcome | None:
        if violation.from_below:
            # A non-output node rose above m: the separator must be higher.
            self._interval = self._interval.clamp_above(violation.value)
            if self._reprobe and not self._interval.is_empty:
                self._stats["reprobes"] = self._stats.get("reprobes", 0) + 1
                with self.channel.ledger.scope("boundary_reprobe"):
                    probed = max_protocol(self.channel, exclude=self._top_ids)
                if probed is not None:
                    self._interval = self._interval.clamp_above(probed[1])
        else:
            # An output node fell below m: the separator must be lower.
            self._interval = self._interval.clamp_below(violation.value)
            if self._reprobe and not self._interval.is_empty:
                self._stats["reprobes"] = self._stats.get("reprobes", 0) + 1
                others = np.setdiff1d(
                    np.arange(self.channel.n, dtype=np.int64), self._top_ids
                )
                with self.channel.ledger.scope("boundary_reprobe"):
                    probed = min_protocol(self.channel, exclude=others)
                if probed is not None:
                    self._interval = self._interval.clamp_below(probed[1])
        if self._interval.is_empty:
            return PhaseOutcome.RESTART
        self._broadcast_midpoint()
        return None

    def output(self) -> frozenset[int]:
        return self._output

    # ------------------------------------------------------------------ #
    def _broadcast_midpoint(self) -> None:
        m = self._interval.midpoint
        groups = two_filter_groups(self.channel.n, self._top_ids, m, m)
        self.channel.broadcast_filters(groups)


class ExactTopKMonitor(PhasedMonitor):
    """Exact Top-k monitoring; Corollary 3.3 or the [6] baseline.

    Parameters
    ----------
    k:
        Number of top positions.
    use_existence:
        ``True`` (default) → Cor. 3.3: existence-protocol detection and
        report-value-only updates, O(k log n + log Δ)-competitive.
        ``False`` → the [6]-style baseline: direct violator reports plus
        an O(log n) boundary re-probe per violation,
        O(k log n + log Δ·log n)-competitive.
    """

    def __init__(self, k: int, *, use_existence: bool = True) -> None:
        detector = detect_violation_existence if use_existence else detect_violation_direct
        super().__init__(k, eps=0.0, detector=detector)
        self.use_existence = use_existence
        self.name = "exact-cor3.3" if use_existence else "exact-ipdps15"
        #: cumulative core statistics (e.g. boundary re-probe count)
        self.stats: dict[str, int] = {}

    def _dispatch(self, probe: list[tuple[int, float]]) -> PhaseCore:
        return MidpointCore(
            self.channel, self.k, probe,
            reprobe_boundary=not self.use_existence, stats=self.stats,
        )
