"""Section 4: TOP-K-PROTOCOL — competing against an exact adversary.

The core witnesses a fixed output ``F(t)`` while maintaining a guess
interval ``L = [ℓ, u]`` for the lower endpoint ``ℓ*`` of OPT's upper
filter, with the invariant ``L* ⊆ L``.  The pivot (the broadcast value
``m`` that separates the two filters) is chosen by one of four strategies
depending on which property holds (Sect. 4):

- (P1) ``log log u > log log ℓ + 1`` → **A1**: ``m = ℓ₀ + 2^{2^r}`` after
  ``r`` violations — a doubly-exponential sweep that needs only
  O(log log Δ) violations to exhaust any gap (Lemma 4.1).
- (P2) ``¬P1 ∧ u > 4ℓ`` → **A2**: ``m = 2^{mid(log ℓ, log u)}`` — the
  geometric midpoint; O(1) violations suffice (Lemma 4.2).
- (P3) ``u ≤ 4ℓ ∧ u > ℓ/(1-ε)`` → **A3**: the arithmetic midpoint;
  O(log 1/ε) violations until (P4) (Lemma 4.3).
- (P4) ``u ≤ ℓ/(1-ε)`` → overlapping filters ``F1 = [ℓ, ∞]``,
  ``F2 = [-∞, u]`` (valid because the ε-slack covers the overlap); the
  next violation empties ``L`` and ends the phase (protocol step 5/6).

Violations update ``L`` exactly as in the generic framework: a violation
from below by ``i ∉ F`` proves ``ℓ* ≥ v_i`` and one from above by
``i ∈ F`` proves ``u* ≤ v_i`` (Theorem 4.5's invariant argument).  When
``L`` empties, no filter pair could have survived the phase, so an
*exact* OPT — which must output the same unique top-k set — communicated
at least once (Thm 4.5): total O(k log n + log log Δ + log 1/ε) messages
per phase.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.phased import PhaseCore, PhaseOutcome, PhasedMonitor, two_filter_groups
from repro.model.channel import Channel, Violation
from repro.util.checks import check_epsilon
from repro.util.mathx import double_exp, geometric_midpoint, phase_p1

__all__ = ["TopKMonitor", "TopKCore"]

_MODE_A1 = "A1"
_MODE_A2 = "A2"
_MODE_A3 = "A3"
_MODE_P4 = "P4"


class TopKCore(PhaseCore):
    """One TOP-K-PROTOCOL phase (steps 1–6 of the Sect. 4 pseudo-code)."""

    def __init__(
        self, channel: Channel, k: int, eps: float, probe: list[tuple[int, float]]
    ) -> None:
        super().__init__(channel, k, eps)
        self._top_ids = np.array([node for node, _ in probe[:k]], dtype=np.int64)
        self._output = frozenset(self._top_ids.tolist())
        self.lo = probe[k][1]  # ℓ = v_{k+1}
        self.hi = probe[k - 1][1]  # u = v_k
        self.mode: str = ""
        self._a1_base = 0.0  # ℓ₀ of the current A1 run
        self._a1_r = 0  # violations observed during A1
        #: how often each strategy was (re)armed — experiment T10 uses this
        self.mode_entries: dict[str, int] = {m: 0 for m in (_MODE_A1, _MODE_A2, _MODE_A3, _MODE_P4)}

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._arm()

    def handle(self, violation: Violation) -> PhaseOutcome | None:
        if self.mode == _MODE_P4:
            # Step 5: a violation from below sets ℓ := v > u; one from
            # above sets u := v < ℓ.  Either way L empties → step 6.
            return PhaseOutcome.RESTART
        if violation.from_below:
            # i ∉ F rose above the pivot: ℓ* ≥ v_i.
            self.lo = max(self.lo, violation.value)
            if self.mode == _MODE_A1:
                self._a1_r += 1
        else:
            # i ∈ F fell below the pivot: u* ≤ v_i.
            self.hi = min(self.hi, violation.value)
            if self.mode == _MODE_A1:
                # Lemma 4.1: a violation from above ends A1 (P1 now fails
                # up to rounding); re-arming re-evaluates the properties.
                self._a1_r += 1
        if self.lo > self.hi:
            return PhaseOutcome.RESTART
        self._arm()
        return None

    def output(self) -> frozenset[int]:
        return self._output

    # ------------------------------------------------------------------ #
    # Strategy dispatch (properties checked in the paper's order)
    # ------------------------------------------------------------------ #
    def _arm(self) -> None:
        lo, hi = self.lo, self.hi
        if phase_p1(lo, hi):
            if self.mode != _MODE_A1:
                self._a1_base = lo
                self._a1_r = 0
                self._enter(_MODE_A1)
            self._set_pivot(self._a1_pivot())
        elif hi > 4.0 * lo:
            self._enter(_MODE_A2)
            # Geometric midpoint needs ℓ ≥ 1; (P2) with ℓ < 1 only occurs
            # for sub-unit values, where the arithmetic midpoint is exact
            # enough (the gap is a constant number of halvings anyway).
            pivot = geometric_midpoint(lo, hi) if lo >= 1.0 else (lo + hi) / 2.0
            self._set_pivot(pivot)
        elif hi * (1.0 - self.eps) > lo:
            self._enter(_MODE_A3)
            self._set_pivot((lo + hi) / 2.0)
        else:
            # (P4): u ≤ ℓ/(1-ε) — overlapping filters are valid.
            self._enter(_MODE_P4)
            groups = two_filter_groups(self.channel.n, self._top_ids, lo, hi)
            self.channel.broadcast_filters(groups)

    def _enter(self, mode: str) -> None:
        if self.mode != mode:
            self.mode_entries[mode] += 1
        self.mode = mode

    def _a1_pivot(self) -> float:
        """A1's pivot ``ℓ₀ + 2^{2^r}``, advanced past the current ℓ.

        Advancing ``r`` until the pivot clears ℓ is free (server-side
        arithmetic) and only skips pivots that would violate immediately.
        """
        pivot = self._a1_base + double_exp(self._a1_r)
        while pivot < self.lo and math.isfinite(pivot):
            self._a1_r += 1
            pivot = self._a1_base + double_exp(self._a1_r)
        return pivot

    def _set_pivot(self, m: float) -> None:
        if math.isinf(m):
            # A1 overran every float: put the pivot at the top of L; the
            # next violation from above ends (P1) immediately.
            m = self.hi
        groups = two_filter_groups(self.channel.n, self._top_ids, m, m)
        self.channel.broadcast_filters(groups)


class TopKMonitor(PhasedMonitor):
    """Theorem 4.5's monitor: TOP-K-PROTOCOL, restarted phase after phase.

    Allowed an output error ``eps ∈ (0, 1/2]`` while the adversary's
    offline algorithm solves the *exact* problem; competitive ratio
    O(k log n + log log Δ + log(1/ε)).
    """

    def __init__(self, k: int, eps: float) -> None:
        super().__init__(k, check_epsilon(eps))
        self.name = f"topk-protocol(eps={eps:g})"

    def _dispatch(self, probe: list[tuple[int, float]]) -> PhaseCore:
        return TopKCore(self.channel, self.k, self.eps, probe)
