"""SUBPROTOCOL (Sect. 5.2) — resolving a doubly-conflicted node.

DENSEPROTOCOL calls this when some node ``i*`` lands in ``S1 ∩ S2``: it
was observed both above ``u_r`` and below ``ℓ_r`` within the round, so
DENSE cannot decide whether ``i* ∈ F*``.  SUBPROTOCOL refines the guess on
the *lower* part of the interval, ``L' := L_r ∩ [(1-ε)z, ℓ_r]``, and
halves it until one of three things happens (Lemma 5.6):

- evidence accumulates that the offline separator is in the lower half of
  ``L_r`` (cases 3.a / 3.b'.1) → terminate, DENSE halves ``L_r`` down;
- some node is proven to belong to every / no optimal output
  (cases 3.d.1 / 3.d.2 / 3.b.1-empty / 3.a'-empty / 3.c.1 / 3.c'.1) →
  it moves to ``V1`` / ``V3``;
- all nodes become classified → the dense situation dissolved.

Interpretation choices (recorded in DESIGN.md §4): on termination the
parent's ``S1`` is replaced by the evolved ``S'1`` (minus moved nodes);
if the initiating ``S1 ∩ S2`` conflict is still unresolved afterwards,
DENSE immediately re-invokes SUBPROTOCOL — each invocation either halves
``L_r``/``L'`` or removes a node from ``V2``, so the total work stays
within Lemma 5.5's O(σ log |L|) budget per call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.phased import PhaseOutcome
from repro.model.channel import Violation
from repro.util.intervals import Interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dense_protocol import DenseCore

__all__ = ["SubProtocol"]


class SubProtocol:
    """One SUBPROTOCOL invocation, operating on its parent DENSE state."""

    def __init__(self, parent: "DenseCore", initiator: int) -> None:
        self.p = parent
        self.initiator = initiator
        #: S'1 := S1 (frozen copy kept for the b.1 / a' resets).
        self._s1_at_start = frozenset(parent.S1)
        self.S1p: set[int] = set(parent.S1)
        self.S2p: set[int] = set()
        #: L'₀ := L_r ∩ [(1-ε)z, ℓ_r] — the lower part of the guess.
        self.Lp: Interval = Interval(parent.L.lo, parent.l_r)
        self.rp = 0
        self.l_p = 0.0
        self.u_p = 0.0
        #: the last S'1∩S'2 node that violated from above (b.1-empty rule)
        self._last_above: int | None = None

    # ------------------------------------------------------------------ #
    def start(self) -> PhaseOutcome | None:
        """Broadcast the round-0 filters; RESTART if L' is already spent."""
        if self.Lp.is_degenerate(self.p.resolution):
            # The guess cannot be refined at this resolution; end the
            # phase (sound: restarting is always correct, see DESIGN §4).
            return PhaseOutcome.RESTART
        self._set_bounds()
        outcome = self._refresh_output()
        if outcome is not None:
            return outcome
        self._rebroadcast()
        return None

    def handle(self, violation: Violation) -> PhaseOutcome | None:
        """Dispatch one violation to the Sect. 5.2 case table."""
        p = self.p
        i = violation.node
        if i in p.V1:
            if violation.from_above:  # case 3.a
                return self._finish_halve_parent_lower()
            return None  # defensive: V1 filters are upward-unbounded
        if i in p.V3:
            if violation.from_below:  # case 3.a'
                return self._halve_upper()
            return None
        in1, in2 = i in self.S1p, i in self.S2p
        if not in1 and not in2:  # i ∈ V2 \ S'
            if violation.from_below:  # v > u'
                if p.count_above_ur() > p.k:  # case 3.b.1 (vs DENSE's u_r)
                    return self._halve_upper()
                self.S1p.add(i)  # case 3.b.2
                p.channel.unicast_filter(i, Interval(p.l_r, p.z_hi))
                return self._refresh_output()
            # v < ℓ_r (the V2\S' filter's lower end is DENSE's ℓ_r)
            if p.count_ge_lr() < p.k:  # case 3.b'.1
                return self._finish_halve_parent_lower()
            self.S2p.add(i)  # case 3.b'.2
            p.channel.unicast_filter(i, Interval(p.z_lo, self.u_p))
            return self._refresh_output()
        if in1 and not in2:  # i ∈ S'1 \ S'2
            if violation.from_below:  # v > z/(1-ε) — case 3.c.1
                return self._move_within(i, to_v1=True)
            self.S2p.add(i)  # case 3.c.2 → S'1∩S'2
            p.channel.unicast_filter(i, Interval(self.l_p, p.z_hi))
            return self._refresh_output()
        if in2 and not in1:  # i ∈ S'2 \ S'1
            if violation.from_above:  # v < (1-ε)z — case 3.c'.1
                return self._move_within(i, to_v1=False)
            self.S1p.add(i)  # case 3.c'.2 → S'1∩S'2
            p.channel.unicast_filter(i, Interval(self.l_p, p.z_hi))
            return self._refresh_output()
        # i ∈ S'1 ∩ S'2
        if violation.from_below:  # v > z/(1-ε) — case 3.d.1
            return self._terminate_with_move(i, to_v1=True)
        # v < ℓ' — case 3.d.2
        self._last_above = i
        self.Lp = self.Lp.lower_half()
        self.S2p = set()
        if self.Lp.is_degenerate(self.p.resolution):
            return self._terminate_with_move(i, to_v1=False)
        return self._next_round()

    # ------------------------------------------------------------------ #
    # Round bookkeeping
    # ------------------------------------------------------------------ #
    def _set_bounds(self) -> None:
        self.l_p = self.Lp.midpoint
        self.u_p = self.l_p / (1.0 - self.p.eps)

    def _next_round(self) -> PhaseOutcome | None:
        self.rp += 1
        self.p.sub_rounds += 1
        self._set_bounds()
        outcome = self._refresh_output()
        if outcome is not None:
            return outcome
        self._rebroadcast()
        return None

    def _rebroadcast(self) -> None:
        """Install the Sect. 5.2 step-2 filter table (one broadcast)."""
        p = self.p
        both = self.S1p & self.S2p
        only1 = self.S1p - self.S2p
        only2 = self.S2p - self.S1p
        plain = p.V2 - self.S1p - self.S2p
        p.channel.broadcast_filters(
            [
                (p.V1, Interval.at_least(p.l_r)),
                (only1, Interval(p.l_r, p.z_hi)),
                (both, Interval(self.l_p, p.z_hi)),
                (plain, Interval(p.l_r, self.u_p)),
                (only2, Interval(p.z_lo, self.u_p)),
                (p.V3, Interval.at_most(self.u_p)),
            ]
        )

    def _refresh_output(self) -> PhaseOutcome | None:
        """Output := V1 ∪ S'1 (all of it) plus fill from V2 minus S' (step 2)."""
        p = self.p
        core = p.V1 | self.S1p
        pool = p.V2 - self.S1p - self.S2p
        return p.select_output(core, pool)

    # ------------------------------------------------------------------ #
    # Halvings
    # ------------------------------------------------------------------ #
    def _halve_upper(self) -> PhaseOutcome | None:
        """Cases 3.b.1 / 3.a': L' → upper half, S'1 reset to S1."""
        self.Lp = self.Lp.upper_half()
        # S'1 := S1 (the frozen copy), minus nodes moved out of V2 since.
        self.S1p = {i for i in self._s1_at_start if i in self.p.V2}
        if self.Lp.is_degenerate(self.p.resolution):
            victim = self._last_above if self._last_above is not None else self.initiator
            if victim not in self.p.V2:  # already moved by an earlier case
                return self._finish_halve_parent_lower()
            return self._terminate_with_move(victim, to_v1=False)
        return self._next_round()

    def _finish_halve_parent_lower(self) -> PhaseOutcome | None:
        """Cases 3.a / 3.b'.1: hand back to DENSE with L_r halved down."""
        p = self.p
        p.sub = None
        p.S1 = {i for i in self.S1p if i in p.V2}
        return p.halve(lower=True)  # clears S2 → the S1∩S2 conflict is gone

    # ------------------------------------------------------------------ #
    # Moves
    # ------------------------------------------------------------------ #
    def _move_within(self, i: int, *, to_v1: bool) -> PhaseOutcome | None:
        """Cases 3.c.1 / 3.c'.1: reclassify ``i`` but keep SUB running."""
        self.S1p.discard(i)
        self.S2p.discard(i)
        if self._last_above == i:
            self._last_above = None
        outcome = self.p.move_to_v1(i) if to_v1 else self.p.move_to_v3(i)
        if outcome is not None:
            return outcome
        return self._refresh_output()

    def _terminate_with_move(self, x: int, *, to_v1: bool) -> PhaseOutcome | None:
        """Terminate SUB by deciding node ``x`` (Lemma 5.6's outcome)."""
        p = self.p
        p.sub = None
        self.S1p.discard(x)
        self.S2p.discard(x)
        p.S1 = {i for i in self.S1p if i in p.V2}
        p.S2.discard(x)
        outcome = p.move_to_v1(x) if to_v1 else p.move_to_v3(x)
        if outcome is not None:
            return outcome
        leftover = p.S1 & p.S2
        if leftover:
            # The initiating conflict is still open: refine it immediately.
            return p.start_sub(min(leftover))
        outcome = p.refresh_output()
        if outcome is not None:
            return outcome
        p.rebroadcast()
        return None
