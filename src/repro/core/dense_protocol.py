"""DENSEPROTOCOL (Sect. 5.2) — competing against an ε-approximate adversary.

Run when the values around position k are *dense*: the probe found
``v_{k+1} ≥ (1-ε)·v_k``, so an approximate adversary has genuine freedom
in choosing its output and the Section-4 machinery is powerless (the
Ω(σ/k) lower bound of Thm 5.1 lives exactly here).

Structure (paper step numbering in brackets):

1. **Pre-stage** — overlapping band filters ``F1 = [v_{k+1}, ∞]`` (top-k),
   ``F2 = [-∞, v_k]`` (rest), valid because the probe showed density.
   They contain the probe-time values, so the system is silent until a
   real change; the first violation fixes the pivot ``z`` (``v_k`` for a
   violation from below, ``v_{k+1}`` from above) and enters the main stage.
2. **Partition** [step 1] — ``V1 = {v > z/(1-ε)}`` (must be in any valid
   output), ``V3 = {v < (1-ε)z}`` (can never be), ``V2`` the ε-band.
   Guess interval ``L₀ = [(1-ε)z, z]`` for ``ℓ*``, the lower endpoint of
   OPT's upper filter; sets ``S1``/``S2`` mark V2 nodes observed above
   ``u_r`` / below ``ℓ_r``.
3. **Rounds** [steps 2–3] — ``ℓ_r`` := midpoint of ``L_r``,
   ``u_r := ℓ_r/(1-ε)``; the filter table of step 2 is one broadcast.
   Violations shrink ``L`` (halving keeps ``ℓ* ∈ L`` — Lemma 5.7),
   reclassify nodes, or summon SUBPROTOCOL for an ``S1 ∩ S2`` conflict.
   ``L = ∅`` ⇒ OPT communicated ⇒ the phase ends.

Counting conditions (steps 3.b.1 / 3.b'.1) are evaluated with explicit
snapshot probes: "more than k nodes above u_r" via ``count_above(u_r)``
and "more than n−k nodes below ℓ_r" via ``count_above(ℓ_r, ≥) < k`` —
each costs one broadcast plus at most ``|V1| + |V2| ≤ k + σ`` replies,
within Lemma 5.3's budget.

Safety guards beyond the paper's pseudo-code (DESIGN.md §4 carries the
proof sketches that OPT must have communicated in each):

- ``|V1| > k``  or  ``|V3| > n-k`` ⇒ phase ends,
- everything classified (``|V1| = k``, ``|V3| = n-k``) ⇒ phase ends
  (the dispatcher will then find separated values and run TOP-K),
- the guess interval exhausted below ``resolution`` ⇒ phase ends
  (``resolution = 1`` matches the paper's ℕ-valued streams).
"""

from __future__ import annotations

import numpy as np

from repro.core.phased import PhaseCore, PhaseOutcome, two_filter_groups
from repro.core.sub_protocol import SubProtocol
from repro.model.channel import Channel, Violation
from repro.util.intervals import Interval

__all__ = ["DenseCore"]

#: The shared (read-only) id array of an empty broadcast group.
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


class DenseCore(PhaseCore):
    """One DENSEPROTOCOL phase (pre-stage + rounds + SUB dispatch)."""

    def __init__(
        self,
        channel: Channel,
        k: int,
        eps: float,
        probe: list[tuple[int, float]],
        *,
        resolution: float = 1.0,
    ) -> None:
        super().__init__(channel, k, eps)
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = float(resolution)
        self._stage = "pre"
        self._probe_vk = probe[k - 1][1]
        self._probe_vk1 = probe[k][1]
        self._pre_top = np.array([node for node, _ in probe[:k]], dtype=np.int64)
        self._output = frozenset(int(i) for i in self._pre_top)
        self._fill: set[int] = set(self._output)
        # Main-stage state (populated by _enter_main).
        self.z = float("nan")
        self.z_lo = float("nan")  # (1-ε)z — V3 threshold / S2 filter floor
        self.z_hi = float("nan")  # z/(1-ε) — V1 threshold / S1 filter cap
        self.V1: set[int] = set()
        self.V2: set[int] = set()
        self.V3: set[int] = set()
        self.S1: set[int] = set()
        self.S2: set[int] = set()
        self.L: Interval = Interval.empty()
        self.r = 0
        self.l_r = 0.0
        self.u_r = 0.0
        self.sub: SubProtocol | None = None
        # Statistics for the experiment tables.
        self.rounds_used = 0
        self.subs_started = 0
        self.sub_rounds = 0

    # ------------------------------------------------------------------ #
    # PhaseCore interface
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Install the pre-stage band filters (silent at probe time)."""
        groups = two_filter_groups(self.channel.n, self._pre_top, self._probe_vk1, self._probe_vk)
        self.channel.broadcast_filters(groups)

    def handle(self, violation: Violation) -> PhaseOutcome | None:
        if self._stage == "pre":
            z = self._probe_vk if violation.from_below else self._probe_vk1
            return self._enter_main(z)
        if self.sub is not None:
            return self.sub.handle(violation)
        return self._handle_main(violation)

    def output(self) -> frozenset[int]:
        return self._output

    # ------------------------------------------------------------------ #
    # Main-stage entry (paper step 1)
    # ------------------------------------------------------------------ #
    def _enter_main(self, z: float) -> PhaseOutcome | None:
        self._stage = "main"
        self.z = z
        self.z_hi = z / (1.0 - self.eps)
        self.z_lo = (1.0 - self.eps) * z
        ids_above, _ = self.channel.collect_above(self.z_hi, strict=True)
        self.V1 = {int(i) for i in ids_above}
        if len(self.V1) > self.k:
            return PhaseOutcome.RESTART
        ids_band, _ = self.channel.collect_between(self.z_lo, self.z_hi)
        self.V2 = {int(i) for i in ids_band} - self.V1
        self.V3 = set(range(self.channel.n)) - self.V1 - self.V2
        if len(self.V3) > self.channel.n - self.k:
            return PhaseOutcome.RESTART
        self.L = Interval(self.z_lo, z)
        self.r = 0
        self.S1 = set()
        self.S2 = set()
        if self.L.is_degenerate(self.resolution):
            return PhaseOutcome.RESTART
        self._set_round_bounds()
        outcome = self.refresh_output()
        if outcome is not None:
            return outcome
        self.rebroadcast()
        return None

    # ------------------------------------------------------------------ #
    # Main-stage violation dispatch (paper step 3)
    # ------------------------------------------------------------------ #
    def _handle_main(self, violation: Violation) -> PhaseOutcome | None:
        i = violation.node
        if i in self.V1:
            if violation.from_above:  # case 3.a
                return self.halve(lower=True)
            return None  # defensive: V1 filters have no upper bound
        if i in self.V3:
            if violation.from_below:  # case 3.a'
                return self.halve(lower=False)
            return None  # defensive: V3 filters have no lower bound
        in1, in2 = i in self.S1, i in self.S2
        if not in1 and not in2:  # i ∈ V2 \ S
            if violation.from_below:  # v > u_r
                if self.count_above_ur() > self.k:  # case 3.b.1
                    return self.halve(lower=False)
                self.S1.add(i)  # case 3.b.2
                self.channel.unicast_filter(i, Interval(self.l_r, self.z_hi))
                return self.refresh_output()
            # v < ℓ_r
            if self.count_ge_lr() < self.k:  # case 3.b'.1
                return self.halve(lower=True)
            self.S2.add(i)  # case 3.b'.2
            self.channel.unicast_filter(i, Interval(self.z_lo, self.u_r))
            return self.refresh_output()
        if in1 and not in2:  # i ∈ S1 \ S2
            if violation.from_below:  # v > z/(1-ε) — case 3.c.1
                outcome = self.move_to_v1(i)
                if outcome is not None:
                    return outcome
                return self.refresh_output()
            self.S2.add(i)  # case 3.c.2 → S1∩S2 → SUBPROTOCOL
            return self.start_sub(i)
        if in2 and not in1:  # i ∈ S2 \ S1
            if violation.from_above:  # v < (1-ε)z — case 3.c'.1
                outcome = self.move_to_v3(i)
                if outcome is not None:
                    return outcome
                return self.refresh_output()
            self.S1.add(i)  # case 3.c'.2 → S1∩S2 → SUBPROTOCOL
            return self.start_sub(i)
        # Defensive: S1∩S2 outside SUB should not persist; resolve it now.
        return self.start_sub(i)

    # ------------------------------------------------------------------ #
    # Shared operations (also used by SUBPROTOCOL)
    # ------------------------------------------------------------------ #
    def halve(self, *, lower: bool) -> PhaseOutcome | None:
        """Halve ``L`` (step 3.e); the halving direction resets one S-set.

        Lowering means the separator is in the lower half — above-``u_r``
        evidence (S2's "seen below" marks) stays meaningful, but S1 marks
        don't... per the paper: halve-to-lower resets S2, halve-to-upper
        resets S1 (cases 3.a/3.b'.1 vs 3.b.1/3.a').
        """
        self.L = self.L.lower_half() if lower else self.L.upper_half()
        if self.L.is_degenerate(self.resolution):
            return PhaseOutcome.RESTART
        if lower:
            self.S2 = set()
        else:
            self.S1 = set()
        self.r += 1
        self.rounds_used += 1
        self._set_round_bounds()
        outcome = self.refresh_output()
        if outcome is not None:
            return outcome
        self.rebroadcast()
        return None

    def move_to_v1(self, i: int) -> PhaseOutcome | None:
        """Reclassify ``i`` into V1 (it must be in every valid output)."""
        self.V2.discard(i)
        self.S1.discard(i)
        self.S2.discard(i)
        self.V1.add(i)
        if len(self.V1) > self.k:
            return PhaseOutcome.RESTART  # guard (DESIGN §4): OPT communicated
        self.channel.unicast_filter(i, Interval.at_least(self.l_r))
        return self._check_all_classified()

    def move_to_v3(self, i: int) -> PhaseOutcome | None:
        """Reclassify ``i`` into V3 (it can be in no valid output)."""
        self.V2.discard(i)
        self.S1.discard(i)
        self.S2.discard(i)
        self.V3.add(i)
        if len(self.V3) > self.channel.n - self.k:
            return PhaseOutcome.RESTART  # guard (DESIGN §4)
        upper = self.u_r if self.sub is None else self.sub.u_p
        self.channel.unicast_filter(i, Interval.at_most(upper))
        return self._check_all_classified()

    def _check_all_classified(self) -> PhaseOutcome | None:
        """Step 3.d/e: k nodes provably above, n-k provably below."""
        if len(self.V1) == self.k and len(self.V3) == self.channel.n - self.k:
            return PhaseOutcome.RESTART  # dispatcher will run TOP-K next
        return None

    def start_sub(self, initiator: int) -> PhaseOutcome | None:
        """Invoke SUBPROTOCOL for the ``S1 ∩ S2`` conflict at ``initiator``."""
        self.subs_started += 1
        sub = SubProtocol(self, initiator)
        outcome = sub.start()
        if outcome is not None:
            return outcome
        self.sub = sub
        return None

    # ------------------------------------------------------------------ #
    # Counting probes (steps 3.b.1 / 3.b'.1)
    # ------------------------------------------------------------------ #
    def count_above_ur(self) -> int:
        """Snapshot count of nodes with value > u_r (1 bcast + ≤ k+σ msgs)."""
        with self.channel.ledger.scope("dense_count"):
            return self.channel.count_above(self.u_r, strict=True)

    def count_ge_lr(self) -> int:
        """Snapshot count of nodes with value ≥ ℓ_r (cheap complement of
        "more than n-k below ℓ_r": that holds iff this count is < k)."""
        with self.channel.ledger.scope("dense_count"):
            return self.channel.count_above(self.l_r, strict=False)

    # ------------------------------------------------------------------ #
    # Round bookkeeping
    # ------------------------------------------------------------------ #
    def _set_round_bounds(self) -> None:
        self.l_r = self.L.midpoint
        self.u_r = self.l_r / (1.0 - self.eps)

    def ids(self, members: set[int]) -> np.ndarray:
        """Sorted ndarray of a member set (broadcast-group helper)."""
        if not members:
            return _NO_IDS
        return np.fromiter(sorted(members), dtype=np.int64, count=len(members))

    def rebroadcast(self) -> None:
        """Install the step-2 filter table for round ``r`` (one broadcast)."""
        only1 = self.S1 - self.S2
        only2 = self.S2 - self.S1
        plain = self.V2 - self.S1 - self.S2
        self.channel.broadcast_filters(
            [
                (self.ids(self.V1), Interval.at_least(self.l_r)),
                (self.ids(only1), Interval(self.l_r, self.z_hi)),
                (self.ids(plain), Interval(self.l_r, self.u_r)),
                (self.ids(only2), Interval(self.z_lo, self.u_r)),
                (self.ids(self.V3), Interval.at_most(self.u_r)),
            ]
        )

    # ------------------------------------------------------------------ #
    # Output selection (step 2's "k − |…| many nodes from V2 \ S2")
    # ------------------------------------------------------------------ #
    def refresh_output(self) -> PhaseOutcome | None:
        """DENSE output: V1 ∪ (S1\\S2) plus fill from V2 \\ S."""
        core = self.V1 | (self.S1 - self.S2)
        pool = self.V2 - self.S1 - self.S2
        return self.select_output(core, pool)

    def select_output(self, core: set[int], pool: set[int]) -> PhaseOutcome | None:
        """Choose ``F`` = ``core`` plus ``k - |core|`` pool nodes.

        Keeps the previous fill where still legal and tops up by lowest id
        (deterministic, minimizes output churn); infeasibility (more
        mandatory nodes than k, or not enough candidates) ends the phase.
        """
        if len(core) > self.k:
            return PhaseOutcome.RESTART
        need = self.k - len(core)
        keep = sorted(self._fill & pool)[:need]
        if len(keep) < need:
            extra = sorted(pool - set(keep))
            keep.extend(extra[: need - len(keep)])
        if len(keep) < need:
            return PhaseOutcome.RESTART  # not enough witnesses (DESIGN §4)
        self._fill = set(keep)
        self._output = frozenset(core | self._fill)
        return None
