"""EXISTENCE-based communication primitives (Sections 2.2 and 3).

These compose the :class:`~repro.model.channel.Channel`'s raw operations
into the protocols the monitoring algorithms are built from:

- :func:`max_protocol` — Lemma 2.6: find the node holding the largest
  value with O(log n) messages in expectation.  The server repeatedly
  broadcasts its current threshold; nodes above it answer through the
  existence protocol; the threshold jumps to the largest answer.  Each
  iteration costs 1 broadcast + O(1) expected upstream messages, and the
  number of active nodes halves in expectation per iteration (the answer
  set is a uniform random subset of the actives), giving O(log n)
  iterations.
- :func:`top_m_probe` — the "compute the nodes holding the (k+1) largest
  values" step used by every Section 4/5 algorithm: repeat the max
  protocol with found nodes silenced (one stand-down unicast each),
  O(m log n) messages in expectation.  Handles ties correctly (each
  restart scans all remaining nodes from −∞).
- :func:`detect_violation_existence` — Corollary 3.2 violation detection:
  O(1) expected messages, zero when nothing violates.
- :func:`detect_violation_bisection` — the deterministic group-testing
  detection the existence protocol replaces (id-range bisection,
  Θ(log n) messages per violation).  Used only by the `[6]`-style exact
  baseline so experiment T3/T11 can measure the improvement of Cor. 3.3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.channel import Channel, Violation

__all__ = [
    "max_protocol",
    "min_protocol",
    "top_m_probe",
    "detect_violation_existence",
    "detect_violation_direct",
    "detect_violation_bisection",
]


def max_protocol(
    channel: Channel,
    *,
    above: float = -math.inf,
    exclude: np.ndarray | None = None,
) -> tuple[int, float] | None:
    """Find ``(argmax id, max value)`` among non-excluded nodes > ``above``.

    Returns ``None`` when no node qualifies.  Las Vegas: the result is
    always exact; only the message count is random.
    """
    best: tuple[int, float] | None = None
    threshold = above
    with channel.ledger.scope("max_protocol"):
        while True:
            channel.announce()  # threshold (+ stand-down bookkeeping)
            ids, values = channel.existence_above(threshold, strict=True, exclude=exclude)
            if ids.size == 0:
                return best
            j = int(values.argmax())
            best = (int(ids[j]), float(values[j]))
            threshold = best[1]


def min_protocol(
    channel: Channel,
    *,
    below: float = math.inf,
    exclude: np.ndarray | None = None,
) -> tuple[int, float] | None:
    """Mirror of :func:`max_protocol`: the node holding the smallest value.

    Same O(log n) expected cost by symmetry; used by the `[6]`-style
    baseline to re-probe the top group's boundary after a violation.
    """
    best: tuple[int, float] | None = None
    threshold = below
    with channel.ledger.scope("min_protocol"):
        while True:
            channel.announce()
            ids, values = channel.existence_below(threshold, strict=True, exclude=exclude)
            if ids.size == 0:
                return best
            j = int(values.argmin())
            best = (int(ids[j]), float(values[j]))
            threshold = best[1]


def top_m_probe(channel: Channel, m: int) -> list[tuple[int, float]]:
    """The ``m`` largest values and their holders, sorted descending.

    Repeats the Lemma 2.6 max protocol ``m`` times; each found node is
    silenced with one stand-down unicast so the next round scans the rest.
    Ties are resolved by whichever tied node the randomized protocol finds
    first — sufficient for every use in the paper, where only the *values*
    at ranks k and k+1 matter.  Returns fewer than ``m`` entries only if
    the system has fewer than ``m`` nodes.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > channel.n:
        raise ValueError(f"cannot probe top-{m} of {channel.n} nodes")
    found: list[tuple[int, float]] = []
    silenced = np.empty(m, dtype=np.int64)
    with channel.ledger.scope("top_m_probe"):
        for j in range(m):
            result = max_protocol(channel, exclude=silenced[:j])
            if result is None:  # pragma: no cover - m <= n makes this unreachable
                break
            found.append(result)
            channel.notify(result[0])  # stand down
            silenced[j] = result[0]
    return found


def detect_violation_existence(channel: Channel) -> Violation | None:
    """One violation report via the existence protocol (Cor. 3.2).

    All currently-violating nodes participate; the responders of the first
    successful round are charged, and the server acts on the first one
    ("the server processes one violation at a time ... and simply
    ignores" the rest).  Zero cost when nothing violates.
    """
    with channel.ledger.scope("violation_detection"):
        reports = channel.existence_violations()
    return reports[0] if reports else None


def detect_violation_direct(channel: Channel) -> Violation | None:
    """One violation report via direct (unbatched) self-reports.

    The pre-Lemma-3.1 discipline: every violating node sends immediately
    (they cannot coordinate), the server acts on the lowest id.  Free when
    silent, but m simultaneous violators cost m messages where the
    existence protocol pays O(1).  Used by the `[6]`-style baseline.
    """
    with channel.ledger.scope("violation_detection"):
        reports = channel.report_violations_all()
    return reports[0] if reports else None


def detect_violation_bisection(channel: Channel) -> Violation | None:
    """One violation report via deterministic id-range bisection.

    This is the detection scheme the paper's Lemma 3.1 improves on: the
    server binary-searches the id space with "any violator in [a, b]?"
    queries (1 broadcast + 1 reply each), then fetches the report —
    Θ(log n) messages per violation even when only one node violates,
    which is exactly the extra log-factor in the `[6]` bound
    O(k log n + log Δ · log n).
    """
    with channel.ledger.scope("violation_detection"):
        if not channel.range_has_violator(0, channel.n - 1):
            return None
        lo, hi = 0, channel.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if channel.range_has_violator(lo, mid):
                hi = mid
            else:
                lo = mid + 1
        return channel.violation_report(lo)
