"""Closed numeric intervals, the currency of filter-based monitoring.

The paper manipulates two kinds of intervals:

- *filters* ``F_i = [l_i, u_i]`` assigned to nodes (``u_i`` may be ``+inf``,
  ``l_i`` may be ``0`` or ``-inf``), and
- the *guess interval* ``L = [l, u]`` that online algorithms maintain on the
  position of the offline algorithm's separating value (Sections 3–5).

Both are closed intervals over the reals; ``Interval`` implements exactly
the operations the protocols need: membership, intersection, halving
(midpoint splits used by the generic framework), and emptiness.  The class
is an immutable value type so that protocol state snapshots stay cheap and
aliasing bugs are impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Interval", "EMPTY"]

_INF = math.inf
_INFINITIES = (_INF, -_INF)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    An interval with ``lo > hi`` is *empty*; the canonical empty interval is
    :data:`EMPTY`.  All operations treat any ``lo > hi`` instance as empty.

    Parameters
    ----------
    lo:
        Lower endpoint (may be ``-inf``).
    hi:
        Upper endpoint (may be ``+inf``).
    """

    lo: float
    hi: float

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "Interval":
        """Return the canonical empty interval."""
        return EMPTY

    @staticmethod
    def everything() -> "Interval":
        """Return ``[-inf, +inf]``."""
        return Interval(-_INF, _INF)

    @staticmethod
    def at_least(lo: float) -> "Interval":
        """Return the upward-closed filter ``[lo, +inf]``."""
        return Interval(lo, _INF)

    @staticmethod
    def at_most(hi: float) -> "Interval":
        """Return the downward-closed filter ``[-inf, hi]``."""
        return Interval(-_INF, hi)

    @staticmethod
    def point(x: float) -> "Interval":
        """Return the degenerate interval ``[x, x]``."""
        return Interval(x, x)

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """``True`` when the interval contains no point (``lo > hi``)."""
        return self.lo > self.hi

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """``True`` when ``other ⊆ self`` (the empty set is in everything)."""
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """``True`` when the two intervals share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #
    # The guess-interval operations below run several times per handled
    # violation, so they test emptiness (``lo > hi``) and unboundedness
    # inline rather than through ``is_empty`` and ``math.isinf``.

    @property
    def width(self) -> float:
        """Length ``hi - lo`` (``0`` for empty intervals, ``inf`` allowed)."""
        lo, hi = self.lo, self.hi
        if lo > hi:
            return 0.0
        return hi - lo

    @property
    def midpoint(self) -> float:
        """Arithmetic midpoint; requires a non-empty, bounded interval."""
        lo, hi = self.lo, self.hi
        if lo > hi:
            raise ValueError("midpoint of an empty interval")
        if lo in _INFINITIES or hi in _INFINITIES:
            raise ValueError(f"midpoint of an unbounded interval {self}")
        return (lo + hi) / 2.0

    # ------------------------------------------------------------------ #
    # Combinators
    # ------------------------------------------------------------------ #
    def intersect(self, other: "Interval") -> "Interval":
        """Intersection; returns :data:`EMPTY` if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return EMPTY
        return Interval(lo, hi)

    def clamp_below(self, x: float) -> "Interval":
        """``self ∩ [-inf, x]`` — used when a violation from above at value
        ``x`` proves the offline separator is at most ``x``."""
        return self.intersect(Interval.at_most(x))

    def clamp_above(self, x: float) -> "Interval":
        """``self ∩ [x, +inf]`` — dual of :meth:`clamp_below`."""
        return self.intersect(Interval.at_least(x))

    def lower_half(self) -> "Interval":
        """The closed lower half ``[lo, mid)`` rendered as ``[lo, prev(mid)]``.

        The paper halves the guess interval ``L``; to guarantee that
        repeated halving terminates (reaches the empty interval) even for
        point intervals, a half of a point interval is empty and the two
        halves share no interior.  We use half-open semantics realized with
        closed intervals: lower half is ``[lo, mid]`` with ``mid`` excluded
        from the upper half.  Since widths shrink geometrically this always
        empties in ``O(log(width/resolution))`` steps; protocols detect
        emptiness via :attr:`is_empty` *or* width underflow (see
        :meth:`is_degenerate`).
        """
        if self.lo > self.hi or self.lo == self.hi:
            return EMPTY
        return Interval(self.lo, self.midpoint)

    def upper_half(self) -> "Interval":
        """The closed upper half ``[mid, hi]`` (see :meth:`lower_half`)."""
        if self.lo > self.hi or self.lo == self.hi:
            return EMPTY
        return Interval(self.midpoint, self.hi)

    def is_degenerate(self, resolution: float = 1.0) -> bool:
        """``True`` when further halving is pointless at this resolution.

        The paper's values are naturals, so its intervals empty after
        ``log Δ`` halvings.  With float values, halving never reaches the
        empty set by itself; protocols therefore treat an interval of width
        below ``resolution`` as (effectively) empty.  ``resolution=1.0``
        recovers the paper's integral semantics.
        """
        lo, hi = self.lo, self.hi
        return lo > hi or hi - lo < resolution

    # ------------------------------------------------------------------ #
    # Dunder conveniences
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty:
            return "Interval(∅)"
        return f"Interval[{self.lo:g}, {self.hi:g}]"


#: The canonical empty interval.
EMPTY = Interval(_INF, -_INF)
