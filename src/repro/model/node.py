"""Node-local state: private values and server-assigned filters.

A :class:`NodeArray` holds what the *nodes* know — their current stream
values and the filter interval each was last assigned.  Server-side
algorithms must never read ``values`` directly; they interact with nodes
exclusively through :class:`repro.model.channel.Channel`, which charges the
cost ledger.  (The attribute is deliberately public so that *omniscient*
components — invariant checks, offline OPT, adaptive adversaries — can read
it; the layering is enforced by convention and by the test suite, which
audits that algorithms only hold a ``Channel``.)

Filters follow Definition 2.1: one closed interval per node, ``[lo, hi]``
with ``hi = +inf`` allowed.  A node *violates from below* when its value
exceeds ``hi`` (it crossed the upper boundary coming from below) and
*violates from above* when its value drops under ``lo`` — the paper's
slightly counter-intuitive naming, kept here for 1:1 traceability.

Filter-containment is the per-step hot predicate of every filter-based
protocol, so the array keeps a *batched* violation state (the violating
ids, plus per-node kind codes derived on demand) computed at most once
per state version: every mutator bumps ``version`` and the next
violation query recomputes the batch into preallocated buffers.
External code that mutates ``values``/``filter_lo``/``filter_hi`` arrays
directly (only the channel legitimately writes filters) must either go
through the methods here or call :meth:`touch`.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

from repro.util.intervals import Interval

__all__ = ["NodeArray", "VIOLATION_NONE", "VIOLATION_BELOW", "VIOLATION_ABOVE"]

#: No violation: the value lies inside the assigned filter.
VIOLATION_NONE = 0
#: Violation *from below*: value > filter upper bound (Sect. 2.1).
VIOLATION_BELOW = 1
#: Violation *from above*: value < filter lower bound (Sect. 2.1).
VIOLATION_ABOVE = 2

#: Derived violation state: recomputed lazily per version and never
#: pickled, so checkpoint bytes are a pure function of (values, filters,
#: version) — ``np.empty`` scratch would otherwise leak uninitialized
#: memory, and the cache contents would depend on whether violations
#: were read since the last mutation.
_VIOLATION_CACHE = (
    "_viol_version",
    "_viol_ids",
    "_above_buf",
    "_below_buf",
    "_any_buf",
    "_kind_version",
    "_viol_kind",
)


class NodeArray:
    """Vectorized state of the ``n`` distributed nodes.

    Parameters
    ----------
    n:
        Number of nodes.  Node ids are ``0..n-1`` (the paper uses 1-based
        ids only for exposition).
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        self.n = int(n)
        self.values = np.zeros(n, dtype=np.float64)
        # Initial filters are [-inf, +inf]: silent until the server speaks.
        self.filter_lo = np.full(n, -math.inf, dtype=np.float64)
        self.filter_hi = np.full(n, math.inf, dtype=np.float64)
        #: Monotone state version; bumped by every mutator.
        self.version = 0
        self._reset_violation_cache()

    # ------------------------------------------------------------------ #
    # Value delivery (engine-side)
    # ------------------------------------------------------------------ #
    def deliver(self, values: np.ndarray, *, validate: bool = True) -> None:
        """Install the time step's observations (one per node).

        ``validate=False`` skips the shape/finiteness checks — the
        engine's fast path for sources that pre-validate whole traces at
        construction (see :class:`repro.streams.base.Trace`).
        """
        if validate:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.n,):
                raise ValueError(f"expected shape ({self.n},), got {values.shape}")
            if not np.all(np.isfinite(values)):
                raise ValueError("stream values must be finite")
        self.values[:] = values
        self.version += 1

    # ------------------------------------------------------------------ #
    # Filter assignment (channel-side; costs charged by the channel)
    # ------------------------------------------------------------------ #
    def set_filter(self, node_id: int, interval: Interval) -> None:
        """Assign ``interval`` as node ``node_id``'s filter."""
        self.filter_lo[node_id] = interval.lo
        self.filter_hi[node_id] = interval.hi
        self.version += 1

    def set_filters_bulk(self, ids: np.ndarray, lo: float, hi: float) -> None:
        """Assign the same ``[lo, hi]`` filter to every node in ``ids``."""
        self.filter_lo[ids] = lo
        self.filter_hi[ids] = hi
        self.version += 1

    def set_filter_groups(self, groups: Iterable[tuple[object, Interval]]) -> None:
        """Install a filter table: each ``(ids, interval)`` group in order.

        ``ids`` is a set of node ids (a phase core's member set), an index
        array or list, or a boolean mask.  Later groups override earlier
        ones on overlap, and ``version`` advances once per group, empty
        groups included — exactly one :meth:`set_filters_bulk` or
        :meth:`touch` per group.
        """
        filter_lo, filter_hi = self.filter_lo, self.filter_hi
        for ids, interval in groups:
            if isinstance(ids, (set, frozenset)):
                ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
            else:
                ids = np.asarray(ids)
                if ids.dtype == bool:
                    ids = ids.nonzero()[0]
            if ids.size:
                filter_lo[ids] = interval.lo
                filter_hi[ids] = interval.hi
            self.version += 1

    def freeze_all(self) -> None:
        """Every node adopts the point filter ``[v_i, v_i]`` locally."""
        self.filter_lo[:] = self.values
        self.filter_hi[:] = self.values
        self.version += 1

    def freeze_one(self, node_id: int) -> None:
        """One node re-arms its point filter from its own value."""
        i = int(node_id)
        self.filter_lo[i] = self.values[i]
        self.filter_hi[i] = self.values[i]
        self.version += 1

    def touch(self) -> None:
        """Invalidate cached violation state after a direct array write."""
        self.version += 1

    # ------------------------------------------------------------------ #
    # Structure-of-arrays binding (multi-session batch fast path)
    # ------------------------------------------------------------------ #
    def bind_rows(self, values_row: np.ndarray, lo_row: np.ndarray, hi_row: np.ndarray) -> None:
        """Rebase state onto caller-owned row views of a ``(S, n)`` block.

        :class:`~repro.model.engine.EngineBatch` points each member session
        at one row of a shared structure-of-arrays block so that quiet
        steps touch all sessions in a single vectorized pass.  Current
        state is copied in and the arrays are swapped; every existing
        mutator keeps working unchanged because they all write through
        ``self.values``/``self.filter_lo``/``self.filter_hi`` in place.
        Binding is invisible to the protocol (same contents, same version)
        and must be undone with :meth:`unbind` before the array is
        pickled or outlives the block.
        """
        values_row[:] = self.values
        lo_row[:] = self.filter_lo
        hi_row[:] = self.filter_hi
        self.values = values_row
        self.filter_lo = lo_row
        self.filter_hi = hi_row
        self._viol_version = self._kind_version = -1

    def unbind(self) -> None:
        """Detach from a shared block by re-owning copies of the rows.

        ``.copy()`` rather than ``np.ascontiguousarray``: row views of a
        C-contiguous 2-D block are themselves contiguous, so the latter
        would return the view unchanged and the "private" state would
        keep aliasing the (about to be reused) block.
        """
        self.values = self.values.copy()
        self.filter_lo = self.filter_lo.copy()
        self.filter_hi = self.filter_hi.copy()
        self._viol_version = self._kind_version = -1

    def advance_version(self, count: int) -> None:
        """Bump the state version by ``count`` mutations at once.

        The engine's quiet-step replay delivers ``count`` steps of values
        in bulk; the version must advance exactly as if
        :meth:`deliver` had run once per step, so that checkpoints taken
        afterwards are bit-identical to the serial path's.
        """
        self.version += int(count)

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        for key in _VIOLATION_CACHE:
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern keys like pickle's default load_build would, so restored
        # node arrays re-pickle with identical string memoization.
        self.__dict__.update({sys.intern(key): value for key, value in state.items()})
        self._reset_violation_cache()

    def _reset_violation_cache(self) -> None:
        """(Re)create the derived violation state; see :data:`_VIOLATION_CACHE`."""
        n = self.n
        self._viol_version = -1
        self._viol_ids = np.empty(0, dtype=np.int64)
        self._above_buf = np.empty(n, dtype=bool)
        self._below_buf = np.empty(n, dtype=bool)
        self._any_buf = np.empty(n, dtype=bool)
        self._kind_version = -1
        self._viol_kind = np.zeros(n, dtype=np.int8)

    def get_filter(self, node_id: int) -> Interval:
        """Return node ``node_id``'s current filter."""
        return Interval(float(self.filter_lo[node_id]), float(self.filter_hi[node_id]))

    # ------------------------------------------------------------------ #
    # Node-local predicates (free: local computation costs nothing)
    # ------------------------------------------------------------------ #
    def _refresh_violations(self) -> None:
        """Batch-recompute the violating ids for the current version.

        Four numpy calls; the per-node kind codes are derived from the
        same comparison buffers only when :meth:`violation_kind` asks.
        """
        if self._viol_version == self.version:
            return
        above, below = self._above_buf, self._below_buf
        np.greater(self.values, self.filter_hi, out=above)
        np.less(self.values, self.filter_lo, out=below)
        self._viol_ids = np.logical_or(above, below, out=self._any_buf).nonzero()[0]
        self._viol_version = self.version

    def violation_kind(self) -> np.ndarray:
        """Per-node violation code (``VIOLATION_*``) for current values.

        Returns the cached batch buffer — treat it as read-only; it is
        rewritten in place on the next state change.  A node outside an
        empty filter (``lo > hi``) on both sides reads
        :data:`VIOLATION_ABOVE` (that write comes last), as
        :meth:`Channel.existence_violation` classifies its one report.
        """
        self._refresh_violations()
        if self._kind_version != self._viol_version:
            kind = self._viol_kind
            kind[:] = VIOLATION_NONE
            if self._viol_ids.size:
                kind[self._above_buf] = VIOLATION_BELOW
                kind[self._below_buf] = VIOLATION_ABOVE
            self._kind_version = self._viol_version
        return self._viol_kind

    def violation_ids(self) -> np.ndarray:
        """Ids of nodes outside their filter (cached; treat as read-only)."""
        self._refresh_violations()
        return self._viol_ids

    def violating_mask(self) -> np.ndarray:
        """Boolean mask of nodes whose value is outside their filter.

        Always a fresh array — callers may mutate it freely.
        """
        self._refresh_violations()
        return self._any_buf.copy()

    def mask_above(self, threshold: float, *, strict: bool = True) -> np.ndarray:
        """Mask of nodes with value above ``threshold``."""
        return self.values > threshold if strict else self.values >= threshold

    def mask_below(self, threshold: float, *, strict: bool = True) -> np.ndarray:
        """Mask of nodes with value below ``threshold``."""
        return self.values < threshold if strict else self.values <= threshold

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeArray(n={self.n})"
