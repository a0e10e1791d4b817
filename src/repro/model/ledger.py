"""Message and round accounting.

The efficiency measure of every algorithm in the paper is the *number of
messages*: node→server unicast, server→node unicast and server broadcast
each cost exactly one unit ("these communication methods incur unit
communication cost per message").  Protocol *rounds* are free but bounded
(polylogarithmic between consecutive time steps); the ledger records them
so the bound is auditable.

The ledger additionally keeps

- a per-time-step series of total messages (for the cumulative
  communication-over-time figures), backed by an amortized-growth int64
  buffer so 10⁶-step sessions do not pay per-element ``list`` overhead,
  and
- per-scope counters: primitives run inside ``with ledger.scope("max")``
  attribute their costs to that scope, which the experiment tables use to
  break down where communication goes.

The per-step series satisfies an accounting law the engine asserts at the
end of every run: ``sum(per_step) == messages``.  Messages charged
*between* ``end_step()`` and the next ``begin_step()`` (e.g. from a
side effect of reading the algorithm's output) are folded into the step
that just ended — they happened in reaction to that step — instead of
silently vanishing from the series.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["CostLedger", "CostSnapshot", "StepSeries"]


@dataclass(frozen=True, slots=True)
class CostSnapshot:
    """Immutable view of ledger totals, used for before/after deltas."""

    node_to_server: int
    server_to_node: int
    broadcasts: int
    rounds: int
    broadcast_cost: int = 1

    @property
    def messages(self) -> int:
        """Total message cost (rounds are not messages)."""
        return self.node_to_server + self.server_to_node + self.broadcasts * self.broadcast_cost

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        if self.broadcast_cost != other.broadcast_cost:
            raise ValueError(
                "cannot subtract snapshots taken under different broadcast "
                f"costs ({self.broadcast_cost} vs {other.broadcast_cost}); "
                "the delta's message total would be priced inconsistently"
            )
        return CostSnapshot(
            self.node_to_server - other.node_to_server,
            self.server_to_node - other.server_to_node,
            self.broadcasts - other.broadcasts,
            self.rounds - other.rounds,
            self.broadcast_cost,
        )


class StepSeries:
    """The per-step message series: an amortized-growth int64 buffer.

    Behaves like the ``list[int]`` it replaces — ``len``, indexing,
    slicing, iteration, ``==`` against lists — while storing the counts
    in one contiguous ``int64`` array (appending is amortized O(1) with
    doubling growth, and ``np.asarray(series)`` is a zero-copy view, so
    a 10⁶-step run neither boxes a million ints nor copies to cumsum).

    Only the :class:`CostLedger` appends; consumers treat it as
    read-only.
    """

    __slots__ = ("_buf", "_len")

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._buf = np.zeros(self._INITIAL_CAPACITY, dtype=np.int64)
        self._len = 0

    # -------------------------------------------------------------- #
    # Mutation (ledger-internal)
    # -------------------------------------------------------------- #
    def _append(self, value: int) -> None:
        if self._len == self._buf.shape[0]:
            grown = np.empty(self._buf.shape[0] * 2, dtype=np.int64)
            grown[: self._len] = self._buf
            self._buf = grown
        self._buf[self._len] = value
        self._len += 1

    def _add_to_last(self, amount: int) -> None:
        if self._len == 0:
            raise IndexError("cannot fold into an empty step series")
        self._buf[self._len - 1] += amount

    def _extend_zeros(self, count: int) -> None:
        """Append ``count`` zero entries in one pass (quiet-step replay)."""
        needed = self._len + count
        if needed > self._buf.shape[0]:
            capacity = self._buf.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._len] = self._buf[: self._len]
            self._buf = grown
        self._buf[self._len : needed] = 0
        self._len = needed

    # -------------------------------------------------------------- #
    # Sequence protocol
    # -------------------------------------------------------------- #
    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._buf[: self._len][index]
        value = self._buf[: self._len][index]  # IndexError past the end
        return int(value)

    def __iter__(self):
        return iter(self._buf[: self._len].tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepSeries):
            return np.array_equal(np.asarray(self), np.asarray(other))
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        if isinstance(other, np.ndarray):
            return bool(np.array_equal(np.asarray(self), other))
        return NotImplemented

    def __array__(self, dtype=None, copy=None):
        view = self._buf[: self._len]
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    def tolist(self) -> list[int]:
        """The series as a plain list of Python ints."""
        return self._buf[: self._len].tolist()

    # -------------------------------------------------------------- #
    # Pickling
    # -------------------------------------------------------------- #
    def __getstate__(self):
        # Canonical form: exactly the recorded prefix.  Pickling the raw
        # buffer would bake amortized-growth capacity (and ``np.empty``
        # garbage past ``_len``) into checkpoints, making the blob bytes
        # depend on append/restore history instead of the series alone —
        # the cross-topology harness asserts blobs bit-identical.
        return self._buf[: self._len].copy()

    def __setstate__(self, state) -> None:
        data = np.ascontiguousarray(state, dtype=np.int64)
        self._len = int(data.shape[0])
        # An empty buffer cannot grow by doubling; reseed capacity.
        self._buf = data if self._len else np.zeros(self._INITIAL_CAPACITY, dtype=np.int64)

    @property
    def total(self) -> int:
        """Sum of the series (one vectorized pass)."""
        return int(self._buf[: self._len].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = self._buf[: min(self._len, 8)].tolist()
        tail = ", ..." if self._len > 8 else ""
        return f"StepSeries([{', '.join(map(str, head))}{tail}], len={self._len})"


class CostLedger:
    """Mutable account of all communication in one simulation run.

    Parameters
    ----------
    broadcast_cost:
        Unit price of one broadcast.  The paper's model (Cormode et al.'s
        broadcast enhancement) uses 1; setting it to ``n`` recovers the
        plain model where reaching all nodes takes ``n`` unicasts —
        experiment T13 quantifies what the broadcast channel buys.
    """

    def __init__(self, broadcast_cost: int = 1) -> None:
        if broadcast_cost < 1:
            raise ValueError(f"broadcast_cost must be >= 1, got {broadcast_cost}")
        self.broadcast_cost = int(broadcast_cost)
        self.node_to_server = 0
        self.server_to_node = 0
        self.broadcasts = 0
        self.rounds = 0
        #: messages charged during each completed time step
        self.per_step = StepSeries()
        #: message total already recorded in ``per_step``
        self._accounted = 0
        self._scopes: list[str] = []
        self._by_scope: dict[str, int] = defaultdict(int)
        self._max_rounds_in_step = 0
        self._step_start_rounds = 0

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge_up(self, count: int = 1) -> None:
        """Charge ``count`` node→server messages."""
        if count < 0:
            raise ValueError(f"negative message count {count}")
        self.node_to_server += count
        if self._scopes:
            self._charge_scopes(count)

    def charge_down(self, count: int = 1) -> None:
        """Charge ``count`` server→node unicast messages."""
        if count < 0:
            raise ValueError(f"negative message count {count}")
        self.server_to_node += count
        if self._scopes:
            self._charge_scopes(count)

    def charge_broadcast(self, count: int = 1) -> None:
        """Charge ``count`` broadcasts (``broadcast_cost`` units each)."""
        if count < 0:
            raise ValueError(f"negative message count {count}")
        self.broadcasts += count
        if self._scopes:
            self._charge_scopes(count * self.broadcast_cost)

    def charge_rounds(self, count: int = 1) -> None:
        """Record ``count`` protocol rounds (free, but bounded)."""
        if count < 0:
            raise ValueError(f"negative round count {count}")
        self.rounds += count

    def _charge_scopes(self, amount: int) -> None:
        # Dedupe in stack order, not via ``set()`` iteration: set order is
        # hash-randomized *per process*, which would make ``_by_scope``
        # insertion order — and hence checkpoint blob bytes — differ
        # between a worker process and an in-process oracle.  Stacks of
        # one or two scopes (nearly every charge) skip the dedupe set.
        scopes, by_scope = self._scopes, self._by_scope
        if len(scopes) == 1:
            by_scope[scopes[0]] += amount
        elif len(scopes) == 2:
            outer, inner = scopes
            by_scope[outer] += amount
            if inner != outer:
                by_scope[inner] += amount
        else:
            charged: set[str] = set()
            for name in scopes:
                if name not in charged:
                    charged.add(name)
                    by_scope[name] += amount

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def messages(self) -> int:
        """Total message cost so far (broadcasts weighted by their price)."""
        return self.node_to_server + self.server_to_node + self.broadcasts * self.broadcast_cost

    def snapshot(self) -> CostSnapshot:
        """Immutable totals; subtract two snapshots to get a phase cost."""
        return CostSnapshot(
            self.node_to_server,
            self.server_to_node,
            self.broadcasts,
            self.rounds,
            self.broadcast_cost,
        )

    def by_scope(self) -> dict[str, int]:
        """Message totals attributed to each named scope."""
        return dict(self._by_scope)

    @property
    def max_rounds_per_step(self) -> int:
        """The largest number of rounds used between two time steps."""
        return self._max_rounds_in_step

    # ------------------------------------------------------------------ #
    # Time-step bookkeeping (driven by the engine)
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        """Mark the start of a time step (engine hook).

        Any messages charged since the previous ``end_step()`` — e.g.
        from a side effect of reading the algorithm's output after the
        step was closed — are folded into the step that just ended, so
        the series never loses charges (``sum(per_step) == messages``).
        """
        late = self.messages - self._accounted
        if late and len(self.per_step):
            self.per_step._add_to_last(late)
            self._accounted = self.messages
        self._step_start_rounds = self.rounds

    def end_step(self) -> None:
        """Mark the end of a time step; append to the per-step series."""
        self.per_step._append(self.messages - self._accounted)
        self._accounted = self.messages
        self._max_rounds_in_step = max(
            self._max_rounds_in_step, self.rounds - self._step_start_rounds
        )

    def flush_late_charges(self) -> int:
        """Fold post-``end_step()`` charges of the final step into the series.

        The engine calls this once at finalize (there is no trailing
        ``begin_step()`` to catch them).  Returns the folded amount.
        Charges made when *no* step has completed cannot be attributed
        and are left for the engine's accounting check to flag.
        """
        late = self.messages - self._accounted
        if late and len(self.per_step):
            self.per_step._add_to_last(late)
            self._accounted = self.messages
        return late

    def record_quiet_steps(self, count: int, rounds_per_step: int) -> None:
        """Account ``count`` violation-free steps in one bulk update.

        Replays exactly what ``count`` iterations of ``begin_step()`` /
        ``charge_rounds(rounds_per_step)`` / ``end_step()`` would have
        left behind when no messages are charged: the late-charge fold of
        the *first* ``begin_step()`` (subsequent ones see nothing late),
        ``count`` zeros appended to ``per_step``, the round counter and
        the max-rounds watermark, and ``_step_start_rounds`` as the last
        step's starting point.  Used by the engine's quiet-row replay (the
        time-axis scan of ``advance`` and the cross-session batch); any
        divergence from the serial sequence here breaks checkpoint
        bit-identity.
        """
        if count <= 0:
            return
        late = self.messages - self._accounted
        if late and len(self.per_step):
            self.per_step._add_to_last(late)
            self._accounted = self.messages
        self.per_step._extend_zeros(count)
        self.rounds += count * rounds_per_step
        self._step_start_rounds = self.rounds - rounds_per_step
        if rounds_per_step > self._max_rounds_in_step:
            self._max_rounds_in_step = rounds_per_step

    @property
    def unaccounted(self) -> int:
        """Messages not (yet) recorded in ``per_step``."""
        return self.messages - self.per_step.total

    # ------------------------------------------------------------------ #
    # Scoping
    # ------------------------------------------------------------------ #
    def scope(self, name: str) -> "_Scope":
        """Attribute messages charged inside the block to ``name``.

        Scopes nest *hierarchically*: a message charged inside nested
        scopes counts toward every scope on the stack (once per distinct
        name), so a composite primitive's total includes its building
        blocks.  Different scopes therefore overlap and do not sum to the
        ledger total.
        """
        return _Scope(self._scopes, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostLedger(up={self.node_to_server}, down={self.server_to_node}, "
            f"bcast={self.broadcasts}, rounds={self.rounds})"
        )


class _Scope:
    """The context manager :meth:`CostLedger.scope` returns.

    A slotted object rather than a ``@contextmanager`` generator: scopes
    are entered tens of thousands of times per second on escalating
    streams, and a generator frame per entry is a measurable share of
    that path.
    """

    __slots__ = ("_stack", "_name")

    def __init__(self, stack: list[str], name: str) -> None:
        self._stack = stack
        self._name = name

    def __enter__(self) -> None:
        self._stack.append(self._name)

    def __exit__(self, *exc_info) -> None:
        self._stack.pop()
