"""The time-step loop driving an algorithm over a value source.

The engine realizes the continuous monitoring model's clock: at each step
it delivers fresh observations to the nodes, lets the algorithm's protocol
settle, then (optionally) verifies the model's laws with the omniscient
checks of :mod:`repro.model.invariants`:

1. the output ``F(t)`` is a valid ε-top-k set,
2. the assigned filters form a valid set of filters (Observation 2.2), and
3. every node's value lies inside its filter (Definition 2.1) — i.e. the
   protocol really settled.

The loop is *incremental*: :meth:`MonitoringEngine.start` opens a run,
:meth:`MonitoringEngine.advance` consumes observations in arbitrary
chunks, and :meth:`MonitoringEngine.finalize` closes the accounting and
returns the :class:`RunResult`.  :meth:`MonitoringEngine.run` is the
classic one-shot wrapper: it drives the same three calls over a
:class:`ValueSource` from step 0 to ``T-1``.  Incremental runs need no
source at all — construct with ``source=None, n=...`` and push blocks;
this is how the service layer (:mod:`repro.service`) hosts long-lived
monitoring sessions over unbounded streams.

Value sources are either pre-generated traces or *adaptive adversaries*;
the latter receive the :class:`~repro.model.node.NodeArray` (they are
omniscient by definition — "the adversary knows the algorithm's code, the
current state of each node and the server", Sect. 2.1).

The non-check loop has a vectorized fast path (the sweep runner drives
thousands of such runs, see docs/ARCHITECTURE.md):

- sources that declare ``prevalidated = True`` skip the per-step
  shape/finiteness re-checks in :meth:`NodeArray.deliver` —
  :class:`~repro.streams.base.Trace` validates the whole matrix at
  construction, :class:`~repro.streams.streaming.StreamingSource`
  validates each lazily generated block once on arrival, and
  :meth:`MonitoringEngine.advance` validates each pushed block once on
  entry;
- filter-containment tests are served from the node array's cached batch
  (recomputed once per state version, not per query);
- outputs are recorded as rows of a preallocated ``(T, k)`` int array
  (grown by amortized doubling when the horizon is open-ended) instead
  of a list of frozensets, and output-change counting runs as one
  vectorized pass over that array at finalize.

Pushed blocks additionally skip the protocol on *quiet* rows.  In the
paper's filter model a node whose value stays inside its filter sends
nothing (Def. 2.1, Cor. 3.2), and an algorithm that declares
``quiet_step_rounds() == R`` promises that such a step is exactly R
rounds of bookkeeping.  :meth:`MonitoringEngine.advance` therefore scans
the block along the time axis: one numpy pass compares a window of rows
against the standing filters and finds the first violating row, the
quiet rows before it are replayed in one :meth:`_record_quiet_steps`
call, and only the violating row runs the serial ``_step`` (whose filter
updates the next window is compared against).  The window starts at
:data:`_SCAN_WINDOW` rows, doubles while rows stay quiet and falls back
after every escalation, so an all-escalating stream pays a few rows of
comparison per step rather than a rescan of the rest of the block.
Step 0, irregular outputs, ``check=True`` and algorithms without a
quiet-step declaration step every row — exactly the engines that
:attr:`MonitoringEngine.batchable` excludes.  :class:`EngineBatch`
applies the same contract across sessions, one step at a time.

Finalize additionally audits the ledger's accounting law: every charged
message must appear in the per-step series (``sum(per_step) ==
messages``); charges made after ``end_step()`` — e.g. from an
``output()`` side effect — are folded into the step they reacted to by
:class:`~repro.model.ledger.CostLedger`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.model.channel import Channel
from repro.model.invariants import (
    InvariantViolation,
    filters_form_valid_set,
    output_valid,
    values_within_filters,
)
from repro.model.ledger import CostLedger
from repro.model.node import NodeArray
from repro.model.protocol import MonitoringAlgorithm
from repro.util.rngtools import make_rng

__all__ = ["ValueSource", "MonitoringEngine", "EngineBatch", "RunResult"]

#: Initial ``(T, k)`` output-buffer rows for open-ended runs (no
#: ``expect_steps``); grown by doubling.
_INITIAL_ROWS = 1024

#: Rows in the first containment window of :meth:`MonitoringEngine.advance`'s
#: time-axis scan; the window doubles while rows stay quiet and falls back
#: here after every escalation.
_SCAN_WINDOW = 4


@runtime_checkable
class ValueSource(Protocol):
    """Anything that can feed values to the engine, step by step.

    The engine reads steps strictly in order ``0..T-1``, so sources may
    generate lazily (see :class:`repro.streams.streaming.StreamingSource`,
    which keeps one block resident).  Two optional attributes refine the
    contract:

    - ``prevalidated`` (bool): the source guarantees finite values of
      shape ``(n,)`` at every step — whole-matrix validation for
      :class:`~repro.streams.base.Trace`, per-block validation for
      streaming sources — and the engine skips per-step delivery checks.
    - ``reset()``: called once at the start of every run, letting
      single-pass sources rewind so one source object supports repeated
      runs.
    """

    @property
    def n(self) -> int:
        """Number of nodes."""

    @property
    def num_steps(self) -> int:
        """Number of time steps the source provides."""

    def values(self, t: int, nodes: NodeArray) -> np.ndarray:
        """Observations for step ``t`` (may inspect ``nodes`` — adversaries)."""


@dataclass
class RunResult:
    """Everything measured during one simulation run."""

    ledger: CostLedger
    num_steps: int
    n: int
    k: int
    output_changes: int = 0
    algorithm_name: str = ""
    #: Recorded outputs as a ``(T, k)`` int array of sorted node ids —
    #: the engine's compact fast-path representation.  ``None`` when
    #: outputs were not recorded or were irregular (size ≠ k).
    #: Excluded from dataclass comparison (ndarray ``==`` is elementwise).
    outputs_array: np.ndarray | None = field(default=None, compare=False)
    _outputs_list: list[frozenset[int]] | None = field(default=None, repr=False, compare=False)
    _cumulative: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def outputs(self) -> list[frozenset[int]]:
        """``F(t)`` per step as frozensets (empty when not recorded)."""
        if self._outputs_list is None:
            if self.outputs_array is None:
                return []
            self._outputs_list = [frozenset(row) for row in self.outputs_array.tolist()]
        return self._outputs_list

    @property
    def messages(self) -> int:
        """Total unit-cost messages of the run."""
        return self.ledger.messages

    @property
    def cumulative_messages(self) -> np.ndarray:
        """Cumulative message count after each time step (length T).

        Cached after the first access; invalidated when the series has
        changed since — either grown (a live session's ledger) or had a
        late charge folded into its last entry (same length, larger
        total) — so repeated reads of a settled result don't re-run
        ``cumsum``.
        """
        series = self.ledger.per_step
        cached = self._cumulative
        if (
            cached is None
            or cached.shape[0] != len(series)
            or (cached.shape[0] and int(cached[-1]) != series.total)
        ):
            self._cumulative = np.cumsum(np.asarray(series, dtype=np.int64))
        return self._cumulative

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult({self.algorithm_name}, T={self.num_steps}, n={self.n}, "
            f"k={self.k}, messages={self.messages})"
        )


class MonitoringEngine:
    """Drive ``algorithm`` over observations and account every message.

    Parameters
    ----------
    source:
        A :class:`ValueSource` (trace or adaptive adversary), or ``None``
        for a push-driven run fed through :meth:`advance` (then ``n``
        must be given).  Sources with a true ``prevalidated`` attribute
        promise finite values of the right shape at every step and get
        validation-free delivery.
    algorithm:
        A fresh :class:`MonitoringAlgorithm` instance (one per run).
    k:
        The top-``k`` parameter, used for verification and result metadata.
    eps:
        The output error the algorithm is allowed; used only by the
        verification mode (pass the algorithm's own ε; ``0`` for exact).
    seed:
        Seed/generator for the channel's protocol randomness.
    check:
        When ``True``, verify the three model laws after every step and
        raise :class:`InvariantViolation` on the first breach.  Meant for
        tests and debugging (it reads values omnisciently); benchmarks run
        with ``check=False``.
    record_outputs:
        When ``True`` (default) keep ``F(t)`` per step in the result.
    broadcast_cost:
        Unit price of a broadcast (model ablation T13; default 1 — the
        paper's broadcast-channel model).
    existence_base:
        Growth base of the existence protocol's send probabilities
        (model ablation T14; default 2 — the Lemma 3.1 protocol).
    n:
        Number of nodes for push-driven runs (``source=None``); must
        match ``source.n`` when both are given.
    """

    def __init__(
        self,
        source: ValueSource | None,
        algorithm: MonitoringAlgorithm,
        *,
        k: int,
        eps: float = 0.0,
        seed: int | np.random.Generator | None = 0,
        check: bool = False,
        record_outputs: bool = True,
        broadcast_cost: int = 1,
        existence_base: float = 2.0,
        n: int | None = None,
    ) -> None:
        if source is None:
            if n is None:
                raise TypeError("a push-driven engine (source=None) needs n=...")
            num_nodes = int(n)
        else:
            if not isinstance(source, ValueSource):
                raise TypeError(f"source must implement ValueSource, got {type(source).__name__}")
            num_nodes = source.n
            if n is not None and int(n) != num_nodes:
                raise ValueError(f"n={n} contradicts source.n={num_nodes}")
        self.source = source
        self.algorithm = algorithm
        self.k = int(k)
        self.eps = float(eps)
        self.check = bool(check)
        self.record_outputs = bool(record_outputs)
        self.nodes = NodeArray(num_nodes)
        self.ledger = CostLedger(broadcast_cost=broadcast_cost)
        self.channel = Channel(
            self.nodes, self.ledger, make_rng(seed), existence_base=existence_base
        )
        # Incremental run state (created by start()).
        self._started = False
        self._finalized = False
        self._t = 0
        self._rows: np.ndarray | None = None
        self._prev_row: np.ndarray | None = None
        self._changes = 0
        # Object fallback, entered only if an output ever has size != k
        # (a protocol-contract breach the engine tolerates for baselines).
        self._irregular = False
        self._outputs_list: list[frozenset[int]] = []
        self._previous: frozenset[int] | None = None

    # ------------------------------------------------------------------ #
    # One-shot wrapper
    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the full run over ``source`` and return the measurements."""
        source = self.source
        if source is None:
            raise RuntimeError(
                "run() needs a value source; push-driven engines are driven "
                "with start()/advance()/finalize()"
            )
        reset = getattr(source, "reset", None)
        if callable(reset):
            reset()  # streaming sources rewind to step 0 for this run
        T = source.num_steps
        self.start(expect_steps=T)
        validate = not bool(getattr(source, "prevalidated", False))
        nodes, step = self.nodes, self._step
        for t in range(T):
            step(source.values(t, nodes), validate)
        return self.finalize()

    # ------------------------------------------------------------------ #
    # Incremental drive: start / advance / finalize
    # ------------------------------------------------------------------ #
    def start(self, *, expect_steps: int | None = None) -> None:
        """Open the run: bind the algorithm, allocate recording buffers.

        ``expect_steps`` sizes the ``(T, k)`` output buffer exactly when
        the horizon is known (as :meth:`run` does); without it the buffer
        grows by amortized doubling, so open-ended sessions work too.
        """
        if self._started:
            raise RuntimeError("engine already started; one run per engine")
        self.algorithm.bind(self.channel)
        self._started = True
        if self.record_outputs:
            capacity = expect_steps if expect_steps else _INITIAL_ROWS
            self._rows = np.empty((int(capacity), self.k), dtype=np.int64)

    def advance(self, block: np.ndarray, *, prevalidated: bool = False) -> int:
        """Consume a ``(B, n)`` block of observations, one step per row.

        The block is shape/finiteness-checked once on entry (skipped for
        ``prevalidated=True`` blocks, e.g. rows already validated by a
        :class:`~repro.streams.streaming.StreamingSource`).  A
        :attr:`batchable` engine then scans the rows along the time axis:
        runs of rows inside the standing filters are replayed as quiet
        steps in bulk and only the violating rows run the serial
        ``_step``; any other engine steps every row.  Either way the
        engine ends in the state stepping every row leaves behind.
        Returns the total number of steps consumed so far.
        """
        if not self._started:
            raise RuntimeError("call start() before advance()")
        if self._finalized:
            raise RuntimeError("engine already finalized")
        if not prevalidated:
            block = np.asarray(block, dtype=np.float64)
            if block.ndim == 1:  # a single step is a 1-row block
                block = block[None, :]
            if block.ndim != 2 or block.shape[1] != self.nodes.n:
                raise ValueError(
                    f"block must have shape (B, {self.nodes.n}), got {block.shape}"
                )
            if not np.all(np.isfinite(block)):
                raise ValueError("stream values must be finite")
        step = self._step
        if not self.batchable:
            for row in block:
                step(row, False)
            return self._t
        nodes, rounds = self.nodes, self.algorithm.quiet_step_rounds()
        any_row = np.logical_or.reduce  # ndarray.any without its Python wrapper
        i, rows, window = 0, block.shape[0], _SCAN_WINDOW
        while i < rows:
            if not self._t or self._irregular:  # on_start / object fallback
                step(block[i], False)
                i += 1
                continue
            chunk = block[i : i + window]
            outside = (chunk > nodes.filter_hi) | (chunk < nodes.filter_lo)
            hits = any_row(outside, axis=1).nonzero()[0]
            quiet = int(hits[0]) if hits.size else chunk.shape[0]
            if quiet:
                nodes.values[:] = chunk[quiet - 1]
                self._record_quiet_steps(quiet, rounds)
                i += quiet
            if not hits.size:
                window *= 2
                continue
            step(block[i], False)
            i += 1
            window = _SCAN_WINDOW
        return self._t

    def finalize(self) -> RunResult:
        """Close the run: audit the accounting, package the result."""
        if not self._started:
            raise RuntimeError("call start() before finalize()")
        if self._finalized:
            raise RuntimeError("engine already finalized")
        self._finalized = True
        ledger = self.ledger
        ledger.flush_late_charges()
        T = self._t
        result = RunResult(
            ledger=ledger,
            num_steps=T,
            n=self.nodes.n,
            k=self.k,
            algorithm_name=getattr(self.algorithm, "name", type(self.algorithm).__name__),
        )
        changes = self._changes
        if self.record_outputs:
            if self._irregular:
                result._outputs_list = self._outputs_list
            else:
                assert self._rows is not None
                rows = self._rows if T == self._rows.shape[0] else self._rows[:T]
                changes = _count_changes(rows)
                result.outputs_array = rows
        result.output_changes = changes
        if T and ledger.unaccounted:
            raise RuntimeError(
                f"ledger accounting drift: {ledger.messages} messages charged "
                f"but per_step records {ledger.per_step.total} — some charge "
                "bypassed the begin_step/end_step bookkeeping"
            )
        return result

    # ------------------------------------------------------------------ #
    # Introspection (live sessions query these mid-run)
    # ------------------------------------------------------------------ #
    @property
    def steps_done(self) -> int:
        """Number of time steps consumed so far."""
        return self._t

    def quiet_step_rounds(self) -> int | None:
        """The algorithm's fixed violation-free step cost (see protocol)."""
        return self.algorithm.quiet_step_rounds()

    @property
    def batchable(self) -> bool:
        """Whether this engine can join an :class:`EngineBatch` right now.

        Requires a started, live, regular-output, non-checking run of an
        algorithm that declares a quiet-step cost — everything else falls
        back to the serial per-engine path.
        """
        return (
            self._started
            and not self._finalized
            and not self._irregular
            and not self.check
            and self.algorithm.quiet_step_rounds() is not None
        )

    def current_output(self) -> frozenset[int] | None:
        """The algorithm's current ``F(t)`` (``None`` before step 0)."""
        if not self._started or self._t == 0:
            return None
        return self.algorithm.output()

    def output_changes_so_far(self) -> int:
        """Output changes over the steps consumed so far."""
        if self.record_outputs and not self._irregular and self._rows is not None:
            return _count_changes(self._rows[: self._t])
        return self._changes

    # ------------------------------------------------------------------ #
    # The per-step core (shared by run() and advance())
    # ------------------------------------------------------------------ #
    def _step(self, values: np.ndarray, validate: bool) -> None:
        ledger = self.ledger
        algorithm = self.algorithm
        t = self._t
        ledger.begin_step()
        self.nodes.deliver(values, validate=validate)
        if t == 0:
            algorithm.on_start()
        else:
            algorithm.on_step()
        ledger.end_step()
        out = algorithm.output()
        k = self.k
        record = self.record_outputs
        if not self._irregular and len(out) == k:
            if record:
                rows = self._rows
                if t == rows.shape[0]:  # open-ended horizon: amortized growth
                    rows = self._grow_rows()
                row = rows[t]
                row[:] = np.fromiter(out, dtype=np.int64, count=k)
                row.sort()  # change counting happens in one batch at finalize
            else:
                cur = np.fromiter(out, dtype=np.int64, count=k)
                cur.sort()
                prev_row = self._prev_row
                # Both rows are sorted length-k id arrays, so list equality
                # is row equality (and far cheaper than np.array_equal).
                if prev_row is not None and cur.tolist() != prev_row.tolist():
                    self._changes += 1
                self._prev_row = cur
        else:
            if not self._irregular:  # first irregular output: leave the fast path
                self._irregular = True
                if record:
                    done = self._rows[:t]
                    self._changes = _count_changes(done)
                    self._outputs_list = [frozenset(r) for r in done.tolist()]
                    self._previous = self._outputs_list[-1] if t else None
                    # Nothing reads the row buffer again, and rows past
                    # ``t`` are never written: keeping it would pickle
                    # uninitialised memory into every later checkpoint.
                    self._rows = None
                elif self._prev_row is not None:
                    self._previous = frozenset(self._prev_row.tolist())
            if record:
                self._outputs_list.append(out)
            if self._previous is not None and out != self._previous:
                self._changes += 1
            self._previous = out
        self._t = t + 1
        if self.check:
            self._verify(t, out)

    def _grow_rows(self, min_rows: int | None = None) -> np.ndarray:
        assert self._rows is not None
        capacity = max(self._rows.shape[0] * 2, _INITIAL_ROWS)
        if min_rows is not None:
            while capacity < min_rows:  # bulk quiet replay can outgrow one doubling
                capacity *= 2
        grown = np.empty((capacity, self.k), dtype=np.int64)
        grown[: self._t] = self._rows[: self._t]
        self._rows = grown
        return grown

    def _record_quiet_steps(self, count: int, rounds_per_step: int) -> None:
        """Replay the bookkeeping of ``count`` violation-free steps at once.

        Two callers: :meth:`advance`'s time-axis scan and
        :class:`EngineBatch`'s cross-session pass.  Each has already
        written the last quiet row's values into this engine's node
        state and proved that none of the ``count`` rows violated the
        standing filters — so the algorithm was never entitled to act,
        the output is unchanged, and what remains of the serial ``_step``
        sequence is pure accounting: the ledger's begin/rounds/end
        pattern, ``count`` repeats of the previous output row, and the
        node-state version clock.  Must mirror ``_step`` exactly;
        checkpoints taken afterwards are asserted bit-identical to twins
        that stepped every row.
        """
        if count <= 0:
            return
        # Step 0 always escalates (on_start) and irregular members are
        # never quiet again, so replay starts from a recorded prior step.
        assert self._t > 0 and not self._irregular
        t = self._t
        self.ledger.record_quiet_steps(count, rounds_per_step)
        if self.record_outputs:
            rows = self._rows
            needed = t + count
            if needed > rows.shape[0]:
                rows = self._grow_rows(min_rows=needed)
            rows[t:needed] = rows[t - 1]
        # Non-record mode: ``_prev_row`` keeps its (equal-content) array
        # and ``_changes`` is untouched — exactly what an unchanged output
        # leaves behind.  Values were delivered in place; only the version
        # clock still has to advance one tick per step.
        self.nodes.advance_version(count)
        self._t = t + count

    # ------------------------------------------------------------------ #
    # Pickling (session checkpoints)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        # Compact the output buffer to its recorded prefix so checkpoint
        # bytes are a pure function of the steps consumed — not of buffer
        # capacity history or the ``np.empty`` garbage past ``_t``.  The
        # cross-topology differential harness asserts blobs bit-identical
        # across restore/migrate histories, which needs this canonical form.
        state = self.__dict__.copy()
        rows = state["_rows"]
        if rows is not None:
            state["_rows"] = rows[: self._t].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        # A compacted buffer may be full (or empty); _grow_rows re-seeds
        # capacity on the next recorded step.  Keys are interned like
        # pickle's default load_build does — otherwise a restored engine
        # re-pickles with different string memoization and the blob bytes
        # drift from an uninterrupted run's.
        self.__dict__.update({sys.intern(key): value for key, value in state.items()})

    # ------------------------------------------------------------------ #
    def _verify(self, t: int, out: frozenset[int]) -> None:
        ok, why = output_valid(self.nodes.values, self.k, self.eps, out)
        if not ok:
            raise InvariantViolation(f"[t={t}] invalid output of {self.algorithm.name}: {why}")
        if not self.algorithm.filter_based:
            return
        ok, why = filters_form_valid_set(self.nodes.filter_lo, self.nodes.filter_hi, out, self.eps)
        if not ok:
            raise InvariantViolation(f"[t={t}] invalid filter set of {self.algorithm.name}: {why}")
        ok, why = values_within_filters(self.nodes.values, self.nodes.filter_lo, self.nodes.filter_hi)
        if not ok:
            raise InvariantViolation(f"[t={t}] {self.algorithm.name} did not settle: {why}")


class EngineBatch:
    """Advance S same-width engines through one vectorized pass per step.

    The multi-tenant fast path: member engines' node state is rebased onto
    rows of shared ``(S, n)`` structure-of-arrays blocks (values, filter
    bounds), so one numpy comparison per step classifies every session as
    *quiet* (no node violates its filter — the algorithm, were it called,
    would charge its fixed quiet cost and change nothing) or *escalated*.
    Quiet sessions are advanced as pure bookkeeping in bulk
    (:meth:`MonitoringEngine._record_quiet_steps`); escalated sessions run
    the unmodified serial ``_step``, whose filter updates land directly in
    the shared rows and are seen by the very next vectorized precheck.
    Per member the observable state sequence is bit-identical to feeding
    the same rows serially.

    Members must be :attr:`~MonitoringEngine.batchable` and share ``n``;
    nothing else (algorithm, k, eps, step cursor) needs to match — cohort
    grouping beyond ``n`` is the service layer's policy, not a correctness
    requirement.  A member whose step raises is deactivated with the
    exception captured per member (its engine is left exactly as a serial
    ``advance`` raising mid-block would leave it); the others proceed.

    Call :meth:`close` (always — use ``try/finally``) to detach members
    back to private arrays before they are checkpointed or reused.
    """

    def __init__(self, engines) -> None:
        engines = list(engines)
        if not engines:
            raise ValueError("EngineBatch needs at least one engine")
        n = engines[0].nodes.n
        rounds = []
        for engine in engines:
            if engine.nodes.n != n:
                raise ValueError(f"mixed widths in batch: {engine.nodes.n} != {n}")
            if not engine.batchable:
                raise ValueError("engine is not batchable; use the serial path")
            rounds.append(engine.quiet_step_rounds())
        S = len(engines)
        self.engines = engines
        self.n = n
        self._values = np.empty((S, n), dtype=np.float64)
        self._lo = np.empty((S, n), dtype=np.float64)
        self._hi = np.empty((S, n), dtype=np.float64)
        self._above = np.empty((S, n), dtype=bool)
        self._below = np.empty((S, n), dtype=bool)
        self._viol = np.empty((S, n), dtype=bool)
        #: per-member quiet-step round cost (fixed for the batch's lifetime)
        self._rps = np.asarray(rounds, dtype=np.int64)
        #: quiet steps accumulated per member, not yet folded into engines
        self._pending = np.zeros(S, dtype=np.int64)
        # Step 0 must run on_start; irregular members re-arm this forever.
        self._force = np.fromiter((e.steps_done == 0 for e in engines), dtype=bool, count=S)
        self._active = np.ones(S, dtype=bool)
        #: member-steps classified quiet vs escalated by the vectorized
        #: precheck — observability only, never pickled (the batch is
        #: ephemeral), read by the service layer after each tick.
        self.quiet_member_steps = 0
        self.escalated_member_steps = 0
        self._bound = True
        for i, engine in enumerate(engines):
            engine.nodes.bind_rows(self._values[i], self._lo[i], self._hi[i])

    def advance_batch(self, blocks) -> list[Exception | None]:
        """Consume one ``(B, n)`` block per member, lockstep by step.

        All blocks must have the same row count (the caller segments
        unequal feeds).  Returns one entry per member: ``None`` on
        success, or the exception its serial ``_step`` raised (the member
        is deactivated; its remaining rows are not consumed — the serial
        ``advance`` contract).
        """
        if not self._bound:
            raise RuntimeError("batch already closed")
        S = len(self.engines)
        if len(blocks) != S:
            raise ValueError(f"expected {S} blocks, got {len(blocks)}")
        # (B, S, n) with contiguous (S, n) slabs per step.
        stacked = np.stack(blocks, axis=1).astype(np.float64, copy=False)
        if stacked.ndim != 3 or stacked.shape[2] != self.n:
            raise ValueError(f"blocks must be (B, {self.n}); stacked shape {stacked.shape}")
        errors: list[Exception | None] = [None] * S
        active, force, pending = self._active, self._force, self._pending
        for step_vals in stacked:
            np.greater(step_vals, self._hi, out=self._above)
            np.less(step_vals, self._lo, out=self._below)
            np.logical_or(self._above, self._below, out=self._viol)
            escalate = (self._viol.any(axis=1) | force) & active
            quiet = active & ~escalate
            self.quiet_member_steps += int(np.count_nonzero(quiet))
            self.escalated_member_steps += int(np.count_nonzero(escalate))
            # Quiet members: land the values; bookkeeping is replayed in
            # bulk when the member next escalates (or at block end).
            np.copyto(self._values, step_vals, where=quiet[:, None])
            pending[quiet] += 1
            for i in np.flatnonzero(escalate):
                engine = self.engines[i]
                if pending[i]:
                    engine._record_quiet_steps(int(pending[i]), int(self._rps[i]))
                    pending[i] = 0
                try:
                    engine._step(step_vals[i], False)
                except Exception as exc:  # noqa: BLE001 — per-member isolation
                    errors[i] = exc
                    active[i] = False
                    continue
                force[i] = engine._irregular
        for i in np.flatnonzero(pending):
            self.engines[i]._record_quiet_steps(int(pending[i]), int(self._rps[i]))
            pending[i] = 0
        return errors

    def close(self) -> None:
        """Detach every member back to private arrays (idempotent)."""
        if not self._bound:
            return
        self._bound = False
        for engine in self.engines:
            engine.nodes.unbind()


def _count_changes(rows: np.ndarray) -> int:
    """Vectorized output-change count over sorted ``(T, k)`` output rows."""
    if rows.shape[0] < 2:
        return 0
    return int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))
