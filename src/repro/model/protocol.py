"""The interface every server-side monitoring algorithm implements.

An algorithm is the *server* of the paper: it owns an output set ``F(t)``
of ``k`` node ids, assigns filters through its :class:`Channel`, and reacts
to filter-violations.  The engine drives it with one call per time step;
within that call the algorithm may run as many protocol rounds as it needs
to *settle* — i.e. to reach a state where no node violates its assigned
filter — before the next observations arrive (the model allows polylog
rounds between steps; the ledger audits this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.model.channel import Channel

__all__ = ["MonitoringAlgorithm", "ProtocolError"]

#: Hard cap on violation-processing iterations within one time step.  A
#: correct protocol settles in O(polylog) iterations; hitting the cap means
#: a progress bug (or a pathological float stream below the algorithm's
#: resolution) and raises :class:`ProtocolError` instead of hanging.
MAX_SETTLE_ITERATIONS = 200_000


class ProtocolError(RuntimeError):
    """Raised when a protocol fails to make progress within a time step."""


class MonitoringAlgorithm(ABC):
    """Base class for server-side (online) monitoring algorithms."""

    #: Human-readable name used in tables and benchmark ids.
    name: str = "abstract"

    #: Whether the algorithm maintains Definition-2.1 filters.  The engine
    #: only enforces the filter laws (Observation 2.2, values-in-filters)
    #: for filter-based algorithms; naive baselines opt out.
    filter_based: bool = True

    def __init__(self) -> None:
        self._channel: Channel | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle (called by the engine)
    # ------------------------------------------------------------------ #
    def bind(self, channel: Channel) -> None:
        """Attach the communication channel (engine hook, called once)."""
        if self._channel is not None:
            raise RuntimeError("algorithm already bound to a channel; create a fresh instance per run")
        self._channel = channel

    @property
    def channel(self) -> Channel:
        """The bound channel; raises if the engine has not bound one yet."""
        if self._channel is None:
            raise RuntimeError("algorithm not bound; run it through MonitoringEngine")
        return self._channel

    @abstractmethod
    def on_start(self) -> None:
        """Initialize at time 0 (first observations already delivered)."""

    @abstractmethod
    def on_step(self) -> None:
        """React to one new time step's observations and settle."""

    @abstractmethod
    def output(self) -> frozenset[int]:
        """The current output set ``F(t)`` (exactly ``k`` node ids)."""

    # ------------------------------------------------------------------ #
    # Optional statistics
    # ------------------------------------------------------------------ #
    @property
    def phases(self) -> int:
        """Number of phases started (algorithm-specific; 0 if untracked)."""
        return 0

    # ------------------------------------------------------------------ #
    # Batch fast-path contract
    # ------------------------------------------------------------------ #
    def quiet_step_rounds(self) -> int | None:
        """Fixed round cost of a violation-free :meth:`on_step`, or ``None``.

        Returning an integer ``R`` asserts a strict contract: whenever no
        node violates its currently assigned filter, :meth:`on_step`
        charges exactly ``R`` protocol rounds, zero messages, draws no
        randomness from the channel RNG, and mutates no algorithm or
        filter state (so :meth:`output` is unchanged).  The engine's
        multi-session batch path (:class:`repro.model.engine.EngineBatch`)
        relies on this to replay quiet steps as pure bookkeeping without
        calling the algorithm — bit-identically to the serial loop.

        ``None`` (the default) opts out: every step runs through
        :meth:`on_step` even inside a batch.
        """
        return None

