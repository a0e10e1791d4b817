"""Monitoring sessions: one long-lived incremental run each.

A :class:`Session` wraps a push-driven :class:`~repro.model.engine.
MonitoringEngine` (``source=None``) behind the operations the service
exposes on the wire: feed observation batches, query the current
``F(t)``, read the cost snapshot and the per-scope bill, checkpoint to
bytes and resume.  Two creation modes:

- **push** — the client owns the data and calls :meth:`feed` with
  ``(B, n)`` blocks (the load generator and external producers);
- **workload** — the session generates its own observations from any
  registered workload slug (``config.workload``) and the client calls
  :meth:`advance` to consume up to ``steps`` more of them (in-process
  benchmarks, demo sessions).

Checkpoints (:meth:`snapshot` / :meth:`Session.restore`) pickle the
engine object graph — node arrays, ledger, channel RNG state, algorithm
state — so a restored session continues *bit-identically*: the same
future observations produce the same messages and outputs as an
uninterrupted run.  The blob is raw bytes end to end: a v2 connection
carries it as a binary frame payload and the shard supervisor splices
it between workers unchanged (only the v1 line protocol base64s it at
the edge).  Workload-mode sessions do not pickle their block
iterator; the generator is rebuilt from ``(slug, params, seed)`` on
restore and fast-forwarded to the checkpointed step (chunk-first
generators are seeded by value, so regeneration is exact).

Restore uses a *restricted* unpickler that only resolves ``numpy``,
``repro`` and a small set of builtin container classes — a checkpoint
is still only as trustworthy as its origin, but arbitrary-callable
payloads are rejected.  See docs/ARCHITECTURE.md §"Service layer".
"""

from __future__ import annotations

import io
import pickle
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from repro.model.engine import EngineBatch, MonitoringEngine, RunResult
from repro.model.ledger import CostSnapshot
from repro.service import algorithms
from repro.streams import registry

__all__ = ["Session", "SessionBatch", "SessionConfig", "SnapshotError", "session_from_wire"]

#: Version tag written into every checkpoint blob.  Bumped whenever the
#: pickled object graph changes shape (format 2: canonical compact
#: pickling of growth buffers — blob bytes are a pure function of
#: session state, asserted bit-identical by the differential fuzz tier).
SNAPSHOT_FORMAT = 2


class SnapshotError(ValueError):
    """A checkpoint blob is malformed, untrusted, or from another format."""


def _canonicalize_dtypes(root: Any) -> None:
    """Rebind every ndarray in ``root``'s graph to numpy's cached dtype.

    Unpickling materialises a fresh ``np.dtype`` instance per stream,
    while freshly built arrays (and arrays rebuilt inside a class's
    ``__setstate__``) hold numpy's interned builtin singletons.  A graph
    mixing both pickles differently from a never-pickled one — the
    pickler memoises dtypes by identity — so snapshot → restore →
    snapshot would not be byte-identical.  Rebinding is in-place and
    metadata-only (itemsize is unchanged), so views and readonly arrays
    are safe.
    """
    seen: set[int] = set()
    stack: list[Any] = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype.names is None:  # builtin dtypes only; no interned form for structured
                canonical = np.dtype(obj.dtype.str)
                if obj.dtype is not canonical:
                    obj.dtype = canonical
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            state = getattr(obj, "__dict__", None)
            if state:
                stack.extend(state.values())


@dataclass(frozen=True)
class SessionConfig:
    """Plain-data description of a session — exactly what the wire carries."""

    algorithm: str
    n: int
    k: int
    eps: float = 0.0
    seed: int = 0
    algorithm_params: dict[str, Any] = field(default_factory=dict)
    record_outputs: bool = False
    check: bool = False
    broadcast_cost: int = 1
    existence_base: float = 2.0
    #: Workload mode: a registered (streamable) workload slug.
    workload: str | None = None
    workload_params: dict[str, Any] = field(default_factory=dict)
    #: Horizon for workload mode (push mode is open-ended).
    num_steps: int | None = None
    #: Generator block size for workload mode.
    block_size: int = 8192
    #: Seed of the generated stream (defaults to ``seed``).
    workload_seed: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        if self.k < 1 or self.k > self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")
        if self.workload is not None and self.num_steps is None:
            raise ValueError("workload-backed sessions need num_steps")

    @property
    def stream_seed(self) -> int:
        return self.seed if self.workload_seed is None else self.workload_seed


def session_from_wire(spec: Mapping[str, Any]) -> "Session":
    """Build a session from a decoded wire mapping (unknown keys rejected)."""
    allowed = set(SessionConfig.__dataclass_fields__)
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"unknown session fields {unknown}; valid: {sorted(allowed)}")
    return Session(SessionConfig(**spec))


class Session:
    """One hosted monitoring run, driven in chunks."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        algorithm = algorithms.make_algorithm(
            config.algorithm, config.k, config.eps, config.algorithm_params
        )
        if config.workload is not None:
            # Fail on a bad slug/params now, not at the first advance().
            spec = registry.get(config.workload)
            if spec.block_fn is None:
                raise ValueError(
                    f"workload {config.workload!r} is not block-streamable; "
                    "feed it from the client side instead"
                )
            registry.validate_params(config.workload, config.n, config.workload_params)
        self.engine = MonitoringEngine(
            None,
            algorithm,
            k=config.k,
            eps=config.eps,
            seed=config.seed,
            check=config.check,
            record_outputs=config.record_outputs,
            broadcast_cost=config.broadcast_cost,
            existence_base=config.existence_base,
            n=config.n,
        )
        self.engine.start(expect_steps=config.num_steps)
        self._result: RunResult | None = None
        # Workload-mode generator state (rebuilt lazily; never pickled).
        self._blocks: Iterator[np.ndarray] | None = None
        self._carry: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def feed(self, block: np.ndarray, *, prevalidated: bool = False) -> int:
        """Consume a pushed ``(B, n)`` observation block; returns the step count."""
        if self.config.workload is not None:
            raise RuntimeError(
                "workload-backed session generates its own observations; "
                "drive it with advance(steps)"
            )
        self._check_open()
        return self.engine.advance(block, prevalidated=prevalidated)

    def advance(self, steps: int | None = None) -> int:
        """Generate and consume up to ``steps`` more workload observations.

        ``None`` runs to the configured horizon.  Returns the total step
        count; a no-op once the horizon is reached.
        """
        if self.config.workload is None:
            raise RuntimeError("push-mode session is fed by the client; use feed(block)")
        self._check_open()
        assert self.config.num_steps is not None
        budget = self.config.num_steps - self.engine.steps_done
        if steps is not None:
            if steps < 0:
                raise ValueError(f"steps must be >= 0, got {steps}")
            budget = min(budget, steps)
        while budget > 0:
            chunk = self._next_chunk()
            take = min(chunk.shape[0], budget)
            if take < chunk.shape[0]:
                self._carry = chunk[take:]
                chunk = chunk[:take]
            self.engine.advance(chunk, prevalidated=True)
            budget -= take
        return self.engine.steps_done

    def _next_chunk(self) -> np.ndarray:
        if self._carry is not None:
            chunk, self._carry = self._carry, None
            return chunk
        if self._blocks is None:
            # Rebuilding may leave a partial block in _carry (restore into
            # the middle of a block) — that remainder comes first.
            self._blocks = self._rebuilt_blocks()
            if self._carry is not None:
                chunk, self._carry = self._carry, None
                return chunk
        try:
            return next(self._blocks)
        except StopIteration:
            raise RuntimeError(
                f"workload stream exhausted at step {self.engine.steps_done} "
                f"before the declared horizon {self.config.num_steps}"
            ) from None

    def _rebuilt_blocks(self) -> Iterator[np.ndarray]:
        """A fresh validated block iterator, fast-forwarded past consumed steps."""
        cfg = self.config
        assert cfg.workload is not None and cfg.num_steps is not None
        source = registry.stream(
            cfg.workload,
            cfg.num_steps,
            cfg.n,
            block_size=cfg.block_size,
            rng=cfg.stream_seed,
            **cfg.workload_params,
        )
        blocks = source.iter_blocks()
        skip = self.engine.steps_done
        while skip > 0:
            block = next(blocks)
            if block.shape[0] <= skip:
                skip -= block.shape[0]
            else:
                self._carry = block[skip:]
                skip = 0
        return blocks

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def step(self) -> int:
        """Time steps consumed so far."""
        return self.engine.steps_done

    @property
    def done(self) -> bool:
        """Whether a workload-mode session reached its horizon (or finalized)."""
        if self._result is not None:
            return True
        if self.config.num_steps is None:
            return False
        return self.engine.steps_done >= self.config.num_steps

    @property
    def messages(self) -> int:
        """Total message cost charged so far."""
        return self.engine.ledger.messages

    @property
    def batchable(self) -> bool:
        """Whether feeds may take the cross-session batch path right now.

        Push-mode, still open, and the engine reports a quiet-step cost —
        everything else (workload mode, finalized, irregular outputs,
        check mode, opt-out algorithms) stays on the serial path.
        """
        return (
            self.config.workload is None
            and self._result is None
            and self.engine.batchable
        )

    @property
    def cohort_key(self) -> tuple:
        """Sessions coalesce into one batch tick only within this key.

        ``(algorithm, n, k, eps)`` — only ``n`` is a hard correctness
        requirement of :class:`~repro.model.engine.EngineBatch`; the rest
        keeps each tick's workload homogeneous so one slow protocol
        cannot head-of-line-block an unrelated cohort.  The fifth cohort
        component of the design — the block width — is the caller's to
        check: :meth:`SessionBatch.feed_batch` takes only blocks exactly
        ``n`` wide.
        """
        c = self.config
        return (c.algorithm, c.n, c.k, c.eps)

    def output(self) -> frozenset[int] | None:
        """The current ``F(t)`` (``None`` before the first step)."""
        return self.engine.current_output()

    def cost(self) -> CostSnapshot:
        """Immutable totals of the session's ledger."""
        return self.engine.ledger.snapshot()

    def bill(self) -> dict[str, int]:
        """Per-scope message attribution (hierarchical; scopes overlap)."""
        return self.engine.ledger.by_scope()

    def status(self) -> dict[str, Any]:
        """Wire-ready summary of where the session stands."""
        out = self.output()
        return {
            "algorithm": self.config.algorithm,
            "n": self.config.n,
            "k": self.config.k,
            "step": self.step,
            "messages": self.messages,
            "output": sorted(int(i) for i in out) if out is not None else None,
            "done": self.done,
            "finalized": self._result is not None,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def finalize(self) -> RunResult:
        """Close the run and return the :class:`RunResult` (idempotent)."""
        if self._result is None:
            self._result = self.engine.finalize()
        return self._result

    def _check_open(self) -> None:
        if self._result is not None:
            raise RuntimeError("session already finalized")

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def snapshot(self) -> bytes:
        """Serialize the full session state to a resumable checkpoint."""
        if self._result is not None:
            raise RuntimeError("cannot checkpoint a finalized session")
        payload = {
            "format": SNAPSHOT_FORMAT,
            "config": asdict(self.config),
            "engine": self.engine,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "Session":
        """Rebuild a session from :meth:`snapshot` and continue bit-identically."""
        try:
            payload = _RestrictedUnpickler(io.BytesIO(blob)).load()
        except SnapshotError:
            raise
        except Exception as exc:  # truncated/corrupt pickle streams
            raise SnapshotError(f"unreadable checkpoint: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"checkpoint format {payload.get('format') if isinstance(payload, dict) else '?'} "
                f"not supported (expected {SNAPSHOT_FORMAT})"
            )
        session = cls.__new__(cls)
        session.config = SessionConfig(**payload["config"])
        session.engine = payload["engine"]
        if not isinstance(session.engine, MonitoringEngine):
            raise SnapshotError("checkpoint does not contain an engine")
        _canonicalize_dtypes(session.engine)
        session._result = None
        session._blocks = None
        session._carry = None
        return session


class SessionBatch:
    """A cohort of same-shape push-mode sessions fed in vectorized ticks.

    An in-process caller keeps one ``SessionBatch`` per
    :attr:`Session.cohort_key`; sessions :meth:`join` before their first
    batched feed and :meth:`leave` when they finalize or close (servers
    feed each session on its own).  Membership is bookkeeping, not binding:
    each :meth:`feed_batch` tick binds the participating engines into an
    ephemeral :class:`~repro.model.engine.EngineBatch`, advances them in
    lockstep, and unbinds before returning — so between ticks every
    session owns private arrays and snapshot/restore/finalize see exactly
    the state a serially-fed session would pickle (the checkpoint
    determinism law holds by construction, no detach protocol needed).
    """

    def __init__(self, key: tuple) -> None:
        self.key = key
        self._members: dict[int, Session] = {}
        #: vectorized ticks served / steps they advanced
        self.ticks = 0
        self.batched_steps = 0
        #: member-steps that took the vectorized quiet path vs the
        #: serial ``_step`` (violations, step 0, mid-feed fall-offs) —
        #: the live form of the paper's quiet/escalation split.
        self.quiet_steps = 0
        self.escalated_steps = 0

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def join(self, session: Session) -> None:
        """Enroll a session in this cohort (idempotent)."""
        if session.cohort_key != self.key:
            raise ValueError(f"session cohort {session.cohort_key} != batch cohort {self.key}")
        self._members[id(session)] = session

    def leave(self, session: Session) -> None:
        """Withdraw a session (idempotent; safe for never-joined sessions)."""
        self._members.pop(id(session), None)

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------ #
    # The tick
    # ------------------------------------------------------------------ #
    def feed_batch(
        self, entries: list[tuple[Session, np.ndarray]]
    ) -> list[tuple[int, int] | Exception]:
        """Advance one prevalidated ``(B_i, n)`` block per session.

        Blocks must already be float64, finite, and exactly ``n`` wide
        (checked by the caller).  Returns one result
        per entry, positionally: ``(step, messages)`` on success or the
        exception the serial path would have raised (the entry's session
        is left exactly as a serial feed raising mid-block would leave
        it).  Unequal block lengths are handled by segmenting on the
        shortest remaining block; sessions that stop being batchable
        mid-feed (e.g. an output turned irregular) finish on the serial
        path.
        """
        assert len({id(session) for session, _ in entries}) == len(entries), (
            "duplicate session in one tick — the per-session lock should prevent this"
        )
        results: list[tuple[int, int] | Exception | None] = [None] * len(entries)

        def finish_serial(idx: int, session: Session, tail: np.ndarray) -> None:
            before = session.step
            try:
                session.feed(tail, prevalidated=True)
            except Exception as exc:  # noqa: BLE001 — per-entry isolation
                results[idx] = exc
            else:
                results[idx] = (session.step, session.messages)
            finally:
                self.escalated_steps += session.step - before

        live = [(idx, session, block, 0) for idx, (session, block) in enumerate(entries)]
        while live:
            ready = []
            for idx, session, block, offset in live:
                if session.batchable:
                    ready.append((idx, session, block, offset))
                else:
                    finish_serial(idx, session, block[offset:])
            if not ready:
                break
            if len(ready) == 1:
                idx, session, block, offset = ready[0]
                finish_serial(idx, session, block[offset:])
                break
            take = min(block.shape[0] - offset for _, _, block, offset in ready)
            batch = EngineBatch([session.engine for _, session, _, _ in ready])
            try:
                errors = batch.advance_batch(
                    [block[offset : offset + take] for _, _, block, offset in ready]
                )
            finally:
                batch.close()
                self.quiet_steps += batch.quiet_member_steps
                self.escalated_steps += batch.escalated_member_steps
            self.ticks += 1
            live = []
            for (idx, session, block, offset), error in zip(ready, errors):
                if error is not None:
                    results[idx] = error
                    continue
                self.batched_steps += take
                offset += take
                if offset >= block.shape[0]:
                    results[idx] = (session.step, session.messages)
                else:
                    live.append((idx, session, block, offset))
        return results  # type: ignore[return-value] — every slot was filled above


#: Builtin classes a checkpoint may reference (containers only — no
#: callables, no ``getattr``/``eval`` gadgets).
_SAFE_BUILTINS = frozenset({
    "frozenset", "set", "list", "dict", "tuple", "bytes", "bytearray",
    "int", "float", "complex", "bool", "str", "slice", "range",
})

#: The only *functions* a legitimate checkpoint needs: numpy's array /
#: RNG reconstructors and the pluggable violation detectors that
#: algorithms hold by reference.  Everything else from the trusted
#: prefixes must be a class — a module-level helper like a file writer
#: must not be reachable from a pickle stream.
_SAFE_FUNCTIONS = frozenset({
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "scalar"),
    ("numpy.core.multiarray", "scalar"),
    ("numpy._core.numeric", "_frombuffer"),
    ("numpy.core.numeric", "_frombuffer"),
    ("numpy.random._pickle", "__generator_ctor"),
    ("numpy.random._pickle", "__bit_generator_ctor"),
    ("numpy.random.bit_generator", "__pyx_unpickle_SeedSequence"),
    ("repro.core.primitives", "detect_violation_existence"),
    ("repro.core.primitives", "detect_violation_direct"),
    ("repro.core.primitives", "detect_violation_bisection"),
})


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler restricted to numpy/repro *classes* plus a function allowlist."""

    def find_class(self, module: str, name: str):
        if (module, name) in _SAFE_FUNCTIONS:
            return super().find_class(module, name)
        if module == "builtins" and name in _SAFE_BUILTINS:
            return super().find_class(module, name)
        if module.split(".", 1)[0] in ("numpy", "repro", "collections"):
            obj = super().find_class(module, name)
            if isinstance(obj, type):
                return obj
            raise SnapshotError(
                f"checkpoint references the callable {module}.{name} — only "
                "classes and allowlisted reconstructors load"
            )
        raise SnapshotError(
            f"checkpoint references {module}.{name}, which is outside the "
            "trusted numpy/repro surface — refusing to load"
        )
