"""Expected outputs: an in-process replay of a run's blocks, and pins.

A served run is correct when its finalize results equal what the same
blocks produce in process.  :func:`replay` feeds every session the rows
of the plan through :class:`~repro.service.session.SessionBatch` — the
vectorised path the library proves bit-identical to serial feeding —
and summarises the finalized sessions.  ``pins.json`` keeps those
summaries for the default ``(seed, seconds)`` so a default run checks
its outputs without replaying.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.service.session import Session, SessionBatch, SessionConfig

from workloads import Plan, Workload, session_spec

__all__ = ["PINS_PATH", "load_pins", "replay", "summarize_results", "write_pins"]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def _summary(
    steps: int, messages: int, changes: int, rounds: int, scopes: Iterable[dict]
) -> dict[str, Any]:
    by_scope: dict[str, int] = {}
    for scope in scopes:
        for name, count in scope.items():
            by_scope[name] = by_scope.get(name, 0) + int(count)
    return {
        "steps": int(steps),
        "messages": int(messages),
        "output_changes": int(changes),
        "max_rounds_per_step": int(rounds),
        "by_scope": dict(sorted(by_scope.items())),
    }


def summarize_results(results: list[dict]) -> dict[str, Any]:
    """The summary of served ``finalize`` results (one per session)."""
    return _summary(
        sum(r["num_steps"] for r in results),
        sum(r["messages"] for r in results),
        sum(r["output_changes"] for r in results),
        max(r["max_rounds_per_step"] for r in results),
        (r["by_scope"] for r in results),
    )


def replay(w: Workload, seed: int, data: list[np.ndarray], plan: Plan) -> dict[str, Any]:
    """The summary the served sessions must finalize with."""
    sessions = [Session(SessionConfig(**session_spec(w, seed, i))) for i in range(w.sessions)]
    batch = SessionBatch(sessions[0].cohort_key)
    feeds = [op for op in plan.ops() if op.kind == "feed"]
    # Plans are round-robin: each run of `sessions` feeds is one round.
    for first in range(0, len(feeds), w.sessions):
        entries = [
            (sessions[op.session], np.ascontiguousarray(data[op.session][op.start : op.step]))
            for op in feeds[first : first + w.sessions]
        ]
        for result in batch.feed_batch(entries):
            if isinstance(result, Exception):
                raise result
    results = [s.finalize() for s in sessions]
    return _summary(
        sum(r.num_steps for r in results),
        sum(r.messages for r in results),
        sum(r.output_changes for r in results),
        max(r.ledger.max_rounds_per_step for r in results),
        (r.ledger.by_scope() for r in results),
    )


def load_pins(seed: int, seconds: float) -> dict[str, dict] | None:
    """Pinned summaries per workload, if pinned for this ``(seed, seconds)``."""
    try:
        pins = json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return None
    if pins.get("seed") != seed or pins.get("seconds") != seconds:
        return None
    return pins["workloads"]


def write_pins(seed: int, seconds: float, workloads: dict[str, dict]) -> None:
    pins = {"seed": seed, "seconds": seconds, "workloads": workloads}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
