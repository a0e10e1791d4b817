"""``serve`` with span recorders around each layer's public callables.

Usage (the benchmark's ``--trace 1`` runs spawn it; arguments are those
of ``python -m repro.experiments serve``)::

    PYTHONPATH=src REPRO_E2E_TRACE_DIR=DIR \\
        python benchmarks/e2e/traced_serve.py --port 0 --shards 1

Before the serve CLI starts, :func:`install` wraps the callables listed
by :func:`_spans` (and, per process role, the event loop's callback
runner and the executor's work item) with a :class:`SpanRecorder`.  Shard
workers are reached by rebinding ``repro.service.shard.shard_worker_main``
to :func:`traced_worker_main`, which installs the same recorders in the
spawned worker before running the real entry point.  Each process writes
``spans-<role>-<pid>.json`` into ``$REPRO_E2E_TRACE_DIR`` when it shuts
down cleanly.

Spans are aggregated per name as they close rather than stored one by
one (a run closes millions of them): the recorder keeps a thread-local
stack of open spans, and each closing span adds its duration to its
parent's child total, so a layer's *self* time excludes the spans it
called.  Durations are taken twice, on ``perf_counter_ns`` (wall) and on
``thread_time_ns`` (CPU of the calling thread): wall time of a span
includes waits for the interpreter lock, CPU time does not, so only the
CPU self times can be summed against the server's CPU from ``/proc``.
"""

from __future__ import annotations

import argparse
import asyncio.events
import concurrent.futures.thread
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder", "install", "traced_worker_main"]

TRACE_DIR_ENV = "REPRO_E2E_TRACE_DIR"

#: Columns of one aggregated span row.
FIELDS = ("calls", "units", "members", "wall_ns", "self_wall_ns", "cpu_ns", "self_cpu_ns")


class SpanRecorder:
    """Per-name span aggregates with self time, safe across threads."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.thread_time_ns,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._tables: list[dict[str, list[int]]] = []
        self._lock = threading.Lock()

    def _thread_state(self) -> tuple[list[list[int]], dict[str, list[int]]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Callable[..., int] | None = None,
        members: Callable[..., int] | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``units(*args)`` / ``members(*args)`` count the work a call
        carries (rows, bytes, batch entries) so times can be read per
        unit of work.
        """
        clock, cpu_clock = self._clock, self._cpu_clock
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = thread_state()
            children = [0, 0]  # wall, cpu of closed child spans
            stack.append(children)
            wall0, cpu0 = clock(), cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                wall = clock() - wall0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += wall
                    parent[1] += cpu
                row = table.get(name)
                if row is None:
                    row = table[name] = [0] * len(FIELDS)
                row[0] += 1
                if units is not None:
                    row[1] += units(*args, **kwargs)
                if members is not None:
                    row[2] += members(*args, **kwargs)
                row[3] += wall
                row[4] += wall - children[0]
                row[5] += cpu
                row[6] += cpu - children[1]

        return traced

    def totals(self) -> dict[str, dict[str, int]]:
        """Rows merged over every thread that recorded a span."""
        with self._lock:
            tables = list(self._tables)
        merged: dict[str, list[int]] = {}
        for table in tables:
            for name, row in list(table.items()):
                into = merged.setdefault(name, [0] * len(FIELDS))
                for i, value in enumerate(row):
                    into[i] += value
        return {name: dict(zip(FIELDS, row)) for name, row in merged.items()}


def _rows(block) -> int:
    return int(block.shape[0]) if getattr(block, "ndim", 1) == 2 else 1


def _spans() -> list[tuple[str, Any, str, Callable | None, Callable | None]]:
    """``(span name, owner, attribute, units, members)`` per traced callable."""
    from repro.core.phased import PhasedMonitor
    from repro.model.engine import EngineBatch, MonitoringEngine
    from repro.model.node import NodeArray
    from repro.service import wire
    from repro.service.session import Session, SessionBatch
    from repro.service.wal import WriteAheadLog

    return [
        ("wire.decode_frame", wire, "decode_frame",
         lambda header, meta, payload, **_: wire.HEADER_SIZE + len(meta) + len(payload),
         None),
        ("wire.encode_frame", wire, "encode_frame", None, None),
        ("session.feed", Session, "feed", lambda self, block, **_: _rows(block), None),
        ("session.feed_batch", SessionBatch, "feed_batch",
         lambda self, entries, **_: sum(_rows(block) for _, block in entries),
         lambda self, entries, **_: len(entries)),
        ("session.snapshot", Session, "snapshot", None, None),
        ("session.status", Session, "status", None, None),
        ("session.finalize", Session, "finalize", None, None),
        ("engine.advance", MonitoringEngine, "advance",
         lambda self, block, **_: _rows(block), None),
        ("engine.advance_batch", EngineBatch, "advance_batch",
         lambda self, blocks, **_: sum(_rows(block) for block in blocks),
         lambda self, blocks, **_: len(blocks)),
        ("engine.deliver", NodeArray, "deliver", None, None),
        ("core.on_start", PhasedMonitor, "on_start", None, None),
        ("core.on_step", PhasedMonitor, "on_step", None, None),
        ("wal.append", WriteAheadLog, "append", None, None),
        ("wal.commit_checkpoint", WriteAheadLog, "commit_checkpoint", None, None),
    ]


def install(recorder: SpanRecorder, role: str) -> None:
    """Wrap every callable of :func:`_spans`, plus the loop and executor.

    ``role`` names the process's own layer: ``server`` for a serving
    process (single-process or shard worker), ``shard`` for a sharded
    supervisor.  Every asyncio callback (task steps, transport reads)
    runs inside a ``<role>.loop`` span and every executor work item
    inside ``<role>.executor``, so their self time is the serving code
    that no narrower span covers.
    """
    for name, owner, attr, units, members in _spans():
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), units, members))
    handle = asyncio.events.Handle
    handle._run = recorder.wrap(f"{role}.loop", handle._run)
    item = concurrent.futures.thread._WorkItem
    item.run = recorder.wrap(f"{role}.executor", item.run)


def dump(recorder: SpanRecorder, role: str) -> None:
    """Write this process's span totals into ``$REPRO_E2E_TRACE_DIR``."""
    directory = Path(os.environ[TRACE_DIR_ENV])
    pid = os.getpid()
    path = directory / f"spans-{role}-{pid}.json"
    payload = {"role": role, "pid": pid, "spans": recorder.totals()}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def traced_worker_main(*args: Any, **kwargs: Any) -> None:
    """Shard worker entry point: the real one, under span recorders.

    Runs only in a spawned worker, whose fresh import of
    :mod:`repro.service.shard` still holds the real entry point (the
    rebinding below happened in the supervisor's interpreter).
    """
    from repro.service import shard

    recorder = SpanRecorder()
    install(recorder, "server")
    try:
        shard.shard_worker_main(*args, **kwargs)
    finally:
        dump(recorder, "worker")


def main(argv: list[str]) -> int:
    from repro.service import cli, shard

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--shards", type=int, default=0)
    sharded = parser.parse_known_args(argv)[0].shards > 0
    recorder = SpanRecorder()
    install(recorder, "shard" if sharded else "server")
    shard.shard_worker_main = traced_worker_main
    try:
        return cli.main_serve(argv)
    finally:
        dump(recorder, "supervisor" if sharded else "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
