"""Throughput benchmark for the monitoring service layer.

Measures what serving costs and buys relative to the in-process engine:

- **wire_microbench**: raw codec throughput (MB/s of float64 payload)
  for the v1 JSON-lines encoding vs the v2 binary frames, encode and
  decode separately — the protocol tax with everything else removed;
- **escalating_scan**: in-process ``MonitoringEngine.advance`` over
  ``iid`` rows in 4096-row blocks, where nearly every row violates a
  filter — the time-axis scan's worst case.  A scan that rescans the
  rest of the block after each escalation pays O(B·n) per escalated
  row here (it measured 28% slower), so this cell gates the scan's
  window policy;
- **single_session**: the same workload/algorithm run (a) in-process
  through ``MonitoringEngine.run()``, (b) as a served session fed
  block-by-block over localhost TCP with v1 lockstep framing, and
  (c) served over v2 binary frames with pipelined feeds — the ratios
  are the protocol + transport overhead per step, and
  ``v2_speedup_x`` / ``v2_vs_in_process_x`` are the headline wins;
- **scaling**: N concurrent served sessions driven by the load
  generator at concurrency N (v2 + pipelining, the serving default) —
  how aggregate steps/s behaves as the session count grows, with
  p50/p95/p99 request latency per cell;
- **session_batch**: the multi-tenant SessionBatch sweep — aggregate
  steps/s of 1/16/256/4096 same-cohort sessions advanced in vectorized
  ticks (in-process, feed region only), against a serial baseline that
  feeds the same 256 sessions one at a time; ``speedup_vs_serial_x``
  is the engine-layer batching win in isolation;
- **supervisor_hop**: loadgen throughput of one session against a
  single-process server vs a 1-shard supervisor, per wire version —
  ``overhead_x`` isolates what the extra supervisor hop costs, and the
  v2 pass-through (header-only routing, spliced payloads) should show
  a much smaller hop tax than v1's decode→re-encode;
- **metrics_overhead**: single-session served-v2 throughput with the
  ops plane toggled off vs instrumented under a live 1 Hz
  ``GET /metrics`` scraper — ``overhead_x`` is the telemetry tax the
  admin plane is held to (the regression gate caps it at 2%);
- **durability_overhead**: the same contrast for the write-ahead log —
  one server spawned with ``--wal-dir``, measured with WAL appends
  toggled off vs on (every acked feed flushed to the page cache before
  its ack, plus periodic checkpoints) — ``overhead_x`` is the
  durability tax of docs/OPERATIONS.md, gated by the regression check;
- **shard_scaling**: the same loadgen sweep against the sharded
  supervisor (``serve --shards N``) at 1/2/4 shards — whether served
  aggregate steps/s scales with worker processes.  On a >= 4-core
  machine 4 shards should clear 2x the 1-shard aggregate at high
  session counts; on a 1-CPU container the curve is flat and the
  sweep is a correctness/no-regression gate instead.

Results go to ``BENCH_service.json`` at the repository root so
successive PRs leave a perf trajectory (CI runs the ``--ci`` variant on
every push; regenerate the committed file with the default sizes).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_service.py --ci       # small, fast
    PYTHONPATH=src python benchmarks/bench_service.py --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.model.engine import MonitoringEngine
from repro.service import wire
from repro.service.algorithms import make_algorithm
from repro.service.cli import _spawn_server
from repro.service.client import ServiceClient
from repro.service.loadgen import run_loadgen
from repro.service.session import SessionBatch, session_from_wire
from repro.streams import registry

#: (T, n, k, eps, block_size) of the single-session comparison.  The CI
#: variant shrinks only the horizon T — never n (the regression gate
#: only compares equal-n cells) and never the feed block size (the
#: per-request overhead share, and so steps/s, depends on it: a CI run
#: at a smaller block would compare against a committed full-size cell
#: measured under structurally lighter per-step protocol cost).
FULL_SINGLE = (20_000, 32, 4, 0.1, 512)
CI_SINGLE = (8_000, 32, 4, 0.1, 512)

#: (T, n, k, eps, block) of the all-escalating scan cell.  CI shrinks
#: only T; the 4096-row block is what makes a careless scan expensive.
FULL_ESCALATING = (12_288, 32, 4, 0.1, 4096)
CI_ESCALATING = (4_096, 32, 4, 0.1, 4096)

#: (T per session, session counts) of the scaling sweep.
FULL_SCALING = (5_000, (1, 2, 4, 8))
CI_SCALING = (3_000, (1, 2, 4))

#: (T per session, shard counts, session counts) of the shard sweep.
#: CI keeps T large enough that per-run fixed costs (connection setup,
#: worker warmup) amortize — the regression gate compares steps/s
#: against the committed full-size baseline, and sub-second cells are
#: too noisy to gate on.
FULL_SHARDS = (3_000, (1, 2, 4), (1, 2, 4, 8, 16))
CI_SHARDS = (2_500, (1, 2), (1, 4))

#: T of the supervisor-hop comparison (sessions=1, per wire version).
FULL_HOP = 10_000
CI_HOP = 3_000

#: T of the metrics-overhead contrast (sessions=1, served v2 +
#: pipelining — the headline serving path) and the scrape cadence of
#: its background ``GET /metrics`` poller.  The ops-plane acceptance
#: gate reads this cell: instrumented + 1 Hz scraper must stay within
#: 2% of the uninstrumented rate.  Sized so that each arm of a round
#: runs ~0.3 s in CI: the time-axis scan made these zipf steps ~3x
#: cheaper, and at 8,000 steps a 0.1 s arm let noise alone swing the
#: ratio from 0.81 to 1.10.
FULL_METRICS_T = 60_000
CI_METRICS_T = 24_000
SCRAPE_INTERVAL_S = 1.0

#: Rounds of the metrics-overhead contrast.  Its gate is an absolute
#: ceiling (1.02x) rather than a 30%-drop ratio, so the estimate needs
#: tighter error bars than any other cell: a median over 5 interleaved
#: rounds is kept even in CI (each round costs well under a second at
#: the CI horizon — cheap insurance against a throttling blip landing
#: in exactly one variant of a 2-round run).
METRICS_ROUNDS = 5

#: Rounds of the durability-overhead contrast — a ratio gated by an
#: absolute ceiling, so it gets the same interleaved-median treatment
#: (and horizon) as the metrics cell.
DURABILITY_ROUNDS = 5

#: (T per session, session counts, n, k, eps, chunk) of the multi-tenant
#: SessionBatch sweep: aggregate steps/s of S same-cohort sessions
#: advanced in vectorized ticks, vs the same S sessions fed one at a
#: time on the serial path.  In-process on purpose — the cell isolates
#: the engine-layer batching win from transport and coalescing effects
#: (the scaling/shard sweeps keep covering those).  CI runs the full
#: grid: the session counts ARE the grid (per-session-count cells gate
#: in the regression check), the chunk size shapes per-tick overhead,
#: and with quiet rows scanned in bulk each session's costly first step
#: dominates a short horizon, so a CI-only T would read ~half the
#: committed 1-session rate on any machine.
FULL_BATCH = (1_000, (1, 16, 256, 4096), 8, 2, 0.1, 64)
CI_BATCH = FULL_BATCH

#: Session count of the serial baseline the batched sweep is judged
#: against (the acceptance gate: batched aggregate >= 5x serial here).
BATCH_BASELINE_SESSIONS = 256

#: In-flight feed window for pipelined (v2) cells.
PIPELINE = 16

#: Rounds per headline cell (single-session and supervisor-hop): each
#: round measures every variant once, interleaved, and the best round
#: per variant is reported.  Throttling (CI runners, burstable VMs)
#: only ever slows a cell down, so max-of-rounds is the denoised
#: estimate, and interleaving keeps slow windows from biasing the
#: v1-vs-v2 ratios the acceptance gates read.
FULL_ROUNDS = 3
CI_ROUNDS = 2

#: Extra rounds for the supervisor-hop contrast: overhead_x is a ratio
#: of two ~equal rates, so it needs more samples than a plain
#: throughput cell to sit stably inside host-noise bands.
FULL_HOP_ROUNDS = 5
CI_HOP_ROUNDS = 2


def _best(rows: list[dict]) -> dict:
    return max(rows, key=lambda row: row["steps_per_s"])

#: (rows, n) of the wire micro-benchmark block; shared by --ci and full
#: runs so the regression gate always finds matching cells.
WIRE_BLOCK = (512, 32)

WORKLOAD = "zipf"
ALGORITHM = "approx-monitor"


def bench_wire_microbench(repeats: int = 200) -> dict:
    """Codec-only MB/s (of raw float64 payload) for v1 vs v2 framing."""
    rows, n = WIRE_BLOCK
    block = np.random.default_rng(7).uniform(0.0, 1e6, size=(rows, n))
    mb = block.nbytes / 2**20

    def timed(fn) -> float:
        # Best of several timing batches (timeit-style): the v2 codec
        # is fast enough per call that a single scheduler blip inside
        # one batch would otherwise dominate the reported rate.
        fn()  # warm
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            best = min(best, (time.perf_counter() - start) / repeats)
        return best

    v1_line = wire.encode_line(
        {"id": 1, "op": "feed", "session": "s1", "values": wire.encode_values(block)}
    )
    v2_frame = wire.encode_frame(
        {"id": 1, "op": "feed", "session": "s1", "values": block}
    )
    v2_header = wire.parse_header(v2_frame)
    v2_meta = v2_frame[wire.HEADER_SIZE:wire.HEADER_SIZE + v2_header.meta_len]
    v2_payload = v2_frame[wire.HEADER_SIZE + v2_header.meta_len:]

    seconds = {
        "v1_encode": timed(lambda: wire.encode_line({
            "id": 1, "op": "feed", "session": "s1",
            "values": wire.encode_values(block),
        })),
        "v1_decode": timed(
            lambda: wire.decode_values(wire.decode_line(v1_line)["values"])
        ),
        "v2_encode": timed(lambda: wire.encode_frame({
            "id": 1, "op": "feed", "session": "s1", "values": block,
        })),
        "v2_decode": timed(
            lambda: wire.decode_frame(v2_header, v2_meta, v2_payload)
        ),
    }
    report = {
        "n": n,
        "rows": rows,
        "payload_bytes": block.nbytes,
        "bytes_on_wire": {"v1": len(v1_line), "v2": len(v2_frame)},
        "v1": {
            "encode_mb_per_s": round(mb / seconds["v1_encode"], 1),
            "decode_mb_per_s": round(mb / seconds["v1_decode"], 1),
        },
        "v2": {
            "encode_mb_per_s": round(mb / seconds["v2_encode"], 1),
            "decode_mb_per_s": round(mb / seconds["v2_decode"], 1),
        },
    }
    report["v2_codec_speedup_x"] = round(
        (seconds["v1_encode"] + seconds["v1_decode"])
        / (seconds["v2_encode"] + seconds["v2_decode"]),
        1,
    )
    return report


def bench_in_process(T: int, n: int, k: int, eps: float, block: int) -> dict:
    # Warm numpy/engine first-call paths so the measured run is steady
    # state — small CI horizons would otherwise misreport the warmup as
    # a throughput regression.
    warm = registry.stream(WORKLOAD, 1_000, n, block_size=block, rng=9)
    MonitoringEngine(
        warm, make_algorithm(ALGORITHM, k, eps), k=k, eps=eps, seed=9,
        record_outputs=False,
    ).run()
    source = registry.stream(WORKLOAD, T, n, block_size=block, rng=0)
    algorithm = make_algorithm(ALGORITHM, k, eps)
    engine = MonitoringEngine(
        source, algorithm, k=k, eps=eps, seed=1, record_outputs=False
    )
    start = time.perf_counter()
    result = engine.run()
    seconds = time.perf_counter() - start
    return {
        "T": T, "n": n, "seconds": round(seconds, 4),
        "steps_per_s": round(T / seconds),
        "messages": result.messages,
    }


def bench_escalating_scan(T: int, n: int, k: int, eps: float, block: int) -> dict:
    """Push ``iid`` rows through ``advance`` in large blocks, in process.

    ``escalated_share`` is the share of steps that charged messages:
    quiet steps charge none, so it is the share of rows the scan had to
    hand to the serial protocol step.
    """
    source = registry.stream("iid", T, n, block_size=block, rng=0)
    blocks = list(source.iter_blocks())
    engine = MonitoringEngine(
        None, make_algorithm(ALGORITHM, k, eps), k=k, eps=eps, seed=1, n=n,
        record_outputs=False,
    )
    engine.start()
    start = time.perf_counter()
    for rows in blocks:
        engine.advance(rows, prevalidated=True)
    seconds = time.perf_counter() - start
    per_step = np.asarray(engine.ledger.per_step)
    return {
        "T": T, "n": n, "block": block, "seconds": round(seconds, 4),
        "steps_per_s": round(T / seconds),
        "escalated_share": round(int(np.count_nonzero(per_step)) / T, 3),
        "messages": engine.ledger.messages,
    }


def bench_served(host: str, port: int, T: int, n: int, k: int, eps: float,
                 block: int, *, wire_protocol: str = "v1",
                 pipeline: int = 0) -> dict:
    source = registry.stream(WORKLOAD, T, n, block_size=block, rng=0)
    with ServiceClient(
        host, port, wire_protocol=wire_protocol, window=max(pipeline, 1)
    ) as client:
        sid = client.create_session(algorithm=ALGORITHM, n=n, k=k, eps=eps, seed=1)
        start = time.perf_counter()
        if pipeline:
            for chunk in source.iter_blocks():
                client.feed_nowait(sid, chunk)
            client.flush()
        else:
            for chunk in source.iter_blocks():
                client.feed(sid, chunk)
        result = client.finalize(sid)
        seconds = time.perf_counter() - start
        negotiated = client.wire_version
    return {
        "T": T, "n": n, "block_size": block, "seconds": round(seconds, 4),
        "wire": negotiated, "pipeline": pipeline,
        "steps_per_s": round(T / seconds),
        "messages": result["messages"],
    }


def bench_scaling(host: str, port: int, T: int, counts: tuple[int, ...],
                  n: int, k: int, eps: float, block: int) -> dict:
    out = {}
    for sessions in counts:
        report = asyncio.run(run_loadgen(
            host, port,
            workload=WORKLOAD, algorithm=ALGORITHM,
            sessions=sessions, concurrency=sessions,
            num_steps=T, n=n, k=k, eps=eps, block_size=block, seed=0,
            wire_protocol="auto", pipeline=PIPELINE,
        ))
        out[str(sessions)] = {
            "total_steps": report["total_steps"],
            "wall_seconds": report["wall_seconds"],
            "steps_per_s": report["steps_per_s"],
            "messages_per_step": report["messages_per_step"],
            "latency_ms": report["latency_ms"],
        }
    return out


def bench_session_batch(
    T: int, counts: tuple[int, ...], n: int, k: int, eps: float, chunk: int
) -> dict:
    """Aggregate steps/s of S cohort sessions, batched vs fed serially.

    Every session monitors its own random-walk stream (rare jumps keep
    escalations ~1-2% of steps — the quiet-dominated regime batching is
    built for).  Generation happens outside the timed region; only the
    feed calls are on the clock, in ``chunk``-step blocks per session so
    a 4096-session cell never materializes its full horizon at once.
    The serial baseline feeds the *same* sessions the same blocks one at
    a time — the per-session results are bit-identical by the cohort
    law, so the ratio is pure dispatch overhead vs vectorization.
    """
    spec = {"algorithm": ALGORITHM, "n": n, "k": k, "eps": eps}

    def run(S: int, batched: bool) -> dict:
        sessions = [session_from_wire({**spec, "seed": i}) for i in range(S)]
        batch = SessionBatch(sessions[0].cohort_key)
        rng = np.random.default_rng(0)
        levels = np.full((S, n), 50.0)
        elapsed = 0.0
        for lo in range(0, T, chunk):
            rows = min(chunk, T - lo)
            walk = np.cumsum(rng.normal(0, 0.05, size=(rows, S, n)), axis=0)
            jumps = rng.uniform(20, 60, size=(rows, S, n))
            jumps *= rng.random((rows, S, n)) < 1 / 4096
            values = np.abs(levels[None] + walk + jumps)
            levels = values[-1]
            blocks = [np.ascontiguousarray(values[:, i, :]) for i in range(S)]
            start = time.perf_counter()
            if batched:
                batch.feed_batch(list(zip(sessions, blocks)))
            else:
                for session, rows_block in zip(sessions, blocks):
                    session.feed(rows_block, prevalidated=True)
            elapsed += time.perf_counter() - start
        total = S * T
        return {
            "n": n,
            "sessions": S,
            "total_steps": total,
            "seconds": round(elapsed, 4),
            "aggregate_steps_per_s": round(total / elapsed) if elapsed else None,
        }

    run(4, True)  # warm numpy/engine first-call paths off the clock
    cells = {str(S): run(S, True) for S in counts}
    baseline = run(BATCH_BASELINE_SESSIONS, False)
    report = {
        "T": T,
        "chunk": chunk,
        "sessions": cells,
        "serial_baseline": baseline,
    }
    batched_at_baseline = cells.get(str(BATCH_BASELINE_SESSIONS))
    if batched_at_baseline and baseline["aggregate_steps_per_s"]:
        report["speedup_vs_serial_x"] = round(
            batched_at_baseline["aggregate_steps_per_s"]
            / baseline["aggregate_steps_per_s"],
            2,
        )
    return report


def _drain_or_kill(process, port: int) -> None:
    """Error-path teardown: graceful shutdown first, SIGKILL as last resort.

    A SIGKILLed sharded supervisor cannot reap its spawned worker
    processes (atexit never runs), so always try the shutdown op —
    it drains the whole worker fleet before the process exits.
    """
    try:
        with ServiceClient("127.0.0.1", port) as client:
            client.shutdown()
        process.wait(timeout=15)
    except Exception:
        process.kill()
        try:
            process.wait(timeout=5)
        except Exception:
            pass


def bench_supervisor_hop(
    T: int, n: int, k: int, eps: float, block: int, rounds: int
) -> dict:
    """One-session loadgen vs a single process and a 1-shard supervisor.

    The per-wire ``overhead_x`` (single-process steps/s divided by
    1-shard steps/s) is the cost of the extra supervisor hop alone —
    same worker code, same session, one more process in the path.  v1
    pays a JSON decode + re-encode per forwarded frame; v2 routes on
    the fixed header and splices the payload bytes through.
    """
    # Both topologies live at once and every (wire, topology) cell is
    # measured in every round; overhead_x is the median of the
    # *per-round* single/sharded ratios, so host-speed drift between
    # rounds cannot masquerade as hop overhead (the per-cell steps/s
    # still report each cell's best round).
    topologies = {"single_process": 0, "one_shard": 1}
    servers: dict[str, tuple] = {}
    rows: dict[tuple[str, str], list[dict]] = {}
    try:
        for label, shards in topologies.items():
            servers[label] = _spawn_server(shards)
        for label, (process, port) in servers.items():
            # Warm the topology (imports, allocator, numpy first-call).
            asyncio.run(run_loadgen(
                "127.0.0.1", port,
                workload=WORKLOAD, algorithm=ALGORITHM,
                sessions=1, concurrency=1,
                num_steps=500, n=n, k=k, eps=eps, block_size=block, seed=1,
            ))
        for _ in range(rounds):
            for wire_name, pipeline in (("v1", 0), ("v2", PIPELINE)):
                for label, (process, port) in servers.items():
                    report = asyncio.run(run_loadgen(
                        "127.0.0.1", port,
                        workload=WORKLOAD, algorithm=ALGORITHM,
                        sessions=1, concurrency=1,
                        num_steps=T, n=n, k=k, eps=eps, block_size=block, seed=0,
                        wire_protocol=wire_name, pipeline=pipeline,
                    ))
                    rows.setdefault((wire_name, label), []).append({
                        "n": n,
                        "steps_per_s": report["steps_per_s"],
                        "latency_ms": report["latency_ms"],
                    })
        for label, (process, port) in servers.items():
            with ServiceClient("127.0.0.1", port) as client:
                client.shutdown()
            process.wait(timeout=60)
    except BaseException:
        for process, port in servers.values():
            _drain_or_kill(process, port)
        raise
    out: dict = {}
    for (wire_name, label), cells in rows.items():
        out.setdefault(wire_name, {})[label] = _best(cells)
    for wire_name, cells in out.items():
        ratios = [
            single["steps_per_s"] / sharded["steps_per_s"]
            for single, sharded in zip(
                rows[(wire_name, "single_process")], rows[(wire_name, "one_shard")]
            )
            if sharded["steps_per_s"]
        ]
        cells["overhead_x"] = (
            round(statistics.median(ratios), 3) if ratios else None
        )
    return out


def _scrape_loop(admin_port: int, stop: threading.Event) -> int:
    """Poll ``GET /metrics`` once per SCRAPE_INTERVAL_S until stopped."""
    scrapes = 0
    url = f"http://127.0.0.1:{admin_port}/metrics"
    while not stop.is_set():
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                response.read()
            scrapes += 1
        except OSError:
            pass
        stop.wait(SCRAPE_INTERVAL_S)
    return scrapes


def bench_metrics_overhead(
    T: int, n: int, k: int, eps: float, block: int, rounds: int
) -> dict:
    """Single-session served-v2 throughput with the ops plane on vs off.

    One spawned server with an admin port; each round measures the
    uninstrumented rate (telemetry toggled off over the wire) and the
    instrumented rate under a live 1 Hz Prometheus scraper, interleaved.
    ``overhead_x`` is the median per-round uninstrumented/instrumented
    ratio — the same denoising the supervisor-hop cell uses, since this
    too is a ratio of two nearly equal rates.
    """
    process, port, admin_port = _spawn_server(admin=True)
    rows: dict[str, list[dict]] = {"off": [], "on": []}
    scrapes = 0
    try:
        # Warm the spawned server off the clock (see bench_supervisor_hop).
        bench_served("127.0.0.1", port, 2_000, n, k, eps, block,
                     wire_protocol="v2", pipeline=PIPELINE)
        for _ in range(rounds):
            for variant, enabled in (("off", False), ("on", True)):
                with ServiceClient("127.0.0.1", port) as client:
                    client.metrics(enabled=enabled)
                stop = threading.Event()
                scraper = None
                if enabled:
                    result: list[int] = []
                    scraper = threading.Thread(
                        target=lambda: result.append(_scrape_loop(admin_port, stop)),
                        daemon=True,
                    )
                    scraper.start()
                try:
                    rows[variant].append(
                        bench_served("127.0.0.1", port, T, n, k, eps, block,
                                     wire_protocol="v2", pipeline=PIPELINE)
                    )
                finally:
                    if scraper is not None:
                        stop.set()
                        scraper.join(timeout=10)
                        scrapes += result[0] if result else 0
        with ServiceClient("127.0.0.1", port) as client:
            client.shutdown()
        process.wait(timeout=30)
    except BaseException:
        _drain_or_kill(process, port)
        raise
    ratios = [
        off["steps_per_s"] / on["steps_per_s"]
        for off, on in zip(rows["off"], rows["on"])
        if on["steps_per_s"]
    ]
    return {
        "uninstrumented": _best(rows["off"]),
        "instrumented": _best(rows["on"]),
        "scrape_interval_s": SCRAPE_INTERVAL_S,
        "scrapes": scrapes,
        "overhead_x": round(statistics.median(ratios), 3) if ratios else None,
    }


def bench_durability_overhead(
    T: int, n: int, k: int, eps: float, block: int, rounds: int
) -> dict:
    """Single-session served-v2 throughput with WAL appends on vs off.

    One spawned server with a (throwaway) ``--wal-dir``; each round
    toggles durability over the wire and measures both variants,
    interleaved.  The "on" variant pays the full serving-path tax:
    every acked feed is encoded, appended and flushed to the page cache
    before its ack, and checkpoints fire at the default threshold.
    ``overhead_x`` is the median per-round off/on ratio (same denoising
    as the other ratio cells).
    """
    wal_dir = tempfile.mkdtemp(prefix="repro-bench-wal-")
    process, port = _spawn_server(wal_dir=wal_dir)
    rows: dict[str, list[dict]] = {"off": [], "on": []}
    try:
        # Warm the spawned server off the clock (see bench_supervisor_hop).
        bench_served("127.0.0.1", port, 2_000, n, k, eps, block,
                     wire_protocol="v2", pipeline=PIPELINE)
        for _ in range(rounds):
            for variant, enabled in (("off", False), ("on", True)):
                with ServiceClient("127.0.0.1", port) as client:
                    client.durability(enabled)
                rows[variant].append(
                    bench_served("127.0.0.1", port, T, n, k, eps, block,
                                 wire_protocol="v2", pipeline=PIPELINE)
                )
        with ServiceClient("127.0.0.1", port) as client:
            client.shutdown()
        process.wait(timeout=30)
    except BaseException:
        _drain_or_kill(process, port)
        raise
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    ratios = [
        off["steps_per_s"] / on["steps_per_s"]
        for off, on in zip(rows["off"], rows["on"])
        if on["steps_per_s"]
    ]
    return {
        "undurable": _best(rows["off"]),
        "durable": _best(rows["on"]),
        "overhead_x": round(statistics.median(ratios), 3) if ratios else None,
    }


def bench_shard_scaling(T: int, shard_counts: tuple[int, ...],
                        session_counts: tuple[int, ...],
                        n: int, k: int, eps: float, block: int) -> dict:
    """Aggregate loadgen throughput per (shard count, session count)."""
    out = {}
    for shards in shard_counts:
        process, port = _spawn_server(shards)
        try:
            # Warm the freshly spawned workers (imports, allocator, numpy
            # first-call paths) so the measured runs compare across sizes;
            # 4 sessions per shard make it likely every worker gets hit
            # through the consistent-hash placement.
            asyncio.run(run_loadgen(
                "127.0.0.1", port,
                workload=WORKLOAD, algorithm=ALGORITHM,
                sessions=4 * shards, concurrency=4 * shards,
                num_steps=200, n=n, k=k, eps=eps, block_size=block, seed=1,
            ))
            per_sessions = {}
            for sessions in session_counts:
                report = asyncio.run(run_loadgen(
                    "127.0.0.1", port,
                    workload=WORKLOAD, algorithm=ALGORITHM,
                    sessions=sessions, concurrency=sessions,
                    num_steps=T, n=n, k=k, eps=eps, block_size=block, seed=0,
                    wire_protocol="auto", pipeline=PIPELINE,
                ))
                per_sessions[str(sessions)] = {
                    "total_steps": report["total_steps"],
                    "wall_seconds": report["wall_seconds"],
                    "steps_per_s": report["steps_per_s"],
                    "messages_per_step": report["messages_per_step"],
                    "latency_ms": report["latency_ms"],
                }
            with ServiceClient("127.0.0.1", port) as client:
                client.shutdown()
            process.wait(timeout=60)
            out[str(shards)] = {
                "sessions": per_sessions,
                "clean_shutdown": process.returncode == 0,
            }
        except BaseException:
            _drain_or_kill(process, port)
            raise
    return out


def _shard_speedup(shard_scaling: dict) -> float | None:
    """Aggregate steps/s of the largest vs the smallest shard count,
    at the largest common session count (the ISSUE-4 scaling gate)."""
    shard_counts = sorted(shard_scaling, key=int)
    if len(shard_counts) < 2:
        return None
    low, high = shard_counts[0], shard_counts[-1]
    sessions = sorted(shard_scaling[high]["sessions"], key=int)[-1]
    base = shard_scaling[low]["sessions"][sessions]["steps_per_s"]
    top = shard_scaling[high]["sessions"][sessions]["steps_per_s"]
    return round(top / base, 2) if base else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ci", action="store_true", help="small sizes for CI")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_service.json",
    )
    args = parser.parse_args(argv)

    T, n, k, eps, block = CI_SINGLE if args.ci else FULL_SINGLE
    scale_T, counts = CI_SCALING if args.ci else FULL_SCALING
    shard_T, shard_counts, shard_sessions = CI_SHARDS if args.ci else FULL_SHARDS
    batch_T, batch_counts, batch_n, batch_k, batch_eps, batch_chunk = (
        CI_BATCH if args.ci else FULL_BATCH
    )
    hop_T = CI_HOP if args.ci else FULL_HOP
    metrics_T = CI_METRICS_T if args.ci else FULL_METRICS_T
    rounds = CI_ROUNDS if args.ci else FULL_ROUNDS
    hop_rounds = CI_HOP_ROUNDS if args.ci else FULL_HOP_ROUNDS

    t0 = time.perf_counter()
    microbench = bench_wire_microbench(50 if args.ci else 200)
    escalating_scan = bench_escalating_scan(*(CI_ESCALATING if args.ci else FULL_ESCALATING))

    process, port = _spawn_server()
    try:
        # Warm the freshly spawned server (imports, allocator, numpy
        # first-call paths) so the v1 cell measures steady state, not
        # process cold start — the v1-vs-v2 ratio is only honest if
        # both sides run warm.
        bench_served("127.0.0.1", port, 2_000, n, k, eps, block,
                     wire_protocol="v1", pipeline=0)
        single_rows: dict[str, list[dict]] = {
            "in_process": [], "served": [], "served_v2": [],
        }
        for _ in range(rounds):
            single_rows["in_process"].append(bench_in_process(T, n, k, eps, block))
            single_rows["served"].append(
                bench_served("127.0.0.1", port, T, n, k, eps, block,
                             wire_protocol="v1", pipeline=0)
            )
            single_rows["served_v2"].append(
                bench_served("127.0.0.1", port, T, n, k, eps, block,
                             wire_protocol="v2", pipeline=PIPELINE)
            )
        in_process = _best(single_rows["in_process"])
        served = _best(single_rows["served"])
        served_v2 = _best(single_rows["served_v2"])
        scaling = bench_scaling("127.0.0.1", port, scale_T, counts, n, k, eps, block)
        with ServiceClient("127.0.0.1", port) as client:
            client.shutdown()
        process.wait(timeout=30)
        clean = process.returncode == 0
    except BaseException:
        _drain_or_kill(process, port)
        raise

    session_batch = bench_session_batch(
        batch_T, batch_counts, batch_n, batch_k, batch_eps, batch_chunk
    )
    supervisor_hop = bench_supervisor_hop(hop_T, n, k, eps, block, hop_rounds)
    metrics_overhead = bench_metrics_overhead(
        metrics_T, n, k, eps, block, METRICS_ROUNDS
    )
    durability_overhead = bench_durability_overhead(
        metrics_T, n, k, eps, block, DURABILITY_ROUNDS
    )
    shard_scaling = bench_shard_scaling(
        shard_T, shard_counts, shard_sessions, n, k, eps, block
    )
    clean = clean and all(row["clean_shutdown"] for row in shard_scaling.values())

    report = {
        "schema": 7,
        "mode": "ci" if args.ci else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workload": WORKLOAD,
        "algorithm": ALGORITHM,
        "wire_microbench": microbench,
        "escalating_scan": escalating_scan,
        "single_session": {
            "in_process": in_process,
            "served": served,
            "served_v2": served_v2,
            "serving_overhead_x": round(
                in_process["steps_per_s"] / served["steps_per_s"], 2
            ),
            "v2_speedup_x": round(
                served_v2["steps_per_s"] / served["steps_per_s"], 2
            ),
            "v2_vs_in_process_x": round(
                served_v2["steps_per_s"] / in_process["steps_per_s"], 2
            ),
        },
        "scaling": scaling,
        "session_batch": session_batch,
        "supervisor_hop": supervisor_hop,
        "metrics_overhead": metrics_overhead,
        "durability_overhead": durability_overhead,
        "shard_scaling": shard_scaling,
        "shard_speedup_x": _shard_speedup(shard_scaling),
        "clean_shutdown": clean,
    }
    if not args.ci:
        # Historical anchor: the served steps/s this repo shipped before
        # wire v2 (PR 4's committed full-size baseline, v1 lockstep as
        # the only protocol, same container lineage as the committed
        # file).  Full mode only — it matches this grid's (T, n, block),
        # and it is a same-lineage trajectory marker, not a portable
        # cross-machine metric.
        report["single_session"]["pr4_committed_v1_steps_per_s"] = 29_888
        report["single_session"]["v2_vs_pr4_committed_x"] = round(
            served_v2["steps_per_s"] / 29_888, 2
        )
    report["total_seconds"] = round(time.perf_counter() - t0, 2)

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({report['total_seconds']}s)")
    print(f"  wire codec:  v1 {microbench['v1']['encode_mb_per_s']}/"
          f"{microbench['v1']['decode_mb_per_s']} MB/s enc/dec, "
          f"v2 {microbench['v2']['encode_mb_per_s']}/"
          f"{microbench['v2']['decode_mb_per_s']} MB/s "
          f"({microbench['v2_codec_speedup_x']}x)")
    print(f"  escalating scan: {escalating_scan['steps_per_s']:>9,} steps/s  "
          f"(iid, n={escalating_scan['n']}, {escalating_scan['block']}-row blocks, "
          f"{escalating_scan['escalated_share']:.0%} escalated)")
    print(f"  in-process: {in_process['steps_per_s']:>9,} steps/s  (T={T}, n={n})")
    print(f"  served v1:  {served['steps_per_s']:>9,} steps/s  "
          f"({report['single_session']['serving_overhead_x']}x overhead)")
    print(f"  served v2:  {served_v2['steps_per_s']:>9,} steps/s  "
          f"({report['single_session']['v2_speedup_x']}x v1, "
          f"{report['single_session']['v2_vs_in_process_x']}x in-process, "
          f"pipeline {PIPELINE})")
    for wire_name, cells in supervisor_hop.items():
        print(f"  hop {wire_name}: single {cells['single_process']['steps_per_s']:,} "
              f"vs 1-shard {cells['one_shard']['steps_per_s']:,} steps/s "
              f"-> {cells['overhead_x']}x")
    print(f"  metrics: off {metrics_overhead['uninstrumented']['steps_per_s']:,} "
          f"vs on+scrape {metrics_overhead['instrumented']['steps_per_s']:,} steps/s "
          f"-> {metrics_overhead['overhead_x']}x "
          f"({metrics_overhead['scrapes']} scrapes)")
    print(f"  durability: off {durability_overhead['undurable']['steps_per_s']:,} "
          f"vs WAL on {durability_overhead['durable']['steps_per_s']:,} steps/s "
          f"-> {durability_overhead['overhead_x']}x")
    for sessions, row in scaling.items():
        print(f"  {sessions:>2} sessions: {row['steps_per_s']:>9,} steps/s aggregate")
    for sessions, cell in session_batch["sessions"].items():
        print(f"  batch x {sessions:>4} sessions: "
              f"{cell['aggregate_steps_per_s']:>11,} steps/s aggregate")
    print(f"  batch serial baseline ({BATCH_BASELINE_SESSIONS} sessions): "
          f"{session_batch['serial_baseline']['aggregate_steps_per_s']:,} steps/s "
          f"-> {session_batch.get('speedup_vs_serial_x')}x batched")
    for shards, row in shard_scaling.items():
        for sessions, cell in row["sessions"].items():
            print(f"  {shards} shard(s) x {sessions:>2} sessions: "
                  f"{cell['steps_per_s']:>9,} steps/s aggregate")
    print(f"  shard speedup ({os.cpu_count()} CPUs): {report['shard_speedup_x']}x")
    print(f"  server shutdown: {'clean' if clean else 'UNCLEAN'}")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
