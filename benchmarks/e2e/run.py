"""End-to-end benchmark of the served monitoring protocols.

One command spawns a workload's server topology, drives it from one
single-threaded asyncio process over raw v2 frames, checks every ack
and the sessions' final results, and prints each metric by name with
its unit; the last line of standard output is one JSON object::

    python3 benchmarks/e2e/run.py --workload single_quiet --seed 7 \\
        --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py                  # all four workloads
    python3 benchmarks/e2e/run.py --trace          # per-layer breakdown
    python3 benchmarks/e2e/run.py --verify --seed 5    # replay only
    python3 benchmarks/e2e/run.py --selftest

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same traffic once untraced
and once against a topology started by ``traced_serve.py``, and reports
the per-layer metrics.  The program is imported from ``src/`` of the
checkout this directory sits in.  See README.md for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import statistics
import sys
import time
import unittest
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program's sources are missing ({SRC / 'repro'}); "
             "run the benchmark from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from repro.service import metrics as metricslib  # noqa: E402

import reference  # noqa: E402
from driver import Link, Tally, run_closed, run_open  # noqa: E402
from stats import percentile_summary  # noqa: E402
from topology import Topology, cpu_seconds, preflight, vmhwm_mib  # noqa: E402
from traced_serve import FIELDS as SPAN_FIELDS, TRACE_DIR_ENV  # noqa: E402
from workloads import WORKLOADS, Plan, Workload, generate, make_plan, session_spec  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 10

#: Cold starts per e2e run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: SIGKILL → respawn → verified cycles per durable run; ``recover_s`` is their median.
RECOVER_REPEATS = 3
#: Open-loop generator lateness above which a run's latencies are suspect.
MAX_GEN_LAG_MS = 2.0

#: name -> unit of every metric the untraced run reports (BENCHMARK.json ``end_to_end``).
E2E_UNITS = {
    "capacity_steps_per_s": "steps/s",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "messages_per_step": "msgs/step",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}

#: Message scopes of ``approx-monitor``'s ledger, reported per step.
SCOPES = ("dense_count", "max_protocol", "top_m_probe", "violation_detection")

#: Span-name prefixes per layer (``<role>.loop``/``<role>.executor`` are
#: the event loop and thread pool of a serving or supervising process).
LAYERS = ("server", "shard", "wire", "session", "engine", "core", "wal")

#: name -> unit of every metric the traced run reports (BENCHMARK.json ``per_layer``).
LAYER_UNITS = {
    "driver.gen_lag_p99_ms": "ms",
    "driver.achieved_over_offered": "ratio",
    "driver.ack_p99_ms": "ms",
    "driver.ack_samples": "count",
    "driver.cpu_share": "ratio",
    "server.cpu_ms_per_kstep": "ms/kstep",
    "server.feed_op_ms": "ms",
    "server.dispatch_overhead_ms": "ms",
    "server.coalesced_step_share": "ratio",
    "server.entries_per_tick": "entries",
    "wire.decode_frame_us": "us",
    "wire.encode_frame_us": "us",
    "wire.frames": "count",
    "wire.bytes_in": "B",
    "session.feed_us_per_step": "us",
    "engine.advance_us_per_step": "us",
    "engine.deliver_us": "us",
    "core.on_step_us": "us",
    "core.on_step_calls_per_step": "calls/step",
    "core.max_rounds_per_step": "rounds",
    **{f"core.messages_per_step.{scope}": "msgs/step" for scope in SCOPES},
    "wal.records": "count",
    "wal.checkpoints": "count",
    **{f"{layer}.cpu_share": "ratio" for layer in LAYERS},
    "trace.overhead_x": "x",
    "trace.attributed_share": "ratio",
}


class RunFailed(RuntimeError):
    """The served outputs disagree with the reference, or serving broke."""


# --------------------------------------------------------------------- #
# Serving one topology
# --------------------------------------------------------------------- #
class Served:
    """A live topology, its connections and the ids of its sessions."""

    def __init__(self, topo: Topology, links: list[Link], sids: list[str], cpu_start: float):
        self.topo = topo
        self.links = links
        self.sids = sids
        self.cpu_start = cpu_start  # server CPU seconds when it announced itself


class Measured:
    """The timed phases of one topology: closed and open tallies per cycle."""

    def __init__(self) -> None:
        self.closed: list[Tally] = []
        self.open: list[Tally] = []
        self.server_cpu_closed = 0.0  # server CPU seconds inside closed phases
        self.driver_cpu = 0.0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.closed + self.open)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.closed + self.open)

    def capacity(self) -> float:
        """Steps acked in the closed phases ÷ their wall time."""
        return self.closed_steps() / sum(t.wall for t in self.closed)

    def acks_ms(self, phase: str) -> dict:
        tallies = self.closed if phase == "closed" else self.open
        return percentile_summary([t * 1e3 for tally in tallies for t in tally.latencies])

    def lags_ms(self) -> dict:
        return percentile_summary([t * 1e3 for tally in self.open for t in tally.lags],
                                  qs=(50, 99))

    def achieved_over_offered(self, offered: float) -> float:
        return sum(t.steps for t in self.open) / sum(t.wall for t in self.open) / offered

    def closed_steps(self) -> int:
        return sum(t.steps for t in self.closed)


class Context:
    """Everything one workload run shares: inputs, plan, expectations."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: Path):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.plan: Plan = make_plan(w, seconds)
        self.data = generate(w, seed, self.plan.steps_per_session)
        self.topologies: list[Topology] = []
        self.last_step = [0] * w.sessions
        self.snapshot_bytes: list[int] = []

    def topology(self, traced: bool, wal: Path | None) -> Topology:
        argv = [str(HERE / "traced_serve.py")] if traced else ["-m", "repro.experiments", "serve"]
        argv += ["--port", "0"]
        if self.w.shards:
            argv += ["--shards", str(self.w.shards)]
        if wal is not None:
            argv += ["--wal-dir", str(wal)]
        env = {"PYTHONPATH": str(SRC)}
        if traced:
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        log = self.work / f"server-{len(self.topologies) + 1}.log"
        topo = Topology(ROOT, argv, log, env)
        self.topologies.append(topo)
        return topo

    @property
    def trace_dir(self) -> Path:
        path = self.work / "trace"
        path.mkdir(exist_ok=True)
        return path

    def build(self, served: Served):
        def message(op) -> dict:
            sid = served.sids[op.session]
            if op.kind == "feed":
                return {"op": "feed", "session": sid,
                        "values": self.data[op.session][op.start : op.step]}
            return {"op": op.kind, "session": sid}

        return message

    def check(self, op, reply: dict) -> str | None:
        if reply.get("step") != op.step:
            return (f"{op.kind} of session {op.session}: step {reply.get('step')}, "
                    f"expected {op.step}")
        self.last_step[op.session] = max(self.last_step[op.session], op.step)
        if op.kind == "snapshot":
            size = len(reply.get("state") or b"")
            if not size:
                return f"snapshot of session {op.session} returned no state"
            self.snapshot_bytes.append(size)
        return None

    async def kill_all(self) -> None:
        for topo in self.topologies:
            await topo.kill()


async def cold_start(ctx: Context, *, traced: bool = False, wal: Path | None = None) -> Served:
    """Spawn → ``serving on`` → hello on every connection → create every session."""
    topo = ctx.topology(traced, wal)
    port = await topo.start()
    cpu_start = cpu_seconds(topo.pids())
    links = [await Link.open("127.0.0.1", port) for _ in range(ctx.w.connections)]
    replies = await asyncio.gather(*(
        links[i % ctx.w.connections].request(
            {"op": "create", "spec": session_spec(ctx.w, ctx.seed, i)}
        )
        for i in range(ctx.w.sessions)
    ))
    return Served(topo, links, [reply["session"] for reply in replies], cpu_start)


def _require_clean(tally: Tally, phase: str) -> Tally:
    if tally.mismatches:
        raise RunFailed(f"{phase} phase: {len(tally.mismatches)} wrong acks, first: "
                        f"{tally.mismatches[0]}")
    return tally


async def drive(ctx: Context, served: Served) -> Measured:
    """The warm-up, then every closed/open cycle of the plan."""
    w, build = ctx.w, ctx.build(served)
    _require_clean(await run_closed(served.links, ctx.plan.warm, w.window, build, ctx.check),
                   "warm-up")
    measured = Measured()
    start, driver0 = time.perf_counter(), time.process_time()
    for closed_ops, open_ops in ctx.plan.cycles:
        cpu0 = cpu_seconds(served.topo.pids())
        measured.closed.append(_require_clean(
            await run_closed(served.links, closed_ops, w.window, build, ctx.check), "closed"))
        measured.server_cpu_closed += cpu_seconds(served.topo.pids()) - cpu0
        measured.open.append(_require_clean(
            await run_open(served.links, open_ops, w.offered_steps_per_s, build, ctx.check),
            "open"))
    measured.driver_cpu = time.process_time() - driver0
    measured.elapsed = time.perf_counter() - start
    return measured


async def finalize(served: Served) -> dict:
    replies = await asyncio.gather(*(
        served.links[i % len(served.links)].request({"op": "finalize", "session": sid})
        for i, sid in enumerate(served.sids)
    ))
    return reference.summarize_results([reply["result"] for reply in replies])


async def shutdown(served: Served) -> None:
    """Ask for a clean drain; the group is SIGKILLed after it either way."""
    try:
        await served.links[0].request({"op": "shutdown"}, timeout=30)
    finally:
        for link in served.links:
            await link.aclose()
        code = await served.topo.wait(30)
        await served.topo.kill()
    if code != 0:
        raise RunFailed(f"server did not shut down cleanly (exit code {code}); "
                        f"see {served.topo.log}")


async def recover_cycles(ctx: Context, served: Served, wal: Path) -> tuple[Served, list[float]]:
    """SIGKILL the durable server, respawn it on the same WAL, verify.

    A cycle ends once ``list`` shows every session and a ``query`` of
    each reports the last acknowledged step.
    """
    times = []
    for _ in range(RECOVER_REPEATS):
        start = time.perf_counter()
        await served.topo.kill()
        for link in served.links:
            await link.aclose()
        topo = ctx.topology(False, wal)
        port = await topo.start()
        links = [await Link.open("127.0.0.1", port) for _ in range(ctx.w.connections)]
        listed = (await links[0].request({"op": "list"}))["sessions"]
        steps = {row["session"]: row["step"] for row in listed}
        expected = dict(zip(served.sids, ctx.last_step))
        if steps != expected:
            raise RunFailed(f"recovered sessions {steps} != acknowledged {expected}")
        queried = await asyncio.gather(*(
            links[i % len(links)].request({"op": "query", "session": sid})
            for i, sid in enumerate(served.sids)
        ))
        if [q["step"] for q in queried] != ctx.last_step:
            raise RunFailed("a recovered session's query disagrees with its last ack")
        times.append(time.perf_counter() - start)
        served = Served(topo, links, served.sids, 0.0)
    return served, times


async def serve_untraced(ctx: Context, setups: int) -> dict[str, Any]:
    """Cold starts, warm-up, the timed cycles, recovery, finalize."""
    setup_times = []
    served = wal = None
    for attempt in range(setups):
        if served is not None:
            await shutdown(served)
        wal = ctx.work / f"wal-{attempt}" if ctx.w.durable else None
        start = time.perf_counter()
        served = await cold_start(ctx, wal=wal)
        setup_times.append(time.perf_counter() - start)
    assert served is not None
    measured = await drive(ctx, served)
    rss = vmhwm_mib(served.topo.pids())
    recover: list[float] = []
    if wal is not None:
        served, recover = await recover_cycles(ctx, served, wal)
    final = await finalize(served)
    await shutdown(served)
    return {"setup": setup_times, "measured": measured, "rss_mib": rss,
            "recover": recover, "final": final}


async def serve_traced(ctx: Context) -> dict[str, Any]:
    """The same traffic against a traced topology; spans and counters."""
    wal = ctx.work / "wal-traced" if ctx.w.durable else None
    served = await cold_start(ctx, traced=True, wal=wal)
    measured = await drive(ctx, served)
    dump = (await served.links[0].request({"op": "metrics"}))["metrics"]
    server_cpu = cpu_seconds(served.topo.pids()) - served.cpu_start
    final = await finalize(served)
    await shutdown(served)
    spans: dict[str, dict[str, int]] = {}
    dumps = sorted(ctx.trace_dir.glob("spans-*.json"))
    if len(dumps) != 1 + ctx.w.shards:
        raise RunFailed(f"expected {1 + ctx.w.shards} span dumps, found {len(dumps)}")
    for path in dumps:
        for name, row in json.loads(path.read_text())["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                into[field] += value
    return {"measured": measured, "metrics": dump, "server_cpu": server_cpu,
            "spans": spans, "final": final}


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def e2e_metrics(ctx: Context, run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and the details printed beside them."""
    m: Measured = run["measured"]
    final = run["final"]
    acks = m.acks_ms("open")
    metrics = {
        "capacity_steps_per_s": m.capacity(),
        "ack_p50_ms": acks["p50"],
        "ack_p90_ms": acks["p90"],
        "messages_per_step": final["messages"] / final["steps"],
        "setup_s": statistics.median(run["setup"]),
        "server_rss_mb": run["rss_mib"],
    }
    lags = m.lags_ms()
    details = {
        "error_rate": (m.failed / m.attempted, "ratio"),
        "server.cpu_ms_per_kstep": (1e6 * m.server_cpu_closed / m.closed_steps(), "ms/kstep"),
        "ack_p99_ms": (acks["p99"], "ms"),
        "ack_p99_beyond": (acks["p99_beyond"], "count"),
        "ack_samples": (acks["samples"], "count"),
        "closed_ack_p50_ms": (m.acks_ms("closed")["p50"], "ms"),
        "driver.gen_lag_p50_ms": (lags["p50"], "ms"),
        "driver.gen_lag_p99_ms": (lags["p99"], "ms"),
        "driver.achieved_over_offered": (m.achieved_over_offered(ctx.w.offered_steps_per_s),
                                         "ratio"),
        "setup_runs_s": (run["setup"], "s"),
    }
    if run["recover"]:
        details["recover_s"] = (statistics.median(run["recover"]), "s")
        details["recover_runs_s"] = (run["recover"], "s")
    if ctx.snapshot_bytes:
        details["session.snapshot_kb"] = (
            sum(ctx.snapshot_bytes) / len(ctx.snapshot_bytes) / 1024, "KiB")
    return metrics, details


def _family(dump: dict, section: str, name: str, **labels: str) -> list:
    """Every instrument of ``name`` whose labels include ``labels``."""
    out = []
    for key, value in dump.get(section, {}).items():
        family, have = metricslib.split_key(key)
        if family == name and all(have.get(k) == v for k, v in labels.items()):
            out.append(value)
    return out


def _hist_mean_ms(dump: dict, name: str, **labels: str) -> float:
    cells = _family(dump, "histograms", name, **labels)
    count = sum(cell["count"] for cell in cells)
    return 1e3 * sum(cell["sum"] for cell in cells) / count if count else 0.0


def _counter(dump: dict, name: str) -> int:
    return sum(_family(dump, "counters", name))


def layer_metrics(ctx: Context, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and workload-specific details."""
    spans = traced["spans"]
    empty = dict.fromkeys(SPAN_FIELDS, 0)

    def row(name: str) -> dict[str, int]:
        return spans.get(name, empty)

    def per(name: str, by: str = "calls", scale: float = 1e-3) -> float:
        """CPU time of span ``name`` (children included) per call or unit.

        CPU, not wall: a span on the event loop thread waits up to the
        interpreter's switch interval whenever an executor thread holds
        the lock, which would swamp a 10 µs decode.
        """
        r = row(name)
        return r["cpu_ns"] * scale / r[by] if r[by] else 0.0

    m: Measured = untraced["measured"]
    dump = traced["metrics"]
    feeds = [op for op in ctx.plan.ops() if op.kind == "feed"]
    steps = sum(op.step - op.start for op in feeds)
    cpu_ns = traced["server_cpu"] * 1e9
    share = {
        layer: sum(r["self_cpu_ns"] for name, r in spans.items()
                   if name.split(".", 1)[0] == layer) / cpu_ns
        for layer in LAYERS
    }
    feed_op_ms = _hist_mean_ms(dump, "repro_op_latency_seconds", op="feed")
    session_ms_per_feed = (row("session.feed")["wall_ns"]
                           + row("session.feed_batch")["wall_ns"]) / 1e6 / len(feeds)
    batch = row("session.feed_batch")
    acks = m.acks_ms("open")
    final = traced["final"]
    metrics = {
        "driver.gen_lag_p99_ms": m.lags_ms()["p99"],
        "driver.achieved_over_offered": m.achieved_over_offered(ctx.w.offered_steps_per_s),
        "driver.ack_p99_ms": acks["p99"],
        "driver.ack_samples": acks["samples"],
        "driver.cpu_share": m.driver_cpu / m.elapsed,
        "server.cpu_ms_per_kstep": 1e6 * m.server_cpu_closed / m.closed_steps(),
        "server.feed_op_ms": feed_op_ms,
        "server.dispatch_overhead_ms": feed_op_ms - session_ms_per_feed,
        "server.coalesced_step_share": _counter(dump, "repro_batched_steps_total") / steps,
        "server.entries_per_tick": batch["members"] / batch["calls"] if batch["calls"] else 0.0,
        "wire.decode_frame_us": per("wire.decode_frame"),
        "wire.encode_frame_us": per("wire.encode_frame"),
        "wire.frames": row("wire.decode_frame")["calls"],
        "wire.bytes_in": row("wire.decode_frame")["units"],
        "session.feed_us_per_step": per("session.feed", "units"),
        "engine.advance_us_per_step": per("engine.advance", "units"),
        "engine.deliver_us": per("engine.deliver"),
        "core.on_step_us": per("core.on_step"),
        "core.on_step_calls_per_step": row("core.on_step")["calls"] / steps,
        "core.max_rounds_per_step": final["max_rounds_per_step"],
        "wal.records": _counter(dump, "repro_wal_records_total"),
        "wal.checkpoints": _counter(dump, "repro_wal_checkpoints_total"),
        "trace.overhead_x": m.capacity() / traced["measured"].capacity(),
        "trace.attributed_share": sum(share.values()),
    }
    for scope in SCOPES:
        metrics[f"core.messages_per_step.{scope}"] = (
            final["by_scope"].get(scope, 0) / final["steps"])
    for layer in LAYERS:
        metrics[f"{layer}.cpu_share"] = share[layer]

    details: dict[str, tuple[Any, str]] = {
        "trace.unattributed_share": (1 - metrics["trace.attributed_share"], "ratio"),
        "traced_capacity_steps_per_s": (traced["measured"].capacity(), "steps/s"),
    }
    for role in ("server", "shard"):
        for part in ("loop", "executor"):
            r = row(f"{role}.{part}")
            if r["calls"]:
                details[f"{role}.{part}_self_cpu_share"] = (r["self_cpu_ns"] / cpu_ns, "ratio")
    if batch["calls"]:
        quiet = _counter(dump, "repro_quiet_steps_total")
        escalated = _counter(dump, "repro_escalated_steps_total")
        details["session.feed_batch_us_per_step"] = (per("session.feed_batch", "units"), "us")
        details["engine.advance_batch_us_per_member_step"] = (
            per("engine.advance_batch", "units"), "us")
        details["engine.quiet_share"] = (
            quiet / (quiet + escalated) if quiet + escalated else 0.0, "ratio")
    if ctx.w.shards:
        forward = _hist_mean_ms(dump, "repro_forward_seconds")
        details["shard.forward_ms"] = (forward, "ms")
        details["shard.hop_overhead_ms"] = (forward - feed_op_ms, "ms")
    if ctx.w.durable:
        records = metrics["wal.records"]
        details["wal.append_us"] = (per("wal.append"), "us")
        details["wal.bytes_per_record"] = (
            _counter(dump, "repro_wal_bytes_total") / records if records else 0.0, "B")
        details["wal.commit_checkpoint_ms"] = (per("wal.commit_checkpoint", scale=1e-6), "ms")
        details["session.snapshot_ms"] = (per("session.snapshot", scale=1e-6), "ms")
        details["server.query_op_ms"] = (
            _hist_mean_ms(dump, "repro_op_latency_seconds", op="query"), "ms")
        details["server.snapshot_op_ms"] = (
            _hist_mean_ms(dump, "repro_op_latency_seconds", op="snapshot"), "ms")
        if untraced["recover"]:
            details["recover_s"] = (statistics.median(untraced["recover"]), "s")
    return metrics, details


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def expected_outputs(ctx: Context) -> tuple[dict, str]:
    pins = reference.load_pins(ctx.seed, ctx.seconds)
    if pins is not None and ctx.w.name in pins:
        return pins[ctx.w.name], "pins.json"
    return reference.replay(ctx.w, ctx.seed, ctx.data, ctx.plan), "in-process replay"


async def run_workload(ctx: Context, trace: bool) -> dict[str, Any]:
    """Serve, check, measure; returns the report of one workload."""
    try:
        untraced = await serve_untraced(ctx, 1 if trace else SETUP_REPEATS)
        traced = await serve_traced(ctx) if trace else None
    finally:
        await ctx.kill_all()
    expected, source = expected_outputs(ctx)
    for label, run in (("untraced", untraced), ("traced", traced)):
        if run is not None and run["final"] != expected:
            raise RunFailed(f"{label} outputs differ from the reference ({source}):\n"
                            f"  served   {run['final']}\n  expected {expected}")
    if traced is not None:
        metrics, details = layer_metrics(ctx, untraced, traced)
        units = LAYER_UNITS
    else:
        metrics, details = e2e_metrics(ctx, untraced)
        units = E2E_UNITS
    m: Measured = untraced["measured"]
    lag = m.lags_ms()["p99"]
    if lag > MAX_GEN_LAG_MS:
        print(f"warning: open-loop generator ran {lag:.2f} ms late at p99 "
              f"(> {MAX_GEN_LAG_MS} ms); latencies of this run are suspect",
              file=sys.stderr)
    return {
        "workload": ctx.w.name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(trace),
        "checked_against": source,
        "correct": True,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "details": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in details.items()},
    }


def _print_report(report: dict) -> None:
    print(f"[{report['workload']}] seed {report['seed']}, {report['seconds']} s, "
          f"outputs checked against {report['checked_against']}")
    for section in ("metrics", "details"):
        for name, cell in report[section].items():
            value = cell["value"]
            text = (", ".join(f"{v:.4g}" for v in value) if isinstance(value, list)
                    else f"{value:.6g}")
            print(f"  {name:<44} {text} {cell['unit']}")


def result_line(reports: list[dict]) -> dict:
    """The final stdout line; metric names gain a workload prefix when
    several workloads ran."""
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": cell
                   for r in reports for name, cell in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


async def _main_async(args: argparse.Namespace) -> int:
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel)
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        try:
            preflight()
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        work = ROOT / ".e2e_work" / f"{name}-{time.time_ns()}"
        work.mkdir(parents=True)
        ctx = Context(WORKLOADS[name], args.seed, args.seconds, work)
        try:
            report = await run_workload(ctx, bool(args.trace))
        except (RuntimeError, OSError, asyncio.TimeoutError) as exc:  # RunFailed, DriverError too
            print(f"[{name}] FAILED: {exc}\n  server logs kept in {work}", file=sys.stderr)
            return 1
        except asyncio.CancelledError:
            shutil.rmtree(work, ignore_errors=True)
            raise
        shutil.rmtree(work, ignore_errors=True)
        _print_report(report)
        reports.append(report)
    if args.out:
        payload = reports[0] if len(reports) == 1 else reports
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(result_line(reports)))
    return 0


def verify(args: argparse.Namespace) -> int:
    """Replay-derived pins for ``--seed``; compared with pins.json if pinned."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    pinned = reference.load_pins(args.seed, args.seconds) or {}
    computed = {}
    status = 0
    for name in names:
        w = WORKLOADS[name]
        plan = make_plan(w, args.seconds)
        summary = reference.replay(
            w, args.seed, generate(w, args.seed, plan.steps_per_session), plan)
        computed[name] = summary
        verdict = "not pinned"
        if name in pinned:
            same = pinned[name] == summary
            verdict = "matches pins.json" if same else "DIFFERS from pins.json"
            status |= not same
        print(f"[{name}] seed {args.seed}, {args.seconds} s: {verdict}\n"
              f"{json.dumps(summary, indent=2)}")
    if args.write_pins:
        reference.write_pins(args.seed, args.seconds, {**pinned, **computed})
        print(f"wrote {reference.PINS_PATH}")
    return int(status)


def selftest() -> int:
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"), top_level_dir=str(HERE))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="sizes the closed (40%%) and open (60%%) phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 = per-layer metrics from an extra traced run")
    parser.add_argument("--out", metavar="FILE", help="write the full report as JSON")
    parser.add_argument("--verify", action="store_true",
                        help="replay the inputs in process and print the pins; no serving")
    parser.add_argument("--write-pins", action="store_true",
                        help="with --verify: store the replayed pins in pins.json")
    parser.add_argument("--selftest", action="store_true", help="run the unit tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.write_pins and not args.verify:
        parser.error("--write-pins needs --verify")
    if args.selftest:
        return selftest()
    if args.verify:
        return verify(args)
    try:
        return asyncio.run(_main_async(args))
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("interrupted; every spawned server was stopped", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
