"""``python -m repro.service`` — ops-plane terminal tools.

One subcommand so far::

    python -m repro.service top --port 8181 [--host H] [--interval 2]

``top`` polls a running server's admin plane (``GET /stats``, see
:mod:`repro.service.admin`) and renders a live terminal dashboard:
fleet counters, per-shard link/forward gauges, op latency percentiles,
and sparkline F(t)/cost series straight from the registry's ring
buffers.  Pure stdlib (urllib + ANSI clears); ``--once`` prints a
single frame for scripts and tests.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any

from repro.service import metrics as metricslib

#: Eighth-block glyphs, the classic terminal sparkline alphabet.
_SPARK = " ▁▂▃▄▅▆▇█"


def fetch_stats(host: str, port: int, timeout: float = 5.0) -> dict[str, Any]:
    """One ``GET /stats`` against the admin plane."""
    url = f"http://{host}:{port}/stats"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def sparkline(values: list[float], width: int = 48) -> str:
    """Render a series tail as one line of block glyphs."""
    if not values:
        return "(no data)"
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    span = (hi - lo) or 1.0
    return "".join(
        _SPARK[1 + int((v - lo) / span * (len(_SPARK) - 2))] for v in tail
    )


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def render_stats(stats: dict[str, Any], width: int = 78) -> str:
    """One dashboard frame from a ``/stats`` payload (pure; testable)."""
    dump = stats.get("metrics", {})
    counters = dump.get("counters", {})
    gauges = dump.get("gauges", {})
    histograms = dump.get("histograms", {})
    series = dump.get("series", {})

    lines = []
    shards = stats.get("shards")
    topology = f"{shards} shards" if shards is not None else "single process"
    lines.append(
        f"repro fleet · {topology} · {stats.get('sessions', 0)} sessions · "
        f"metrics {'on' if stats.get('enabled') else 'off'}"
    )
    lines.append("─" * width)

    def total(name: str) -> int:
        # Fleet view: the bare supervisor counter plus shard-labelled ones.
        out = 0
        for key, value in counters.items():
            base, _ = metricslib.split_key(key)
            if base == name:
                out += value
        return out

    lines.append(
        f"requests {_fmt(total('repro_requests_total'))}   "
        f"steps {_fmt(total('repro_steps_ingested_total'))}"
    )

    # Per-shard gauges (sharded topologies only).
    by_shard: dict[str, list[str]] = {}
    for key, value in sorted(gauges.items()):
        name, labels = metricslib.split_key(key)
        if "shard" in labels and name == "repro_forward_inflight":
            by_shard.setdefault(labels["shard"], []).append(f"in flight {_fmt(value)}")
    for key, hist in sorted(histograms.items()):
        name, labels = metricslib.split_key(key)
        if name == "repro_forward_seconds" and "shard" in labels:
            p95 = hist.get("p95")
            if p95 is None:
                p95 = metricslib.histogram_percentiles(hist)["p95"]
            by_shard.setdefault(labels["shard"], []).append(
                f"fwd p95 {p95 * 1000:.2f}ms ({_fmt(hist['count'])} calls)"
            )
    if by_shard:
        lines.append("")
        for shard in sorted(by_shard, key=lambda s: (len(s), s)):
            lines.append(f"  shard {shard}: " + " · ".join(by_shard[shard]))

    # Op latency percentiles (the supervisor-/server-local view).
    rows = []
    for key, hist in sorted(histograms.items()):
        name, labels = metricslib.split_key(key)
        if name != "repro_op_latency_seconds" or not hist.get("count"):
            continue
        pct = {
            q: hist.get(q) if hist.get(q) is not None else p
            for q, p in metricslib.histogram_percentiles(hist).items()
        }
        rows.append(
            f"  {labels.get('op', '?'):<9} {_fmt(hist['count']):>9}  "
            f"{pct['p50'] * 1000:>8.2f} {pct['p95'] * 1000:>8.2f} "
            f"{pct['p99'] * 1000:>8.2f}"
        )
    if rows:
        lines.append("")
        lines.append(f"  {'op':<9} {'requests':>9}  {'p50ms':>8} {'p95ms':>8} {'p99ms':>8}")
        lines.extend(rows)

    # Sparkline series: fleet ingest curve, then per-session cost/F(t).
    def spark_row(label: str, key: str) -> None:
        data = series.get(key) or {}
        ys = data.get("y") or []
        if ys:
            lines.append(f"  {label:<26} {sparkline(ys)}  now {_fmt(ys[-1])}")

    named = sorted(series)
    shown = 0
    if named:
        lines.append("")
        spark_row("steps ingested", "repro_steps_ingested_series")
        for key in named:
            name, labels = metricslib.split_key(key)
            if name == "repro_session_cost" and shown < 4:
                sid = labels.get("session", "?")
                spark_row(f"cost {sid}", key)
                spark_row(
                    f"F(t) changes {sid}",
                    f'repro_session_fchanges{{session="{sid}"}}',
                )
                shown += 1
    return "\n".join(lines)


def main_top(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service top",
        description="Live terminal dashboard over a server's admin plane.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="the server's --admin-port")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls")
    parser.add_argument("--iterations", type=int, default=0,
                        help="stop after N frames (0 = until interrupted)")
    parser.add_argument("--once", action="store_true",
                        help="print a single frame and exit (no ANSI clears)")
    parser.add_argument("--width", type=int, default=78)
    args = parser.parse_args(argv)

    frames = 1 if args.once else args.iterations
    count = 0
    try:
        while True:
            try:
                stats = fetch_stats(args.host, args.port)
            except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
                print(f"admin plane unreachable at "
                      f"{args.host}:{args.port}: {exc}", file=sys.stderr)
                return 1
            frame = render_stats(stats, width=args.width)
            if args.once or frames:
                print(frame)
            else:
                # Clear + home, then the frame: flicker-free enough for a
                # diagnostic top, no curses dependency.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
            count += 1
            if frames and count >= frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    if argv[0] == "top":
        return main_top(argv[1:])
    print(f"unknown subcommand {argv[0]!r} (expected: top)", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
