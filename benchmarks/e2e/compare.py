"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

Usage::

    python3 benchmarks/e2e/compare.py A/*.json B/*.json

Each file is one ``run.py --out FILE`` report.  Files are grouped by
their directory: the first directory holds the baseline (A), the second
the candidate (B).  One row per (workload, metric) gives each side's
median and quartiles, the change of the median, the bound, and a
verdict:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better by more than the bound and by more
  than A's own inter-quartile distance;
- ``same``: neither;
- ``unresolved``: a side's inter-quartile spread is wider than the
  bound, so the runs cannot tell a change of that size from noise —
  unless every run of B reads better than every run of A.

Per-layer metrics have no bound and get no verdict.  The error rate
(failed ÷ attempted ops) is compared per workload, and runs of the same
seed must report the same ``messages_per_step`` on both sides.  Exits 1
when any row is ``worse``, a message count differs, or B fails more.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: list[str]) -> dict[Path, list[dict]]:
    """Reports grouped by the directory of their file, in argument order."""
    groups: dict[Path, list[dict]] = {}
    for name in paths:
        path = Path(name)
        payload = json.loads(path.read_text())
        groups.setdefault(path.parent.resolve(), []).extend(
            payload if isinstance(payload, list) else [payload])
    return groups


def verdict(a: list[float], b: list[float], bound: float | None, better: str) -> str:
    if bound is None:
        return ""
    sign = 1 if better == "higher" else -1
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spread_a = spread(a)
    if max(spread_a, spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound and change > spread_a:
        return "better"
    return "same"


def compare(base: list[dict], cand: list[dict], spec: dict) -> int:
    bounds = {m["name"]: (m.get("bound"), m["better"])
              for m in spec["end_to_end"] + spec["per_layer"]}
    series: dict[tuple[str, str], tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, reports in enumerate((base, cand)):
        for report in reports:
            for name, cell in report["metrics"].items():
                series[(report["workload"], name)][side].append(cell["value"])
    status = 0
    print(f"{'workload':<14} {'metric':<42} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict")
    for (workload, name), (a, b) in sorted(series.items()):
        if not a or not b:
            continue
        bound, better = bounds.get(name, (None, "higher"))
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        word = verdict(a, b, bound, better)
        status |= word == "worse"
        cells = [f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
        limit = "" if bound is None else f"{bound:.2f}"
        print(f"{workload:<14} {name:<42} {cells[0]:<30} {cells[1]:<30} "
              f"{change:>+8.1%} {limit:>6}  {word}")
    for workload in sorted({r["workload"] for r in base + cand}):
        rates = []
        counts: dict[tuple, tuple[set, set]] = defaultdict(lambda: (set(), set()))
        for side, reports in enumerate((base, cand)):
            mine = [r for r in reports if r["workload"] == workload]
            attempted = sum(r["attempted"] for r in mine)
            rates.append(sum(r["failed"] for r in mine) / attempted if attempted else 0.0)
            for report in mine:
                cell = report["metrics"].get("messages_per_step")
                if cell is not None:
                    counts[(report["seed"], report["seconds"])][side].add(cell["value"])
        print(f"{workload}: error_rate A {rates[0]:.3g}, B {rates[1]:.3g}, "
              f"delta {rates[1] - rates[0]:+.3g}")
        status |= rates[1] > rates[0]
        shared = {key: a | b for key, (a, b) in counts.items() if a and b}
        differing = sorted(key for key, values in shared.items() if len(values) > 1)
        if differing:
            print(f"{workload}: messages_per_step DIFFERS for (seed, seconds) {differing}")
            status = 1
        elif shared:
            print(f"{workload}: messages_per_step identical on {len(shared)} shared seed(s)")
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="run.py --out reports, A's then B's")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK,
                        help="the BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    groups = load(args.files)
    if len(groups) != 2:
        parser.error(f"expected files from exactly two directories, got {len(groups)}")
    base, cand = groups.values()
    return compare(base, cand, json.loads(args.benchmark.read_text()))


if __name__ == "__main__":
    sys.exit(main())
