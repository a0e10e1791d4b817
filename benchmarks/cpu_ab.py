"""Alternating in-process CPU per step: a parent tree against this one.

Served A/B runs on a shared 2-vCPU host drift by tens of percent within
minutes, which hides protocol changes under ~20%.  This check removes
the serving path and the drift between processes: it loads the parent's
``src/repro`` under the package name ``repro_base`` next to this tree's
``repro``, feeds both the same ``benchmarks/e2e`` workload plan through
``Session.feed`` in one process, alternating which side goes first, and
compares CPU time (``time.process_time``) per fed step.  Message totals
must match on every round, so the two sides did the same protocol work.

Usage (``BASE`` is a parent checkout, e.g. made with ``git archive``)::

    PYTHONPATH=src python benchmarks/cpu_ab.py BASE --workload escalating
    PYTHONPATH=src python benchmarks/cpu_ab.py BASE --workload single_quiet --steps 30000

Prints each round's µs per step on both sides and the median
``base / change`` ratio (above 1: the change is cheaper).
"""

from __future__ import annotations

import argparse
import importlib
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, read only)

#: ``repro.x`` and ``from repro import``; a bare ``import repro`` is aliased.
_IMPORT = re.compile(r"\brepro(?=\.|\s+import\b)")
_BARE_IMPORT = re.compile(r"^(\s*)import repro$", re.MULTILINE)


def load_base(base: Path, into: Path):
    """``base/src/repro`` imported as ``repro_base`` (imports rewritten)."""
    target = into / "repro_base"
    shutil.copytree(base / "src" / "repro", target)
    for path in target.rglob("*.py"):
        source = _BARE_IMPORT.sub(r"\1import repro_base as repro", path.read_text())
        path.write_text(_IMPORT.sub("repro_base", source))
    sys.path.insert(0, str(into))
    return importlib.import_module("repro_base.service.session")


def cpu_per_step(session_mod, w, data, seed: int, steps: int) -> tuple[float, int]:
    sessions = [
        session_mod.Session(session_mod.SessionConfig(**workloads.session_spec(w, seed, i)))
        for i in range(len(data))
    ]
    for session, rows in zip(sessions, data):  # the costly first step
        session.feed(np.ascontiguousarray(rows[: w.rows]))
    start = time.process_time()
    for lo in range(w.rows, steps, w.rows):
        for session, rows in zip(sessions, data):
            session.feed(np.ascontiguousarray(rows[lo : lo + w.rows]))
    seconds = time.process_time() - start
    messages = sum(s.engine.ledger.messages for s in sessions)
    return seconds / (len(data) * (steps - w.rows)) * 1e6, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="parent checkout (has src/repro)")
    parser.add_argument("--workload", default="escalating", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=2000, help="steps per session per round")
    parser.add_argument("--sessions", type=int, default=4, help="at most this many sessions")
    parser.add_argument("--seed", type=int, default=5, help="stream seed")
    args = parser.parse_args()

    from repro.service import session as change

    w = workloads.WORKLOADS[args.workload]
    data = workloads.generate(w, args.seed, args.steps)[: min(w.sessions, args.sessions)]
    with tempfile.TemporaryDirectory() as scratch:
        base = load_base(args.base.resolve(), Path(scratch))
        ratios = []
        for r in range(args.rounds):
            sides = [("base", base), ("change", change)]
            us = {}
            for label, mod in sides if r % 2 == 0 else sides[::-1]:
                us[label] = cpu_per_step(mod, w, data, 100 + r, args.steps)
            if us["base"][1] != us["change"][1]:
                print(f"round {r}: message totals differ: {us}", file=sys.stderr)
                return 1
            ratios.append(us["base"][0] / us["change"][0])
            print(
                f"round {r}: base {us['base'][0]:.1f} µs/step, "
                f"change {us['change'][0]:.1f} µs/step, x{ratios[-1]:.3f}",
                flush=True,
            )
    print(f"median x{statistics.median(ratios):.3f} (min {min(ratios):.3f}, max {max(ratios):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
