"""Order statistics shared by the benchmark driver and the compare tool.

Percentiles use the nearest-rank definition on the sorted samples, so a
reported p90 is always a latency some request actually saw, and every
percentile comes with the number of samples beyond it: a p99 over 150
samples rests on one request and says little (the choosing-metrics
guide asks for at least ten).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["percentile", "percentile_summary", "quartiles", "spread"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of sorted samples."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[rank - 1]


def percentile_summary(values: Sequence[float], qs=(50, 90, 99)) -> dict:
    """``{"pQ": value, "pQ_beyond": samples above the rank, "samples": n}``."""
    ordered = sorted(values)
    out: dict = {"samples": len(ordered)}
    for q in qs:
        out[f"p{q}"] = percentile(ordered, q)
        out[f"p{q}_beyond"] = len(ordered) - math.ceil(q / 100 * len(ordered))
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
