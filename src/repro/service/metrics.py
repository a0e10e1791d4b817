"""Dependency-free metrics registry for the ops plane.

The paper's central object is a *cost trajectory* — message complexity
against an offline bound — and this module is what makes that (plus
throughput, latency percentiles, queue depths, batching efficiency) a
*live* signal instead of a post-hoc summary.  Four instrument kinds,
all plain Python (stdlib only, importable from every service module
without cycles):

- :class:`Counter` — monotonic totals (requests, steps ingested,
  batched ticks).  Never decremented; the fleet aggregation below
  relies on that.
- :class:`Gauge` — point-in-time levels (live sessions, executor
  in-flight, link-pool occupancy).  Registry-level *gauge functions*
  sample a callable at dump time, so queue depths need no write on the
  hot path at all.
- :class:`Histogram` — fixed-bucket latency distributions with
  p50/p95/p99 readout via :func:`histogram_percentiles` (bucket
  interpolation — no per-observation storage).
- :class:`RingSeries` — bounded ring-buffer time series, the dashboard
  food: per-session cumulative message cost and ``F(t)`` change
  counts, fleet steps-ingested over time.

A :class:`MetricsRegistry` owns one namespace of keyed instruments.
Keys are rendered Prometheus sample names — ``repro_requests_total``
or ``repro_op_latency_seconds{op="feed"}`` — so a registry
:meth:`~MetricsRegistry.dump` is JSON-ready for the wire and
:func:`render_prometheus` needs no schema beyond the dump itself.

**Enabled flag.**  ``registry.enabled`` gates the *optional* telemetry
(per-op histograms, ring series); instruments themselves never check
it — call sites do, so the disabled path is a single attribute read.
The five legacy ``stats`` counters always count (they are part of
``ping``/``shutdown`` reply shapes).  Toggling is observably
transparent: instruments never touch session state, which the stateful
fuzz tier's metrics rule checks differentially.

**Fleet aggregation.**  The shard supervisor merges worker dumps into
a fleet view with :func:`merge_into`/:func:`relabel`.  Worker restarts
reset worker-side counters to zero; :class:`GenerationAggregator`
keeps per-shard ``carry + last`` totals keyed by the worker's
*generation* tag, so supervisor-side fleet counters are monotone
across ``restart_shard`` instead of silently resetting (the standard
counter-reset handling, done at the aggregation point).
"""

from __future__ import annotations

import re as _re
from collections import deque
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "GenerationAggregator",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RingSeries",
    "StatsView",
    "histogram_percentiles",
    "lint_exposition",
    "merge_into",
    "new_dump",
    "relabel",
    "render_prometheus",
    "summarize",
]

#: Default latency bucket upper bounds, in seconds.  Spans sub-ms
#: inline ops to multi-second executor stalls; the implicit final
#: bucket is +inf.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default ring-series capacity (points, not bytes).
SERIES_MAXLEN = 512


class Counter:
    """A monotonic counter.  ``value`` is directly readable."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level; settable, incrementable, decrementable."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram: counts per ``le`` bound, plus sum/count.

    ``counts`` has ``len(bounds) + 1`` cells — the last is the +inf
    bucket.  Observation is two comparisons-ish (bisection is overkill
    for ~14 buckets; a linear scan stays cache-hot and branch-cheap).
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class RingSeries:
    """A bounded ``(x, y)`` time series (oldest points fall off)."""

    __slots__ = ("_points",)

    def __init__(self, maxlen: int = SERIES_MAXLEN) -> None:
        self._points: deque[tuple[float, float]] = deque(maxlen=maxlen)

    def append(self, x: float, y: float) -> None:
        self._points.append((x, y))

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> tuple[list[float], list[float]]:
        snapshot = list(self._points)
        return [p[0] for p in snapshot], [p[1] for p in snapshot]


def _key(name: str, labels: dict[str, Any]) -> str:
    """Render an instrument key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`_key` (label values must not contain ``"`` )."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value.strip('"')
    return name, labels


class MetricsRegistry:
    """One namespace of keyed instruments plus the enabled switch."""

    def __init__(self, *, enabled: bool = True) -> None:
        #: Gates the optional telemetry (histograms, series) at call
        #: sites; the core request/step counters always count.
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, RingSeries] = {}
        self._gauge_fns: dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------ #
    # Instrument accessors (get-or-create; cache the result on hot paths)
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS, **labels: Any
    ) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    def series(
        self, name: str, maxlen: int = SERIES_MAXLEN, **labels: Any
    ) -> RingSeries:
        key = _key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = RingSeries(maxlen)
        return instrument

    def drop_series(self, name: str, **labels: Any) -> None:
        """Forget a series (finished sessions must not leak slots)."""
        self._series.pop(_key(name, labels), None)

    def register_gauge_fn(
        self, name: str, fn: Callable[[], float], **labels: Any
    ) -> None:
        """Sample ``fn`` at dump time (queue depths, pool occupancy)."""
        self._gauge_fns[_key(name, labels)] = fn

    # ------------------------------------------------------------------ #
    # Snapshot
    # ------------------------------------------------------------------ #
    def dump(self) -> dict[str, Any]:
        """JSON-ready snapshot: the wire form of this registry."""
        gauges = {key: gauge.value for key, gauge in self._gauges.items()}
        for key, fn in self._gauge_fns.items():
            try:
                gauges[key] = float(fn())
            except Exception:
                pass  # a sampling failure must never fail the scrape
        return {
            "enabled": self.enabled,
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": gauges,
            "histograms": {
                key: {
                    "le": list(hist.bounds),
                    "counts": list(hist.counts),
                    "sum": hist.sum,
                    "count": hist.count,
                }
                for key, hist in self._histograms.items()
            },
            "series": {
                key: dict(zip(("x", "y"), series.points()))
                for key, series in self._series.items()
            },
        }


class StatsView(Mapping):
    """A dict-shaped live view over registry counters.

    Backs the legacy ``MonitoringServer.stats`` attribute: the reply
    shapes of ``ping`` and ``shutdown`` carry ``dict(self.stats)`` and
    several call sites mutate keys in place (``stats["requests"] += 1``)
    — both keep working, but the numbers now live in (and never drift
    from) the metrics registry.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters: dict[str, Counter]) -> None:
        self._counters = counters

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __setitem__(self, key: str, value: int) -> None:
        self._counters[key].value = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return repr({k: c.value for k, c in self._counters.items()})


# ---------------------------------------------------------------------- #
# Dump algebra: merge, relabel, aggregate across worker generations
# ---------------------------------------------------------------------- #
def new_dump(*, enabled: bool = True) -> dict[str, Any]:
    """An empty dump, the identity element of :func:`merge_into`."""
    return {
        "enabled": enabled,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "series": {},
    }


def merge_into(target: dict[str, Any], dump: dict[str, Any]) -> dict[str, Any]:
    """Fold ``dump`` into ``target`` in place (and return ``target``).

    Counters and histogram cells add; gauges add too (pool occupancy
    and queue depths are extensive quantities across shards); series
    merge by key (last writer wins — fleet series are shard-labelled,
    so collisions only happen when the caller wants replacement).
    """
    for key, value in dump.get("counters", {}).items():
        target["counters"][key] = target["counters"].get(key, 0) + value
    for key, value in dump.get("gauges", {}).items():
        target["gauges"][key] = target["gauges"].get(key, 0) + value
    for key, hist in dump.get("histograms", {}).items():
        into = target["histograms"].get(key)
        if into is None or into["le"] != hist["le"]:
            target["histograms"][key] = {
                "le": list(hist["le"]),
                "counts": list(hist["counts"]),
                "sum": hist["sum"],
                "count": hist["count"],
            }
            continue
        into["counts"] = [a + b for a, b in zip(into["counts"], hist["counts"])]
        into["sum"] += hist["sum"]
        into["count"] += hist["count"]
    for key, series in dump.get("series", {}).items():
        target["series"][key] = series
    return target


def relabel(dump: dict[str, Any], **labels: Any) -> dict[str, Any]:
    """A copy of ``dump`` with ``labels`` appended to every key."""
    out = new_dump(enabled=dump.get("enabled", True))

    def rekey(key: str) -> str:
        name, existing = split_key(key)
        return _key(name, {**existing, **labels})

    out["counters"] = {rekey(k): v for k, v in dump.get("counters", {}).items()}
    out["gauges"] = {rekey(k): v for k, v in dump.get("gauges", {}).items()}
    out["histograms"] = {rekey(k): v for k, v in dump.get("histograms", {}).items()}
    out["series"] = {rekey(k): v for k, v in dump.get("series", {}).items()}
    return out


def _monotone_slice(dump: dict[str, Any]) -> dict[str, Any]:
    """Just the parts that only ever grow (counters + histograms)."""
    out = new_dump(enabled=dump.get("enabled", True))
    out["counters"] = dict(dump.get("counters", {}))
    out["histograms"] = {
        key: {
            "le": list(h["le"]), "counts": list(h["counts"]),
            "sum": h["sum"], "count": h["count"],
        }
        for key, h in dump.get("histograms", {}).items()
    }
    return out


class GenerationAggregator:
    """Monotone per-shard totals across worker process restarts.

    Each shard worker's registry dies with its process; the supervisor
    feeds every scraped dump in here tagged with the worker's
    *generation* (its process id, so every restart starts a new one).
    On a generation change the previous dump's monotone slice is folded
    into a carried base, so ``shard_totals()`` — ``carry + last`` —
    never decreases even though the fresh worker restarts from zero.
    """

    def __init__(self) -> None:
        self._carry: dict[int, dict[str, Any]] = {}
        self._last: dict[int, dict[str, Any]] = {}
        self._generation: dict[int, int] = {}

    def update(self, shard: int, generation: int, dump: dict[str, Any]) -> None:
        """Record one scraped worker dump under its generation tag."""
        previous = self._generation.get(shard)
        if previous is not None and previous != generation and shard in self._last:
            carry = self._carry.setdefault(shard, new_dump())
            merge_into(carry, _monotone_slice(self._last[shard]))
            del self._last[shard]
        self._generation[shard] = generation
        self._last[shard] = dump

    def shard_totals(self) -> dict[int, dict[str, Any]]:
        """Per-shard ``carry + last`` dumps (gauges/series from last)."""
        out: dict[int, dict[str, Any]] = {}
        for shard in set(self._carry) | set(self._last):
            total = new_dump()
            if shard in self._carry:
                merge_into(total, self._carry[shard])
            last = self._last.get(shard)
            if last is not None:
                merge_into(total, last)
            out[shard] = total
        return out


# ---------------------------------------------------------------------- #
# Readouts: percentiles, JSON summary, Prometheus text exposition
# ---------------------------------------------------------------------- #
def histogram_percentiles(
    hist: dict[str, Any], quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
) -> dict[str, float]:
    """Interpolated quantiles from a histogram dump cell.

    Linear interpolation inside the owning bucket (Prometheus
    ``histogram_quantile`` semantics); the +inf bucket reports its
    lower bound — an unbounded estimate would be a lie.
    """
    count = hist["count"]
    out = {}
    bounds = list(hist["le"])
    counts = list(hist["counts"])
    for q in quantiles:
        label = f"p{int(q * 100)}"
        if count == 0:
            out[label] = 0.0
            continue
        rank = q * count
        cumulative = 0
        value = bounds[-1] if bounds else 0.0
        for i, cell in enumerate(counts):
            if cumulative + cell >= rank and cell:
                lower = bounds[i - 1] if i > 0 else 0.0
                if i >= len(bounds):  # the +inf bucket
                    value = bounds[-1] if bounds else 0.0
                else:
                    upper = bounds[i]
                    value = lower + (upper - lower) * (rank - cumulative) / cell
                break
            cumulative += cell
        out[label] = value
    return out


def summarize(dump: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``dump`` with p50/p95/p99 added to every histogram."""
    out = {**dump, "histograms": {}}
    for key, hist in dump.get("histograms", {}).items():
        out["histograms"][key] = {**hist, **histogram_percentiles(hist)}
    return out


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(dump: dict[str, Any]) -> str:
    """Render a dump in the Prometheus text exposition format (0.0.4).

    Ring series have no exposition form and are skipped — they live in
    the JSON ``/stats`` surface and the SSE watch channel.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(dump.get("counters", {})):
        name, _ = split_key(key)
        declare(name, "counter")
        lines.append(f"{key} {_format_value(dump['counters'][key])}")
    for key in sorted(dump.get("gauges", {})):
        name, _ = split_key(key)
        declare(name, "gauge")
        lines.append(f"{key} {_format_value(dump['gauges'][key])}")
    for key in sorted(dump.get("histograms", {})):
        hist = dump["histograms"][key]
        name, labels = split_key(key)
        declare(name, "histogram")
        cumulative = 0
        for bound, cell in zip(
            [*hist["le"], "+Inf"], hist["counts"]
        ):
            cumulative += cell
            bucket_labels = {**labels, "le": bound}
            lines.append(f"{_key(name + '_bucket', bucket_labels)} {cumulative}")
        lines.append(f"{_key(name + '_sum', labels)} {_format_value(hist['sum'])}")
        lines.append(f"{_key(name + '_count', labels)} {hist['count']}")
    return "\n".join(lines) + "\n"


#: One exposition sample line: name, optional {labels}, numeric value.
_SAMPLE_RE = _re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"{}]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"{}]*\")*\})?"
    r" (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$"
)


def lint_exposition(text: str) -> list[str]:
    """Check Prometheus text exposition shape; returns problem strings.

    Empty list = clean.  Checks the line grammar, that every sample's
    family carries a prior ``# TYPE`` declaration, and that histogram
    bucket counts are cumulative (non-decreasing in ``le`` order).
    """
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    typed: set[str] = set()
    bucket_last: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            elif parts[0] == "#" and (len(parts) < 2 or parts[1] not in ("HELP", "TYPE")):
                problems.append(f"line {lineno}: malformed comment {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        key = line.rsplit(" ", 1)[0]
        name, labels = split_key(key)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no # TYPE")
        if name.endswith("_bucket"):
            series = _key(name, {k: v for k, v in labels.items() if k != "le"})
            value = int(float(line.rsplit(" ", 1)[1]))
            if value < bucket_last.get(series, 0):
                problems.append(
                    f"line {lineno}: bucket counts not cumulative for {series!r}"
                )
            bucket_last[series] = value
    return problems
