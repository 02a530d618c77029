"""A process-local registry of labeled counters, gauges and histograms.

Prometheus-shaped but in-process: a metric is a name plus a label set
(``counter("kernel.runs", kernel="tc")``), each distinct label
combination is its own series, and the registry exports everything as a
plain JSON-able dict that merges associatively — counters and histogram
buckets add, gauges last-write-win — so per-kernel metric dicts collected
from worker processes fold into one suite view.

Export schema (``MetricsRegistry.as_dict``)::

    {"counters":   {"kernel.runs{kernel=tc}": 3.0, ...},
     "gauges":     {"kernel.execute_seconds{kernel=tc}": 0.41, ...},
     "histograms": {"executor.queue_wait_seconds": {
         "count": 8, "sum": 0.93, "buckets": {"0.001": 0, ..., "inf": 8}}}}
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReproError

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)


def series_name(name: str, labels: dict[str, object]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram with count and sum."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def as_dict(self) -> dict:
        buckets = {str(bound): count
                   for bound, count in zip(self.bounds, self.bucket_counts)}
        buckets["inf"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Holds every series created through it; see the module docstring
    for the export schema.

    Series creation, export and merge are guarded by an internal lock,
    so worker threads (the serve layer's pool) may record into one
    registry concurrently.  The returned metric objects themselves are
    intentionally lock-free — ``inc``/``set``/``observe`` stay cheap;
    callers that need exact cross-thread counts serialize their own
    updates (the service increments its counters under its queue lock).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = series_name(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = series_name(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        key = series_name(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(bounds)
        return metric

    def as_dict(self) -> dict:
        """JSON-able export; empty sections are omitted."""
        out: dict = {}
        with self._lock:
            if self._counters:
                out["counters"] = {k: c.value
                                   for k, c in self._counters.items()}
            if self._gauges:
                out["gauges"] = {k: g.value for k, g in self._gauges.items()}
            if self._histograms:
                out["histograms"] = {k: h.as_dict()
                                     for k, h in self._histograms.items()}
        return out

    def merge_dict(self, exported: dict) -> None:
        """Fold an :meth:`as_dict` export into this registry (counters
        and histogram buckets add; gauges overwrite)."""
        with self._lock:
            merged = merge(self.as_dict(), exported)
            self._counters = {k: _counter_at(v)
                              for k, v in merged.get("counters", {}).items()}
            self._gauges = {k: _gauge_at(v)
                            for k, v in merged.get("gauges", {}).items()}
            self._histograms = {
                k: _histogram_from(v)
                for k, v in merged.get("histograms", {}).items()
            }


def _counter_at(value: float) -> Counter:
    metric = Counter()
    metric.value = value
    return metric


def _gauge_at(value: float) -> Gauge:
    metric = Gauge()
    metric.value = value
    return metric


def _histogram_from(payload: dict) -> Histogram:
    bounds = tuple(sorted(
        float(b) for b in payload["buckets"] if b != "inf"
    ))
    metric = Histogram(bounds)
    metric.count = payload["count"]
    metric.sum = payload["sum"]
    metric.bucket_counts = [payload["buckets"][str(b)] for b in bounds]
    metric.bucket_counts.append(payload["buckets"].get("inf", 0))
    return metric


def merge(left: dict, right: dict) -> dict:
    """Associatively merge two :meth:`MetricsRegistry.as_dict` exports."""
    out: dict = {}
    counters = dict(left.get("counters", {}))
    for key, value in right.get("counters", {}).items():
        counters[key] = counters.get(key, 0.0) + value
    if counters:
        out["counters"] = counters
    gauges = dict(left.get("gauges", {}))
    gauges.update(right.get("gauges", {}))
    if gauges:
        out["gauges"] = gauges
    histograms = {k: _copy_hist(v)
                  for k, v in left.get("histograms", {}).items()}
    for key, payload in right.get("histograms", {}).items():
        if key not in histograms:
            histograms[key] = _copy_hist(payload)
            continue
        target = histograms[key]
        if set(target["buckets"]) != set(payload["buckets"]):
            raise ReproError(f"histogram {key!r} bucket bounds differ")
        target["count"] += payload["count"]
        target["sum"] += payload["sum"]
        for bound, count in payload["buckets"].items():
            target["buckets"][bound] += count
    if histograms:
        out["histograms"] = histograms
    return out


def _copy_hist(payload: dict) -> dict:
    return {"count": payload["count"], "sum": payload["sum"],
            "buckets": dict(payload["buckets"])}


def quantile_estimate(payload: dict, q: float) -> float:
    """q-quantile estimate from an exported histogram.

    Interpolates linearly within the bucket containing the q-th
    observation (lower edge = previous finite bound, 0.0 for the first
    bucket), so p50/p95/p99 move smoothly instead of snapping to bucket
    bounds.  Observations landing in the +Inf overflow bucket clamp to
    the largest finite bound — an estimate can understate an extreme
    tail but never reports ``inf``.  An empty histogram estimates 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ReproError("quantile must be in [0, 1]")
    count = payload["count"]
    if count == 0:
        return 0.0
    bounds = sorted((b for b in payload["buckets"] if b != "inf"), key=float)
    target = q * count
    cumulative = 0
    lower = 0.0
    for bound in bounds:
        in_bucket = payload["buckets"][bound]
        if in_bucket > 0 and cumulative + in_bucket >= target:
            upper = float(bound)
            fraction = (target - cumulative) / in_bucket
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += in_bucket
        lower = float(bound)
    # Only overflow observations remain past the finite bounds: clamp.
    return lower if bounds else math.inf


# -- the process-current registry ----------------------------------------

_current = MetricsRegistry()


def current_registry() -> MetricsRegistry:
    return _current


@contextmanager
def use(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install *registry* as current for the duration of the block."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous


def counter(name: str, **labels: object) -> Counter:
    """``current_registry().counter(...)`` convenience."""
    return _current.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return _current.gauge(name, **labels)


def histogram(name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS,
              **labels: object) -> Histogram:
    return _current.histogram(name, bounds, **labels)
