"""Counters, gauges and streaming histograms behind one registry.

The paper's evaluation (§7, Tables 1-3) is built on per-request timing
broken down by tier; HEDC's operators could follow the "moving target"
only because the middle tier was measurable.  :class:`MetricsRegistry`
is that instrument panel: a thread-safe, label-aware family of

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — last-value readings (pool sizes, cache sizes);
* :class:`Histogram` — streaming latency distributions with
  fixed-bucket quantile estimation (p50/p95/p99 without storing
  samples).

Metrics are identified by ``(name, labels)``; asking the registry for an
existing identity returns the same object, so instrumentation sites can
re-resolve metrics cheaply or hold on to them.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

LabelKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(name: str, labels: dict[str, str]) -> LabelKey:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class NoData(float):
    """Typed "no observations" sentinel for quantile/windowed queries.

    An empty histogram used to answer ``quantile()`` with ``0.0`` — a
    value indistinguishable from a genuinely instant operation, which is
    exactly the wrong thing for an SLO evaluator or a dashboard to act
    on.  ``NO_DATA`` is a NaN-valued ``float`` subclass, so:

    * arithmetic propagates (NaN) instead of silently reading as zero;
    * it is *falsy* (``if p95:`` skips it) and never compares equal to
      any number, including itself — standard NaN semantics;
    * callers that care can test identity: ``value is NO_DATA``.

    JSON exports render it as ``null`` (see :meth:`Histogram.snapshot`).
    """

    _singleton: Optional["NoData"] = None

    def __new__(cls) -> "NoData":
        if cls._singleton is None:
            cls._singleton = float.__new__(cls, "nan")
        return cls._singleton

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NO_DATA"


#: The shared no-data sentinel instance.
NO_DATA = NoData()


def default_latency_buckets() -> list[float]:
    """Geometric bucket bounds from 10 µs to ~84 s (factor √10 per 2)."""
    return [1e-5 * math.sqrt(10.0) ** i for i in range(14)]


class Metric:
    """Shared identity: a name plus a small, sorted label set."""

    kind = "metric"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = {str(k): str(v) for k, v in labels.items()}
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "labels": dict(self.labels), "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge(Metric):
    """A last-value reading that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "labels": dict(self.labels), "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(Metric):
    """A streaming distribution over fixed bucket bounds.

    ``bounds`` are the *upper* edges of the inner buckets; observations
    above the last bound land in an overflow bucket.  Quantiles are
    estimated by linear interpolation inside the covering bucket, with
    the observed min/max tightening the outermost buckets — accurate to
    a bucket width, which is what an operator dashboard needs.

    **Exemplars** link buckets back to traces: an observation made with
    ``exemplar=(trace_id, span_id)`` claims its bucket's exemplar slot
    when it is the largest value seen there, so a latency spike on a
    dashboard resolves directly to the trace tree (and slow-log entry)
    that caused it.  Observations without an exemplar pay one ``is None``
    check.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        bounds: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, labels)
        self.bounds = sorted(bounds) if bounds else default_latency_buckets()
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        # bucket index -> (value, trace_id, span_id) of the max observation
        self._exemplars: dict[int, tuple[float, int, int]] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(
        self, value: float, exemplar: Optional[tuple[int, int]] = None
    ) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = self._bucket_index(value)
            self._counts[index] += 1
            if exemplar is not None:
                slot = self._exemplars.get(index)
                if slot is None or value >= slot[0]:
                    self._exemplars[index] = (value, exemplar[0], exemplar[1])

    def exemplars(self) -> list[dict]:
        """Per-bucket exemplars: bucket upper bound, max value seen with a
        trace attached, and the trace/span IDs to resolve it."""
        with self._lock:
            return self._exemplar_slots()

    def _exemplar_slots(self) -> list[dict]:
        bounds = self.bounds
        return [
            {
                "le": bounds[index] if index < len(bounds) else None,
                "value": value,
                "trace_id": trace_id,
                "span_id": span_id,
            }
            for index, (value, trace_id, span_id) in sorted(self._exemplars.items())
        ]

    def bucket_counts(self) -> tuple[int, ...]:
        """Cumulative-free per-bucket counts (inner buckets + overflow),
        snapshotted under the lock — what the time-series collector
        samples to answer windowed queries later."""
        with self._lock:
            return tuple(self._counts)

    def _bucket_index(self, value: float) -> int:
        # NaN compares false with every bound: it goes to the overflow.
        return len(self.bounds) if value != value else bisect_left(self.bounds, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from the buckets.

        Returns :data:`NO_DATA` when the histogram is empty (fresh or
        just reset) — a typed sentinel, not a misleading ``0.0``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            return self._quantile_unlocked(q)

    def snapshot(self) -> dict:
        with self._lock:
            empty = self.count == 0

            def _q(q: float):
                # JSON-friendly: null, never NaN, for an empty histogram.
                return None if empty else self._quantile_unlocked(q)

            snapshot = {
                "type": self.kind,
                "labels": dict(self.labels),
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": None if empty else self.mean,
                "p50": _q(0.50),
                "p95": _q(0.95),
                "p99": _q(0.99),
            }
            if self._exemplars:
                snapshot["exemplars"] = self._exemplar_slots()
            return snapshot

    def _quantile_unlocked(self, q: float) -> float:
        # snapshot() already holds the lock; re-implement without it.
        if self.count == 0:
            return NO_DATA
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            lower = self.bounds[index - 1] if index > 0 else self.min
            upper = self.bounds[index] if index < len(self.bounds) else self.max
            lower = self.min if self.min is not None and lower < self.min else lower
            upper = self.max if self.max is not None and upper > self.max else upper
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max if self.max is not None else NO_DATA

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._exemplars.clear()
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None


class MetricsRegistry:
    """Thread-safe, get-or-create home for every metric family."""

    def __init__(self) -> None:
        self._metrics: dict[LabelKey, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, labels: dict[str, str], **kwargs) -> Metric:
        key = _label_key(name, labels)
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, bounds=bounds)

    # -- reading ---------------------------------------------------------------

    def get(self, name: str, **labels: str) -> Optional[Metric]:
        return self._metrics.get(_label_key(name, labels))

    def value(self, name: str, **labels: str) -> float:
        """Counter/gauge value, or 0 when the metric does not exist yet."""
        metric = self.get(name, **labels)
        return getattr(metric, "value", 0) if metric is not None else 0

    def family(self, name: str) -> list[Metric]:
        """Every metric sharing ``name``, across label sets."""
        with self._lock:
            return [m for m in self._metrics.values() if m.name == name]

    def family_total(self, name: str) -> float:
        """Sum of counter/gauge values across a family's label sets."""
        return sum(getattr(m, "value", 0) for m in self.family(name))

    def metrics(self) -> list[Metric]:
        with self._lock:
            return sorted(
                self._metrics.values(), key=lambda m: (m.name, sorted(m.labels.items()))
            )

    def names(self) -> list[str]:
        with self._lock:
            return sorted({m.name for m in self._metrics.values()})

    def snapshot(self) -> dict[str, list[dict]]:
        """A JSON-ready view: metric name -> per-label-set snapshots."""
        result: dict[str, list[dict]] = {}
        for metric in self.metrics():
            result.setdefault(metric.name, []).append(metric.snapshot())
        return result

    def reset(self) -> None:
        """Zero every metric (identities survive, handles stay valid)."""
        with self._lock:
            metrics: Iterable[Metric] = list(self._metrics.values())
        for metric in metrics:
            metric.reset()
