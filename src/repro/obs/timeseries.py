"""Retained telemetry: bounded ring-buffer time series over the registry.

The paper's §7 operations story is an archive team watching a *moving
target* over years; a point-in-time ``/hedc/metrics`` snapshot cannot
show movement.  This module keeps *history* — without ever touching the
hot path:

* :class:`TimeSeriesStore` — per-metric ring buffers in resolution/
  retention **tiers** (default 1 s × 5 min fine, 15 s × 1 h coarse), with
  ``delta()``, ``rate()`` and windowed-threshold queries that answer
  :data:`~repro.obs.metrics.NO_DATA` instead of fabricating zeros;
* :class:`TelemetryCollector` — a background thread that *reads* the
  :class:`~repro.obs.metrics.MetricsRegistry` every ``interval_s`` and
  appends the samples.  Instrumented code never writes history; the
  collector-on cost to a hot ``metadb`` execute is guarded <5% by
  ``benchmarks/test_timeseries_overhead.py``;
* :func:`sample_runtime` — process gauges (RSS, thread count, GC
  collections, uptime, open WAL handles) refreshed on every collector
  tick and whenever the report tree's ``runtime`` section is read;
* :func:`sparkline` — unicode block rendering for ``/hedc/dashboard``.

Everything is injectable-clock friendly: tests drive
:meth:`TelemetryCollector.sample_once` with explicit timestamps and
never need a real thread.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .metrics import NO_DATA, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hub import Observability

#: Default ring-buffer tiers: ``(resolution_s, retention_s)`` pairs,
#: finest first.  1 s samples for the last five minutes (incident
#: triage), 15 s samples for the last hour (trend spotting).
DEFAULT_TIERS: tuple[tuple[float, float], ...] = ((1.0, 300.0), (15.0, 3600.0))

_LabelsKey = tuple[tuple[str, str], ...]
_SeriesKey = tuple[str, _LabelsKey, str]

_PROCESS_STARTED = time.monotonic()


def _labels_key(labels: dict[str, str]) -> _LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One field's history across every retention tier.

    Each tier is a ``deque(maxlen=retention/resolution)`` of ``(t,
    value)`` points; a sample is appended to a tier only when at least
    one resolution step has passed since the tier's newest point, so the
    coarse tier holds a strided subsample of the fine one.
    """

    __slots__ = ("_tiers", "born")

    def __init__(self, tiers: Sequence[tuple[float, float]]):
        self._tiers: list[tuple[float, deque]] = [
            (resolution, deque(maxlen=max(2, int(retention / resolution))))
            for resolution, retention in tiers
        ]
        #: Timestamp of the very first sample — lets windowed deltas
        #: credit a counter born mid-window with its full value (counters
        #: start at zero, so everything it holds accrued since birth).
        self.born: Optional[float] = None

    def record(self, t: float, value: Any) -> None:
        if self.born is None:
            self.born = t
        for resolution, points in self._tiers:
            if not points or t - points[-1][0] >= resolution - 1e-9:
                points.append((t, value))

    def _pick_tier(self, window_s: Optional[float], now: float) -> deque:
        """The finest tier whose history reaches back to the window
        start (or to the series' birth, whichever is later)."""
        populated = [(res, pts) for res, pts in self._tiers if pts]
        if not populated:
            return deque()
        if window_s is None:
            return populated[0][1]
        start = now - window_s
        birth = min(points[0][0] for _resolution, points in populated)
        target = max(start, birth)
        for resolution, points in populated:
            if points[0][0] <= target + resolution:
                return points
        return populated[-1][1]

    def points(
        self, window_s: Optional[float] = None, now: Optional[float] = None
    ) -> list[tuple[float, Any]]:
        """Points inside the window (all retained points when ``None``),
        led by the last point *at or before* the window start — the
        baseline a delta measures growth from."""
        populated = [points for _resolution, points in self._tiers if points]
        if not populated:
            return []
        if now is None:
            now = max(points[-1][0] for points in populated)
        tier = self._pick_tier(window_s, now)
        if window_s is None:
            return list(tier)
        start = now - window_s
        result: list[tuple[float, Any]] = []
        anchor: Optional[tuple[float, Any]] = None
        for point in tier:
            if point[0] <= start + 1e-9:
                anchor = point
            elif point[0] <= now + 1e-9:
                result.append(point)
        if anchor is not None:
            result.insert(0, anchor)
        return result

    def latest(self) -> Any:
        for _resolution, points in self._tiers:
            if points:
                return points[-1][1]
        return NO_DATA


class TimeSeriesStore:
    """Keyed ring buffers: ``(metric name, labels, field) -> Series``.

    Readers get plain lists/floats; every query that lacks enough points
    to answer honestly returns :data:`NO_DATA`.
    """

    def __init__(self, tiers: Sequence[tuple[float, float]] = DEFAULT_TIERS):
        self.tiers = tuple(tiers)
        self._series: dict[_SeriesKey, Series] = {}
        #: Histogram bucket bounds per (name, labels) — recorded once so
        #: windowed threshold fractions can interpolate.
        self._bounds: dict[tuple[str, _LabelsKey], tuple[float, ...]] = {}
        self._lock = threading.Lock()

    # -- writing (collector only) ---------------------------------------------

    def record(
        self, name: str, labels: dict[str, str], field: str, t: float, value: Any
    ) -> None:
        key = (name, _labels_key(labels), field)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, Series(self.tiers))
        series.record(t, value)

    def record_bounds(
        self, name: str, labels: dict[str, str], bounds: Sequence[float]
    ) -> None:
        self._bounds.setdefault((name, _labels_key(labels)), tuple(bounds))

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def names(self) -> list[str]:
        with self._lock:
            return sorted({name for name, _labels, _field in self._series})

    def label_sets(self, name: str) -> list[dict[str, str]]:
        """Every label set a metric family has series for."""
        with self._lock:
            seen = {
                labels for n, labels, _field in self._series if n == name
            }
        return [dict(labels) for labels in sorted(seen)]

    def _get(self, name: str, labels: dict[str, str], field: str) -> Optional[Series]:
        return self._series.get((name, _labels_key(labels), field))

    def series(
        self,
        name: str,
        field: str = "value",
        window_s: Optional[float] = None,
        now: Optional[float] = None,
        **labels: str,
    ) -> list[tuple[float, Any]]:
        found = self._get(name, labels, field)
        return found.points(window_s, now) if found is not None else []

    def latest(self, name: str, field: str = "value", **labels: str) -> Any:
        found = self._get(name, labels, field)
        return found.latest() if found is not None else NO_DATA

    def delta(
        self,
        name: str,
        window_s: float,
        now: Optional[float] = None,
        field: str = "value",
        **labels: str,
    ) -> float:
        """Value change across the window — the counter increment.

        A series *born* inside the window contributes its full value
        (counters start at zero, so everything accrued since birth is
        in-window growth); otherwise two points are needed and the
        answer is anchored at the last sample before the window."""
        found = self._get(name, labels, field)
        if found is None:
            return NO_DATA
        points = found.points(window_s, now)
        if not points:
            return NO_DATA
        end_t, end_value = points[-1]
        reference = now if now is not None else end_t
        if found.born is not None and found.born >= reference - window_s:
            return end_value
        if len(points) < 2:
            return NO_DATA
        return end_value - points[0][1]

    def rate(
        self,
        name: str,
        window_s: float,
        now: Optional[float] = None,
        field: str = "value",
        **labels: str,
    ) -> float:
        """Per-second increase over the window (counters)."""
        points = self.series(name, field=field, window_s=window_s, now=now, **labels)
        if len(points) < 2:
            return NO_DATA
        dt = points[-1][0] - points[0][0]
        if dt <= 0:
            return NO_DATA
        return (points[-1][1] - points[0][1]) / dt

    def family_delta(
        self,
        name: str,
        window_s: float,
        now: Optional[float] = None,
        field: str = "value",
        where: Optional[Callable[[dict[str, str]], bool]] = None,
    ) -> float:
        """Sum of per-label-set deltas across a family, or
        :data:`NO_DATA` when no series could answer."""
        total = 0.0
        answered = False
        for labels in self.label_sets(name):
            if where is not None and not where(labels):
                continue
            change = self.delta(name, window_s, now=now, field=field, **labels)
            if change is NO_DATA:
                continue
            total += change
            answered = True
        return total if answered else NO_DATA

    def bucket_delta(
        self,
        name: str,
        window_s: float,
        now: Optional[float] = None,
        **labels: str,
    ) -> Optional[tuple[tuple[float, ...], list[int]]]:
        """Histogram bucket increments over the window:
        ``(bounds, per-bucket counts)``, or ``None`` without data.

        Like :meth:`delta`, a histogram born inside the window counts
        from all-zero buckets."""
        found = self._get(name, labels, "buckets")
        bounds = self._bounds.get((name, _labels_key(labels)))
        if found is None or bounds is None:
            return None
        points = found.points(window_s, now)
        if not points:
            return None
        end_t, last = points[-1]
        reference = now if now is not None else end_t
        if found.born is not None and found.born >= reference - window_s:
            first: Sequence[int] = (0,) * len(last)
        elif len(points) >= 2:
            first = points[0][1]
        else:
            return None
        return bounds, [max(0, b - a) for a, b in zip(first, last)]

    def window_under(
        self,
        name: str,
        threshold: float,
        window_s: float,
        now: Optional[float] = None,
        **labels: str,
    ) -> tuple[float, float]:
        """``(observations <= threshold, total observations)`` inside the
        window — the latency-SLO numerator/denominator.  The covering
        bucket contributes pro-rata (linear within the bucket)."""
        delta = self.bucket_delta(name, window_s, now=now, **labels)
        if delta is None:
            return NO_DATA, NO_DATA
        bounds, counts = delta
        total = float(sum(counts))
        good = 0.0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else None
            if upper is not None and upper <= threshold:
                good += count
            elif lower < threshold and upper is not None:
                good += count * (threshold - lower) / (upper - lower)
            # overflow bucket (upper None): above every bound -> not good
        return good, total

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._bounds.clear()


# -- process runtime gauges ----------------------------------------------------

def _rss_bytes() -> Optional[int]:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:
            return None


def sample_runtime(obs: "Observability") -> dict[str, Any]:
    """Refresh the ``process.*`` gauges and return their values.

    Called on every collector tick (so the TSDB retains RSS/thread/GC
    history) and synchronously as the report tree's ``runtime`` section
    (so the panel is current even in deployments that never started a
    collector)."""
    report: dict[str, Any] = {}
    rss = _rss_bytes()
    if rss is not None:
        obs.set_gauge("process.rss_bytes", rss)
        report["rss_bytes"] = rss
    threads = threading.active_count()
    obs.set_gauge("process.threads", threads)
    report["threads"] = threads
    collections = {}
    for generation, stats in enumerate(gc.get_stats()):
        count = stats.get("collections", 0)
        obs.set_gauge("process.gc_collections", count, generation=str(generation))
        collections[generation] = count
    report["gc_collections"] = collections
    uptime_s = time.monotonic() - _PROCESS_STARTED
    obs.set_gauge("process.uptime_s", uptime_s)
    report["uptime_s"] = uptime_s
    try:
        # Lazy: repro.metadb imports repro.obs, never the reverse at
        # module scope.
        from ..metadb.wal import open_wal_handles
    except Exception:  # pragma: no cover - partial installs
        pass
    else:
        handles = open_wal_handles()
        obs.set_gauge("process.open_wal_handles", handles)
        report["open_wal_handles"] = handles
    return report


# -- the collector -------------------------------------------------------------

class TelemetryCollector:
    """Background sampler feeding the :class:`TimeSeriesStore`.

    One instance rides on every :class:`~repro.obs.hub.Observability`
    hub, thread-less until :meth:`start` — exactly like the sampling
    profiler.  Each tick it:

    1. runs registered *samplers* (runtime gauges, canary probes) so
       their gauges are current;
    2. walks the registry and appends counter/gauge values and histogram
       ``count``/``sum``/bucket snapshots to the store;
    3. asks the hub's :class:`~repro.obs.slo.SloManager` to re-evaluate
       burn rates against the fresh history.

    The hot path never writes history — the collector reads.  Tests call
    :meth:`sample_once` with explicit ``now`` timestamps instead of
    starting the thread.
    """

    def __init__(self, obs: "Observability"):
        self.obs = obs
        self.interval_s = 1.0
        self.store = TimeSeriesStore()
        self.samples = 0
        self.last_sample_s = 0.0
        self._samplers: list[Callable[[float], None]] = [
            lambda _now: sample_runtime(self.obs)
        ]
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._sample_lock = threading.Lock()

    # -- samplers --------------------------------------------------------------

    def add_sampler(self, sampler: Callable[[float], None]) -> None:
        """Register ``sampler(now)`` to run at the top of every tick."""
        self._samplers.append(sampler)

    # -- sampling --------------------------------------------------------------

    def sample_once(self, now: Optional[float] = None) -> float:
        """Take one sample (thread-safe); returns the sample timestamp."""
        with self._sample_lock:
            if now is None:
                now = time.monotonic()
            started = time.perf_counter()
            for sampler in list(self._samplers):
                try:
                    sampler(now)
                except Exception:
                    self.obs.count("obs.collector.sampler_errors")
            store = self.store
            for metric in self.obs.registry.metrics():
                if isinstance(metric, Histogram):
                    store.record_bounds(metric.name, metric.labels, metric.bounds)
                    store.record(metric.name, metric.labels, "count", now,
                                 metric.count)
                    store.record(metric.name, metric.labels, "sum", now,
                                 metric.sum)
                    store.record(metric.name, metric.labels, "buckets", now,
                                 metric.bucket_counts())
                else:
                    store.record(metric.name, metric.labels, "value", now,
                                 metric.value)
            self.samples += 1
            self.last_sample_s = time.perf_counter() - started
            self.obs.slo.evaluate(now=now, store=store)
            return now

    # -- thread lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, interval_s: Optional[float] = None) -> "TelemetryCollector":
        """Start the background thread (idempotent).  Installs the
        calibration-seeded default SLOs if none were defined."""
        if interval_s is not None:
            self.interval_s = interval_s
        self.obs.slo.ensure_defaults()
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"obs-collector-{self.obs.name}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - defensive
                self.obs.count("obs.collector.sample_errors")
            self._stop_event.wait(self.interval_s)

    def stop(self) -> None:
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def reset(self) -> None:
        """Drop history and counters (the thread, if any, keeps running)."""
        self.store.reset()
        self.samples = 0
        self.last_sample_s = 0.0

    def report(self) -> dict[str, Any]:
        return {
            "running": self.running,
            "interval_s": self.interval_s,
            "samples": self.samples,
            "last_sample_s": self.last_sample_s,
            "series": len(self.store),
            "tiers": [
                {"resolution_s": resolution, "retention_s": retention}
                for resolution, retention in self.store.tiers
            ],
        }


# -- sparklines ----------------------------------------------------------------

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render values as a unicode sparkline (empty input -> ``""``).

    NaN/:data:`NO_DATA` entries render as spaces; the series is resampled
    (last-value) down to ``width`` characters when longer."""
    cleaned = [float(v) for v in values]
    if not cleaned:
        return ""
    if len(cleaned) > width:
        stride = len(cleaned) / width
        cleaned = [cleaned[min(len(cleaned) - 1, int(i * stride))]
                   for i in range(width)]
    finite = [v for v in cleaned if v == v]
    if not finite:
        return " " * len(cleaned)
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in cleaned:
        if value != value:  # NaN / NO_DATA
            chars.append(" ")
            continue
        if span <= 0:
            chars.append(_SPARK_BLOCKS[0])
            continue
        index = int((value - low) / span * (len(_SPARK_BLOCKS) - 1))
        chars.append(_SPARK_BLOCKS[index])
    return "".join(chars)
