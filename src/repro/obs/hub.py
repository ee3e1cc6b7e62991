"""The observability hub: one registry + one tracer + one switch.

Every component accepts an optional ``obs`` argument and defaults to the
process-wide hub, so ad-hoc assemblies share one instrument panel while
a full :class:`~repro.core.Hedc` deployment owns a private hub and
threads it through all three tiers.

Cost model: **metrics are always on** (a counter increment or histogram
observation is a lock plus an add — negligible next to a DM query),
while **tracing is off by default** — :meth:`Observability.span` returns
a reusable no-op context manager until :meth:`enable` is called, so the
default-off overhead on the request path stays unmeasurable.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Callable, Optional, Sequence

from .events import EventLog, SlowLog
from .health import HealthMonitor
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import SamplingProfiler
from .slo import SloManager
from .timeseries import TelemetryCollector, sample_runtime
from .trace import NULL_SPAN_CONTEXT, Tracer
from .usage import usage_report


class Timed:
    """Context manager that always feeds a histogram and, when tracing
    is enabled, also opens a same-named span.  Exposes ``elapsed_s``."""

    __slots__ = ("_hub", "_name", "_labels", "_span_cm", "_started", "elapsed_s", "span")

    def __init__(self, hub: "Observability", name: str, labels: dict[str, str]):
        self._hub = hub
        self._name = name
        self._labels = labels
        self._span_cm = None
        self.elapsed_s: float = 0.0
        self.span = None

    def __enter__(self) -> "Timed":
        if self._hub.enabled:
            self._span_cm = self._hub.tracer.span(self._name, **self._labels)
            self.span = self._span_cm.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = time.perf_counter() - self._started
        histogram = self._hub.registry.histogram(self._name, **self._labels)
        span = self.span
        if span is not None:
            histogram.observe(self.elapsed_s,
                              exemplar=(span.trace_id, span.span_id))
        else:
            histogram.observe(self.elapsed_s)
        if self._span_cm is not None:
            return bool(self._span_cm.__exit__(exc_type, exc, tb))
        return False


def _absent() -> None:
    """A section no layer has contributed yet."""


class Observability:
    """A registry, a tracer, and the enabled switch binding them.

    The deep-diagnostics layer rides on the same hub: a bounded
    :class:`~repro.obs.events.EventLog` (always available — emissions
    only happen at rare state transitions), a bounded
    :class:`~repro.obs.events.SlowLog` (off until a threshold is
    configured) and a :class:`~repro.obs.profile.SamplingProfiler` (off
    until started; owns no thread while stopped).
    """

    def __init__(self, enabled: bool = False, name: str = "obs"):
        self.name = name
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = Tracer(name=name)
        self.events = EventLog()
        self.slowlog = SlowLog()
        self.profiler = SamplingProfiler()
        # Retained telemetry (PR-10): SLO evaluation and the health
        # rollup ride the collector; all three own no thread until
        # ``collector.start()``.
        self.slo = SloManager(self)
        self.health = HealthMonitor(self)
        self.collector = TelemetryCollector(self)
        #: The report tree: section name -> zero-argument builder, each
        #: looking its source up when read.  The hub fills in what it
        #: owns; the last five are placeholders the layers replace
        #: through :meth:`contribute` where they are built.
        self._sections: dict[str, Callable[[], Any]] = {
            "metrics": lambda: self.registry.snapshot(),
            "traces": lambda: self.tracer.snapshot(),
            "exemplars": self._exemplars,
            "events": lambda: self.events.snapshot(limit=100),
            "slow_ops": lambda: self.slowlog.snapshot(limit=50),
            "slow_thresholds": lambda: self.slowlog.thresholds(),
            "profiler": lambda: {
                "running": self.profiler.running,
                "samples": self.profiler.samples,
                "hot_stacks": self.profiler.snapshot(limit=10),
            },
            "diagnostics": lambda: {
                "events": self.events.total,
                "slow_ops": self.slowlog.total,
                "profiler_running": self.profiler.running,
            },
            "runtime": lambda: sample_runtime(self),
            "collector": lambda: self.collector.report(),
            "slos": lambda: self.slo.report(),
            "health": lambda: self.health.report(store=self.collector.store),
            "usage": lambda: usage_report(self),
            "resilience": self._resilience,
            "caches": dict,
            "breakers": dict,
            "serving": _absent,
            "data": _absent,
            "dm": _absent,
        }
        self._members: dict[str, "weakref.WeakSet[Any]"] = {}

    # -- the report tree -------------------------------------------------------

    def contribute(self, section: str, report: Callable[..., Any],
                   member: Any = None) -> None:
        """The one way into the report tree.

        ``contribute("serving", self.serving_report)`` makes ``report()``
        the section, replacing whoever described it before.  The web
        tier places ``serving`` and, for the node it fronts, ``dm`` and
        ``data``: the server built last on a hub owns all three, and a
        DM no server fronts claims nothing.  With ``member`` the
        section is a collection instead (caches, breakers): the hub
        holds each member weakly and the section is ``report(members)``
        over those still alive, so a dropped cache leaves the tree with
        its last reference.
        """
        if member is None:
            self._sections[section] = report
        else:
            members = self._members.setdefault(section, weakref.WeakSet())
            members.add(member)
            self._sections[section] = lambda: report(list(members))

    def describe(self, *sections: str) -> dict[str, Any]:
        """The named sections of the report tree (all of them when none
        is named), each built now.  A section nobody asks for costs
        nothing, which is what lets the health rollup and a full
        ``/hedc/debug`` page read the same tree."""
        return {name: self._sections[name]()
                for name in sections or tuple(self._sections)}

    def _exemplars(self) -> list[dict[str, Any]]:
        """Histogram exemplars: the bucket -> trace links of ``/hedc/debug``."""
        exemplars = []
        for metric in self.registry.metrics():
            if isinstance(metric, Histogram):
                slots = metric.exemplars()
                if slots:
                    exemplars.append({
                        "name": metric.name,
                        "labels": dict(metric.labels),
                        "exemplars": slots,
                    })
        return exemplars

    def _resilience(self) -> dict[str, Any]:
        # Lazy: repro.resil imports repro.obs; never the reverse at
        # module scope.
        from ..resil.faults import get_default_injector

        return {"breakers": self._sections["breakers"](),
                "faults": get_default_injector().report()}

    # -- switch ----------------------------------------------------------------

    def enable(self) -> "Observability":
        self.enabled = True
        return self

    def disable(self) -> "Observability":
        self.enabled = False
        return self

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self.events.clear()
        self.slowlog.clear()
        self.profiler.reset()
        self.collector.reset()
        self.slo.reset()

    # -- metric shortcuts (always on) ------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        return self.registry.histogram(name, bounds=bounds, **labels)

    def count(self, name: str, amount: float = 1, **labels: str) -> None:
        self.registry.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Feed a histogram; when tracing is on and a span is current the
        observation carries an exemplar linking bucket → trace."""
        trace_id, span_id = self._correlation()
        self.registry.histogram(name, **labels).observe(
            value, exemplar=None if trace_id is None else (trace_id, span_id))

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.registry.gauge(name, **labels).set(value)

    # -- tracing (gated by ``enabled``) ----------------------------------------

    def span(self, name: str, **tags: Any):
        """A span context manager, or a shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        return self.tracer.span(name, **tags)

    def timed(self, name: str, **labels: str) -> Timed:
        """Histogram timing (always) plus a span (when enabled)."""
        return Timed(self, name, labels)

    # -- diagnostics -----------------------------------------------------------

    def _correlation(self) -> tuple[Optional[int], Optional[int]]:
        """The current trace and span ids, when tracing is enabled and a
        span is open."""
        span = self.tracer.current() if self.enabled else None
        return (None, None) if span is None else (span.trace_id, span.span_id)

    def event(self, severity: str, component: str, kind: str,
              message: str = "", **fields: Any):
        """Emit a structured event, correlated to the current trace/span."""
        trace_id, span_id = self._correlation()
        return self.events.emit(severity, component, kind, message,
                                trace_id=trace_id, span_id=span_id, **fields)

    def slow_op(self, name: str, duration_s: float, threshold_s: float,
                **detail: Any):
        """Record a slow operation, correlated like :meth:`event`."""
        trace_id, span_id = self._correlation()
        return self.slowlog.record(name, duration_s, threshold_s,
                                   trace_id=trace_id, span_id=span_id, **detail)


#: The process-wide default hub; components fall back to it when no hub
#: is passed explicitly.  Disabled (no tracing) by default.
DEFAULT = Observability(name="default")


def resolve(obs: Optional[Observability]) -> Observability:
    """The hub to use: the explicit one, or the process default."""
    return obs if obs is not None else DEFAULT


def enable() -> Observability:
    """Switch the process-default hub's tracing on."""
    return DEFAULT.enable()


def disable() -> Observability:
    return DEFAULT.disable()
