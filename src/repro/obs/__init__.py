"""repro.obs — tracing and metrics for the whole repository.

The paper's operators could only reason about the "moving target"
because the middle tier was measurable (§7); this package makes every
tier of the reproduction measurable the same way:

* :class:`MetricsRegistry` with :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` (streaming p50/p95/p99);
* :class:`Tracer` producing nested per-request span trees with
  contextvars propagation across threads;
* the line-protocol renderer;
* the :class:`Observability` hub that components thread through the
  tiers (``web`` → ``dm`` → ``metadb``, ``pl`` → ``idl``,
  ``streamcorder``).

Tracing is off by default (``Observability.enabled``); metrics always
collect, cheaply.  Every operator surface (``/hedc/metrics``,
``/hedc/debug``, ``/hedc/dashboard``,
:meth:`repro.dm.DataManager.telemetry_report`, the health rollup) is a
selection of sections of one report tree,
:meth:`Observability.describe`.
"""

from .events import SEVERITIES, Event, EventLog, SlowLog, SlowOp
from .health import DEGRADED, GREEN, RED, CanaryProbe, HealthMonitor
from .export import to_line_protocol
from .hub import (
    DEFAULT,
    Observability,
    Timed,
    disable,
    enable,
    resolve,
)
from .metrics import (
    NO_DATA,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    NoData,
    default_latency_buckets,
)
from .profile import SamplingProfiler, critical_path, span_self_times, trace_profile
from .slo import Slo, SloManager, default_slos
from .timeseries import (
    DEFAULT_TIERS,
    TelemetryCollector,
    TimeSeriesStore,
    sample_runtime,
    sparkline,
)
from .trace import NULL_SPAN, NULL_SPAN_CONTEXT, Span, Tracer
from .usage import (
    calibration_drift,
    page_characteristics,
    request_mix,
    tier_time_split,
    usage_report,
)

__all__ = [
    "CanaryProbe",
    "Counter",
    "DEFAULT",
    "DEFAULT_TIERS",
    "DEGRADED",
    "GREEN",
    "HealthMonitor",
    "NO_DATA",
    "NoData",
    "RED",
    "Slo",
    "SloManager",
    "TelemetryCollector",
    "TimeSeriesStore",
    "default_slos",
    "sample_runtime",
    "sparkline",
    "Event",
    "EventLog",
    "SEVERITIES",
    "SamplingProfiler",
    "SlowLog",
    "SlowOp",
    "calibration_drift",
    "critical_path",
    "page_characteristics",
    "request_mix",
    "span_self_times",
    "tier_time_split",
    "trace_profile",
    "usage_report",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_SPAN_CONTEXT",
    "Observability",
    "Span",
    "Timed",
    "Tracer",
    "default_latency_buckets",
    "disable",
    "enable",
    "resolve",
    "to_line_protocol",
]
