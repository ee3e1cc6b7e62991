"""Renderers over the registry (and optionally the tracer).

* :func:`to_line_protocol` — an influx-style text dump, which is what
  the ``/hedc/metrics`` servlet serves;
* :func:`to_json_snapshot` — a JSON-ready snapshot including recent span
  trees, for machine consumption.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import Histogram, MetricsRegistry
from .trace import Tracer


def _escape(value: str) -> str:
    """Escape a measurement/tag key or value for line protocol.

    Backslashes must be doubled *first* (so a literal ``\\ `` round-trips),
    then the structural characters — space, comma, equals — and double
    quotes, which otherwise open an unterminated string field in strict
    parsers.  Newlines would split the series across lines, so they are
    flattened to escaped spaces.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace(" ", "\\ ")
        .replace("\n", "\\ ")
        .replace(",", "\\,")
        .replace("=", "\\=")
        .replace('"', '\\"')
    )


def _series_name(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return _escape(name)
    tags = ",".join(f"{_escape(k)}={_escape(v)}" for k, v in sorted(labels.items()))
    return f"{_escape(name)},{tags}"


def to_line_protocol(registry: MetricsRegistry) -> str:
    """Render every metric as one line: ``name,label=v field=value ...``."""
    lines: list[str] = []
    for metric in registry.metrics():
        series = _series_name(metric.name, metric.labels)
        if isinstance(metric, Histogram):
            if metric.count == 0:
                # No observations: quantiles are NO_DATA, not 0.0 — emit
                # only the honest fields rather than NaN placeholders.
                fields = "count=0i,sum=0.000000000"
            else:
                fields = (
                    f"count={metric.count}i,sum={metric.sum:.9f},"
                    f"mean={metric.mean:.9f},p50={metric.quantile(0.5):.9f},"
                    f"p95={metric.quantile(0.95):.9f},p99={metric.quantile(0.99):.9f}"
                )
            if metric.min is not None:
                fields += f",min={metric.min:.9f},max={metric.max:.9f}"
        else:
            value = metric.value
            fields = f"value={value}i" if isinstance(value, int) else f"value={value}"
        lines.append(f"{series} {fields}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json_snapshot(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None, max_traces: int = 32
) -> dict[str, Any]:
    """A JSON-ready snapshot of every metric plus recent span trees."""
    snapshot: dict[str, Any] = {"metrics": registry.snapshot()}
    if tracer is not None:
        snapshot["traces"] = tracer.snapshot(max_traces)
    return snapshot
