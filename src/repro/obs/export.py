"""The registry as an influx-style text dump: what the ``/hedc/metrics``
servlet serves (its JSON form is ``Observability.describe("metrics")``)."""

from __future__ import annotations

from .metrics import Histogram, MetricsRegistry


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
