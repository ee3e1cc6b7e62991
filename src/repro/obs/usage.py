"""Live usage analytics: the paper's §7 tables, rebuilt from telemetry.

The paper's central argument is that a repository survives a *moving
target* only if operators can see the workload move: §7.2 characterises
the live request mix, bytes served, per-tier time split and per-page
costs, and those numbers are what the :mod:`repro.evalmodel` simulators
were calibrated against.  This module reconstructs the same tables from
the live :class:`~repro.obs.metrics.MetricsRegistry` — and then *diffs*
them against the calibration constants, flagging the drift that means
the models (and the capacity plans built on them) need re-fitting.

Everything here is read-only over metric snapshots; it allocates a dict,
never blocks a request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hub import Observability

#: Measured/predicted ratio beyond which a calibration entry is flagged.
DEFAULT_DRIFT_TOLERANCE = 0.25


def _histogram_sum(registry, name: str) -> float:
    return sum(
        metric.sum for metric in registry.family(name)
        if isinstance(metric, Histogram)
    )


def request_mix(obs: "Observability") -> dict[str, dict[str, Any]]:
    """Per-route request counts, shares and latency — §7.1's request mix.

    Built from the ``web.responses`` counters (per route × status) and
    the ``web.request_s`` per-route histograms.
    """
    registry = obs.registry
    counts: dict[str, float] = {}
    statuses: dict[str, dict[str, float]] = {}
    for metric in registry.family("web.responses"):
        route = metric.labels.get("route", "(unknown)")
        counts[route] = counts.get(route, 0) + metric.value
        by_status = statuses.setdefault(route, {})
        status = metric.labels.get("status", "?")
        by_status[status] = by_status.get(status, 0) + metric.value
    latencies: dict[str, Histogram] = {}
    for metric in registry.family("web.request_s"):
        if isinstance(metric, Histogram):
            latencies[metric.labels.get("route", "(unknown)")] = metric
    total = sum(counts.values())
    mix: dict[str, dict[str, Any]] = {}
    for route in sorted(counts, key=lambda r: -counts[r]):
        histogram = latencies.get(route)
        populated = histogram is not None and histogram.count > 0
        mix[route] = {
            "requests": int(counts[route]),
            "share": counts[route] / total if total else 0.0,
            "statuses": {k: int(v) for k, v in sorted(statuses[route].items())},
            "p50_s": histogram.quantile(0.50) if populated else 0.0,
            "p95_s": histogram.quantile(0.95) if populated else 0.0,
        }
    return mix


def bytes_served(obs: "Observability") -> dict[str, float]:
    """Total and per-request bytes sent by the web tier (§7.2)."""
    registry = obs.registry
    total_bytes = registry.family_total("web.bytes_sent")
    total_requests = registry.family_total("web.requests")
    return {
        "bytes_sent": total_bytes,
        "requests": total_requests,
        "bytes_per_request": total_bytes / total_requests if total_requests else 0.0,
    }


def tier_time_split(obs: "Observability") -> dict[str, Any]:
    """Where wall-clock time went, by tier — the §7.2 breakdown.

    Sums the per-tier latency histograms: total web-request time, the DM
    query slice inside it, and the processing slice (PL requests / IDL
    invocations).  The remainder is application logic (templates,
    sessions, result parsing).
    """
    registry = obs.registry
    web_s = _histogram_sum(registry, "web.request_s")
    # DB time is per-statement round trips plus the grouped page-fetch
    # round trips (PR-8 batching) — both are time spent at the database.
    db_s = (_histogram_sum(registry, "dm.query_s")
            + _histogram_sum(registry, "dm.batch_s"))
    pl_s = _histogram_sum(registry, "pl.request_s")
    idl_s = _histogram_sum(registry, "idl.invoke_s")
    app_s = max(0.0, web_s - db_s - pl_s)
    split = {
        "web_total_s": web_s,
        "db_s": db_s,
        "processing_s": pl_s,
        "idl_s": idl_s,
        "app_logic_s": app_s,
    }
    if web_s > 0:
        split["shares"] = {
            "db": db_s / web_s,
            "processing": pl_s / web_s,
            "app_logic": app_s / web_s,
        }
    return split


def page_characteristics(obs: "Observability") -> dict[str, Any]:
    """The §7.2 in-text page characteristics, from live counters:
    DM queries per HLE page, bytes per response, name-mapping lookups.
    The query counts come from the report tree's ``dm`` node, so a hub
    whose web tier fronts no :class:`~repro.dm.DataManager` reports none."""
    registry = obs.registry
    hle_pages = sum(
        metric.value for metric in registry.family("web.responses")
        if metric.labels.get("route") == "/hedc/hle"
        and metric.labels.get("status") == "200"
    )
    characteristics: dict[str, Any] = {
        "hle_pages": int(hle_pages),
        "name_mapping_lookups": registry.family_total("dm.name_mapping.lookups"),
    }
    served = bytes_served(obs)
    characteristics["bytes_per_request"] = served["bytes_per_request"]
    node = obs.describe("dm")["dm"]
    if node is not None:
        queries = node["io"]["queries"]
        characteristics["dm_queries"] = queries
        round_trips = node["io"]["round_trips"]
        characteristics["dm_round_trips"] = round_trips
        if hle_pages:
            characteristics["dm_queries_per_page"] = queries / hle_pages
            characteristics["dm_round_trips_per_page"] = round_trips / hle_pages
    return characteristics


def calibration_drift(
    obs: "Observability",
    tolerance: float = DEFAULT_DRIFT_TOLERANCE,
) -> list[dict[str, Any]]:
    """Diff live telemetry against the :mod:`repro.evalmodel` calibration
    constants; entries whose measured/predicted ratio strays past
    ``tolerance`` are flagged ``drifted`` — the §7 "moving target" signal
    that the models need re-fitting before the next capacity decision.
    """
    # Imported here: evalmodel is a leaf package and obs must stay
    # importable without it during partial installs.
    from ..evalmodel.calibration import (
        DB_QUERIES_PER_SECOND,
        HTML_RESPONSE_KB,
        PAGE_ROUND_TRIPS_BATCHED,
        QUERIES_PER_REQUEST,
    )

    entries: list[dict[str, Any]] = []

    def compare(metric: str, predicted: float, measured: Optional[float]) -> None:
        if measured is None or predicted <= 0:
            return
        ratio = measured / predicted
        entries.append({
            "metric": metric,
            "predicted": predicted,
            "measured": measured,
            "ratio": ratio,
            "drifted": abs(ratio - 1.0) > tolerance,
        })

    pages = page_characteristics(obs)
    # Logical queries per page is batching-invariant: the seven §7.2
    # statements ride in one round trip, but they are still sent (and
    # counted), so batched deployments don't falsely trip this.
    compare("dm_queries_per_page", float(QUERIES_PER_REQUEST),
            pages.get("dm_queries_per_page"))
    # Round trips per page is the batching contract itself.
    compare("dm_round_trips_per_page", float(PAGE_ROUND_TRIPS_BATCHED),
            pages.get("dm_round_trips_per_page"))
    compare("html_bytes_per_request", HTML_RESPONSE_KB * 1024.0,
            pages["bytes_per_request"] or None)
    registry = obs.registry
    select_hists = [
        metric for metric in registry.family("metadb.query_s")
        if isinstance(metric, Histogram) and metric.labels.get("op") == "select"
        and metric.count
    ]
    if select_hists:
        total = sum(h.sum for h in select_hists)
        count = sum(h.count for h in select_hists)
        compare("db_query_service_s", 1.0 / DB_QUERIES_PER_SECOND,
                total / count if count else None)
    return entries


def usage_report(
    obs: "Observability",
    tolerance: float = DEFAULT_DRIFT_TOLERANCE,
) -> dict[str, Any]:
    """The full §7-style usage-analytics report, JSON-ready."""
    return {
        "request_mix": request_mix(obs),
        "bytes": bytes_served(obs),
        "tier_time_split": tier_time_split(obs),
        "page_characteristics": page_characteristics(obs),
        "calibration_drift": calibration_drift(obs, tolerance=tolerance),
    }
