"""Declarative SLOs, error budgets and multi-window burn-rate alerts.

The ROADMAP's >1M-user projection is a promise; this module is the
ledger.  Each :class:`Slo` names an objective over a measurable signal —
per-priority-class availability and latency seeded from the
:mod:`repro.evalmodel` calibration, or any bad/total counter ratio — and
the :class:`SloManager` re-evaluates every objective on each collector
tick against the retained telemetry in the
:class:`~repro.obs.timeseries.TimeSeriesStore`.

Alerting follows the multi-window burn-rate recipe: the **fast** window
(minutes) catches cliffs quickly, the **slow** window (tens of minutes)
catches slow leaks without paging on blips.  ``burn`` is the rate at
which the error budget is being spent relative to plan — ``bad_fraction /
(1 - objective)`` — so burn 1.0 spends exactly the budget over the SLO
period and burn 14 exhausts a 30-day budget in ~2 days.  Alerts have
**hysteresis**: once firing, an alert clears only after the burn stays
below ``clear_burn_threshold`` for ``clear_after_s`` — and a window with
:data:`~repro.obs.metrics.NO_DATA` never clears anything (absence of
evidence is not recovery).  Transitions fire structured events into the
PR-5 event log with an attributed cause from the health rollup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .metrics import NO_DATA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hub import Observability
    from .timeseries import TimeSeriesStore

#: Default multi-window geometry (seconds) and burn thresholds — scaled
#: to the default 1 s × 5 min / 15 s × 1 h retention tiers.
DEFAULT_FAST_WINDOW_S = 60.0
DEFAULT_SLOW_WINDOW_S = 600.0
DEFAULT_FAST_BURN = 14.0
DEFAULT_SLOW_BURN = 6.0


@dataclass(frozen=True)
class Slo:
    """One declarative objective.

    ``kind`` selects the measurement source:

    * ``"availability"`` — non-5xx fraction of ``web.responses`` for the
      routes in ``route_class`` (classified like the admission
      controller classifies them);
    * ``"latency"`` — fraction of ``web.request_s`` observations at or
      under ``threshold_s`` for the routes in ``route_class``, from
      windowed bucket-count deltas;
    * ``"ratio"`` — generic ``1 - bad/total`` over any two counter
      families (e.g. ``metadb.shard.degraded`` / ``metadb.shard.route``
      for data-tier read completeness).
    """

    name: str
    kind: str  # "availability" | "latency" | "ratio"
    objective: float  # e.g. 0.99 -> 1% error budget
    description: str = ""
    #: Priority class for availability/latency kinds ("browse", ...).
    route_class: Optional[str] = None
    #: Latency threshold for the "latency" kind.
    threshold_s: Optional[float] = None
    #: Counter families for the "ratio" kind.
    bad_family: Optional[str] = None
    total_family: Optional[str] = None
    fast_window_s: float = DEFAULT_FAST_WINDOW_S
    slow_window_s: float = DEFAULT_SLOW_WINDOW_S
    fast_burn_threshold: float = DEFAULT_FAST_BURN
    slow_burn_threshold: float = DEFAULT_SLOW_BURN
    #: Hysteresis: a firing alert clears only after the burn stays below
    #: this for ``clear_after_s`` seconds of evaluations.
    clear_burn_threshold: float = 1.0
    clear_after_s: float = 30.0
    #: Windows with fewer events than this cannot fire (tiny-sample
    #: burns are noise, not incidents).
    min_events: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.kind not in ("availability", "latency", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and self.threshold_s is None:
            raise ValueError("latency SLOs need threshold_s")
        if self.kind == "ratio" and not (self.bad_family and self.total_family):
            raise ValueError("ratio SLOs need bad_family and total_family")
        if self.kind in ("availability", "latency") and self.route_class is None:
            raise ValueError(f"{self.kind} SLOs need route_class")

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.objective


def default_slos() -> list[Slo]:
    """The calibration-seeded objectives: availability and latency per
    priority class, with latency thresholds derived from the §7.2
    measured DB service time."""
    # Lazy: evalmodel is a leaf package; obs must import without it.
    from ..evalmodel.calibration import (
        SLO_AVAILABILITY,
        SLO_LATENCY_OBJECTIVE,
        SLO_LATENCY_S,
    )

    slos: list[Slo] = []
    for cls, objective in SLO_AVAILABILITY.items():
        slos.append(Slo(
            name=f"{cls}-availability",
            kind="availability",
            objective=objective,
            route_class=cls,
            description=f"non-5xx fraction for {cls}-class routes",
        ))
    for cls, threshold_s in SLO_LATENCY_S.items():
        slos.append(Slo(
            name=f"{cls}-latency",
            kind="latency",
            objective=SLO_LATENCY_OBJECTIVE,
            route_class=cls,
            threshold_s=threshold_s,
            description=(
                f"{cls}-class requests under {threshold_s * 1000:.0f} ms"
            ),
        ))
    return slos


@dataclass
class Alert:
    """Mutable per-(SLO, window) alert state with hysteresis."""

    slo: str
    window: str  # "fast" | "slow"
    state: str = "ok"  # "ok" | "firing"
    since: Optional[float] = None
    burn: float = field(default_factory=lambda: NO_DATA)
    cause: str = ""
    #: When the burn first dipped below the clear threshold (hysteresis
    #: anchor); reset whenever it climbs back or the window goes NO_DATA.
    below_since: Optional[float] = None
    fired: int = 0
    cleared: int = 0

    def to_dict(self) -> dict[str, Any]:
        burn = self.burn
        return {
            "slo": self.slo,
            "window": self.window,
            "state": self.state,
            "since": self.since,
            "burn": None if burn is NO_DATA else burn,
            "cause": self.cause,
            "fired": self.fired,
            "cleared": self.cleared,
        }


def _route_class(route: str) -> str:
    from ..web.scheduler import classify_route

    return classify_route(route)


class SloManager:
    """Evaluates every defined :class:`Slo` against retained telemetry.

    Driven by :meth:`~repro.obs.timeseries.TelemetryCollector.sample_once`
    after each sample; tests can call :meth:`evaluate` directly with a
    synthetic clock.  ``cause_resolver`` (wired by the web server to the
    health rollup) turns a firing alert into an attributed cause string.
    """

    def __init__(self, obs: "Observability"):
        self.obs = obs
        self.slos: dict[str, Slo] = {}
        self._alerts: dict[tuple[str, str], Alert] = {}
        self._last: dict[str, dict[str, Any]] = {}
        self.cause_resolver: Optional[Callable[[Slo, str], str]] = None
        self.evaluations = 0

    # -- definitions -----------------------------------------------------------

    def define(self, slo: Slo) -> Slo:
        self.slos[slo.name] = slo
        for window in ("fast", "slow"):
            self._alerts.setdefault((slo.name, window), Alert(slo.name, window))
        return slo

    def ensure_defaults(self) -> None:
        """Install the calibration-seeded SLOs unless some were already
        defined (explicit definitions win wholesale)."""
        if not self.slos:
            for slo in default_slos():
                self.define(slo)

    def reset(self) -> None:
        self.slos.clear()
        self._alerts.clear()
        self._last.clear()
        self.evaluations = 0

    # -- measurement -----------------------------------------------------------

    def _measure(
        self, slo: Slo, store: "TimeSeriesStore", window_s: float,
        now: Optional[float],
    ) -> tuple[float, float]:
        """``(bad, total)`` events inside the window, or ``(NO_DATA,
        NO_DATA)`` when the telemetry cannot answer."""
        if slo.kind == "ratio":
            bad = store.family_delta(slo.bad_family, window_s, now=now)
            total = store.family_delta(slo.total_family, window_s, now=now)
            if total is NO_DATA:
                return NO_DATA, NO_DATA
            return (0.0 if bad is NO_DATA else bad), total
        if slo.kind == "availability":
            bad = total = 0.0
            answered = False
            for labels in store.label_sets("web.responses"):
                route = labels.get("route", "")
                if _route_class(route) != slo.route_class:
                    continue
                delta = store.delta("web.responses", window_s, now=now, **labels)
                if delta is NO_DATA:
                    continue
                answered = True
                total += delta
                try:
                    status = int(labels.get("status", "0"))
                except ValueError:
                    status = 0
                if status >= 500:
                    bad += delta
            return (bad, total) if answered else (NO_DATA, NO_DATA)
        # latency: good/total from histogram bucket deltas.
        good = total = 0.0
        answered = False
        for labels in store.label_sets("web.request_s"):
            if _route_class(labels.get("route", "")) != slo.route_class:
                continue
            under, seen = store.window_under(
                "web.request_s", slo.threshold_s, window_s, now=now, **labels
            )
            if seen is NO_DATA:
                continue
            answered = True
            good += under
            total += seen
        if not answered:
            return NO_DATA, NO_DATA
        return total - good, total

    @staticmethod
    def _burn(slo: Slo, bad: float, total: float) -> float:
        if total is NO_DATA or bad is NO_DATA or total <= 0:
            return NO_DATA
        return (bad / total) / slo.budget_fraction

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, now: float, store: "TimeSeriesStore") -> None:
        self.evaluations += 1
        for slo in list(self.slos.values()):
            fast_bad, fast_total = self._measure(slo, store, slo.fast_window_s, now)
            slow_bad, slow_total = self._measure(slo, store, slo.slow_window_s, now)
            fast_burn = self._burn(slo, fast_bad, fast_total)
            slow_burn = self._burn(slo, slow_bad, slow_total)
            # Error budget over the full retained horizon (the longest
            # tier) — "how much of the budget is already gone".
            horizon = max(retention for _res, retention in store.tiers)
            budget_bad, budget_total = self._measure(slo, store, horizon, now)
            budget_used = self._burn(slo, budget_bad, budget_total)
            self._last[slo.name] = {
                "fast": {"bad": fast_bad, "total": fast_total, "burn": fast_burn},
                "slow": {"bad": slow_bad, "total": slow_total, "burn": slow_burn},
                "budget_used_fraction": budget_used,
            }
            self._advance(slo, "fast", fast_burn, slo.fast_burn_threshold,
                          fast_total, now)
            self._advance(slo, "slow", slow_burn, slo.slow_burn_threshold,
                          slow_total, now)

    def _advance(
        self, slo: Slo, window: str, burn: float, threshold: float,
        total: float, now: float,
    ) -> None:
        alert = self._alerts[(slo.name, window)]
        alert.burn = burn
        if alert.state == "ok":
            if (burn is not NO_DATA and burn >= threshold
                    and total is not NO_DATA and total >= slo.min_events):
                alert.state = "firing"
                alert.since = now
                alert.below_since = None
                alert.fired += 1
                alert.cause = self._resolve_cause(slo, window)
                self.obs.count("obs.slo.alerts_fired", slo=slo.name, window=window)
                self.obs.event(
                    "error", "obs", "slo.alert_fired",
                    f"{slo.name} {window}-window burn {burn:.1f}x "
                    f"(threshold {threshold:.1f}x)",
                    slo=slo.name, window=window, burn=burn,
                    threshold=threshold, cause=alert.cause,
                )
            return
        # firing: hysteresis — NO_DATA never clears, and the burn must
        # stay below the clear threshold for clear_after_s.
        if burn is NO_DATA or burn >= slo.clear_burn_threshold:
            alert.below_since = None
            return
        if alert.below_since is None:
            alert.below_since = now
        if now - alert.below_since >= slo.clear_after_s:
            alert.state = "ok"
            alert.cleared += 1
            self.obs.count("obs.slo.alerts_cleared", slo=slo.name, window=window)
            self.obs.event(
                "info", "obs", "slo.alert_cleared",
                f"{slo.name} {window}-window burn back under "
                f"{slo.clear_burn_threshold:.1f}x",
                slo=slo.name, window=window, burn=burn, cause=alert.cause,
            )
            alert.since = None
            alert.below_since = None
            alert.cause = ""

    def _resolve_cause(self, slo: Slo, window: str) -> str:
        if self.cause_resolver is None:
            return ""
        try:
            return self.cause_resolver(slo, window) or ""
        except Exception:
            return ""

    # -- reporting -------------------------------------------------------------

    def active_alerts(self) -> list[dict[str, Any]]:
        return [
            alert.to_dict()
            for alert in self._alerts.values()
            if alert.state == "firing"
        ]

    def report(self) -> dict[str, Any]:
        def _clean(value: Any) -> Any:
            return None if value is NO_DATA else value

        slos: dict[str, Any] = {}
        for name, slo in sorted(self.slos.items()):
            last = self._last.get(name, {})
            slos[name] = {
                "kind": slo.kind,
                "objective": slo.objective,
                "description": slo.description,
                "route_class": slo.route_class,
                "threshold_s": slo.threshold_s,
                "fast": {k: _clean(v) for k, v in
                         last.get("fast", {"burn": None}).items()},
                "slow": {k: _clean(v) for k, v in
                         last.get("slow", {"burn": None}).items()},
                "budget_used_fraction": _clean(last.get("budget_used_fraction")),
                "alerts": {
                    window: self._alerts[(name, window)].to_dict()
                    for window in ("fast", "slow")
                },
            }
        return {
            "evaluations": self.evaluations,
            "slos": slos,
            "active_alerts": self.active_alerts(),
        }
