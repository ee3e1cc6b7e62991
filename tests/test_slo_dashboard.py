"""SLOs, burn-rate alerts, health rollup, canary and the dashboard.

The PR-10 acceptance path lives here: drive the serving stack to 2x its
measured capacity, watch the browse-class latency SLO burn its budget,
see the fast-window alert fire as a structured event with an attributed
cause, read it all off ``/hedc/dashboard`` (text and JSON), then watch
the alert clear — with hysteresis — once the load drops.
"""

import json
import threading
import time

import pytest

from repro.obs import (
    DEGRADED,
    GREEN,
    NO_DATA,
    Observability,
    RED,
    Slo,
    TimeSeriesStore,
    default_slos,
)
from repro.resil import FaultInjector, use_injector
from repro.web.loadgen import (
    browse_mix,
    build_serving_stack,
    run_closed_loop,
    run_open_loop,
)


# -- Slo definitions ----------------------------------------------------------

class TestSloDefinitions:
    def test_validation_rejects_malformed_objectives(self):
        with pytest.raises(ValueError, match="objective"):
            Slo(name="x", kind="ratio", objective=1.0,
                bad_family="b", total_family="t")
        with pytest.raises(ValueError, match="kind"):
            Slo(name="x", kind="vibes", objective=0.9)
        with pytest.raises(ValueError, match="threshold_s"):
            Slo(name="x", kind="latency", objective=0.9, route_class="browse")
        with pytest.raises(ValueError, match="bad_family"):
            Slo(name="x", kind="ratio", objective=0.9)
        with pytest.raises(ValueError, match="route_class"):
            Slo(name="x", kind="availability", objective=0.9)

    def test_defaults_are_seeded_from_calibration(self):
        from repro.evalmodel.calibration import (
            SLO_AVAILABILITY,
            SLO_LATENCY_OBJECTIVE,
            SLO_LATENCY_S,
        )

        slos = {slo.name: slo for slo in default_slos()}
        for cls, objective in SLO_AVAILABILITY.items():
            assert slos[f"{cls}-availability"].objective == objective
        for cls, threshold_s in SLO_LATENCY_S.items():
            latency = slos[f"{cls}-latency"]
            assert latency.threshold_s == threshold_s
            assert latency.objective == SLO_LATENCY_OBJECTIVE
            assert latency.route_class == cls

    def test_ensure_defaults_does_not_override_explicit(self):
        obs = Observability()
        obs.slo.define(Slo(name="mine", kind="ratio", objective=0.9,
                           bad_family="b", total_family="t"))
        obs.slo.ensure_defaults()
        assert list(obs.slo.slos) == ["mine"]
        obs.slo.reset()
        obs.slo.ensure_defaults()
        assert "browse-latency" in obs.slo.slos


# -- burn-rate alert state machine -------------------------------------------

def _ratio_manager(**overrides):
    """An SloManager with one ratio SLO, driven by a hand-built store."""
    obs = Observability(name="slo-unit")
    spec = dict(
        name="completeness", kind="ratio", objective=0.9,
        bad_family="bad", total_family="total",
        fast_window_s=5.0, slow_window_s=10.0,
        fast_burn_threshold=2.0, slow_burn_threshold=1000.0,
        clear_burn_threshold=1.0, clear_after_s=2.0, min_events=5,
    )
    spec.update(overrides)
    obs.slo.define(Slo(**spec))
    return obs, obs.slo, TimeSeriesStore()


class TestBurnRateAlerts:
    def test_fast_window_fires_on_a_cliff(self):
        obs, manager, store = _ratio_manager()
        total = bad = 0
        for t in range(1, 6):          # healthy: 10 events/s, none bad
            total += 10
            store.record("total", {}, "value", float(t), total)
            store.record("bad", {}, "value", float(t), bad)
            manager.evaluate(float(t), store)
        assert manager.active_alerts() == []
        for t in range(6, 9):          # cliff: half of everything fails
            total += 10
            bad += 5
            store.record("total", {}, "value", float(t), total)
            store.record("bad", {}, "value", float(t), bad)
            manager.evaluate(float(t), store)
        fired = manager.active_alerts()
        assert [(a["slo"], a["window"]) for a in fired] == [
            ("completeness", "fast"),
        ]
        assert fired[0]["burn"] >= 2.0
        events = obs.events.find("slo.alert_fired")
        assert len(events) == 1
        assert events[0].severity == "error"
        assert events[0].fields["slo"] == "completeness"
        assert events[0].fields["window"] == "fast"

    def test_min_events_guard_suppresses_tiny_samples(self):
        obs, manager, store = _ratio_manager(min_events=50)
        total = bad = 0
        for t in range(1, 10):         # 100% failure, but 2 events/s
            total += 2
            bad += 2
            store.record("total", {}, "value", float(t), total)
            store.record("bad", {}, "value", float(t), bad)
            manager.evaluate(float(t), store)
        assert manager.active_alerts() == []

    def test_no_data_never_clears_a_firing_alert(self):
        obs, manager, store = _ratio_manager()
        for t in range(1, 8):
            store.record("total", {}, "value", float(t), 10.0 * t)
            store.record("bad", {}, "value", float(t), 5.0 * t)
            manager.evaluate(float(t), store)
        assert manager.active_alerts()
        # The signal goes dark: no new samples, windows age out to
        # NO_DATA.  Absence of evidence is not recovery — hold the alert
        # far past clear_after_s.
        for t in range(100, 120):
            manager.evaluate(float(t), store)
        fired = manager.active_alerts()
        assert fired and fired[0]["burn"] is None

    def test_hysteresis_requires_sustained_recovery(self):
        obs, manager, store = _ratio_manager()

        def sample(t, total, bad):
            store.record("total", {}, "value", float(t), float(total))
            store.record("bad", {}, "value", float(t), float(bad))
            manager.evaluate(float(t), store)

        total = bad = 0
        for t in range(1, 6):
            total, bad = total + 10, bad + 8
            sample(t, total, bad)
        assert manager.active_alerts()
        # One good sample is not recovery: the window still carries the
        # incident, and even once the burn dips it must *stay* down.
        for t in range(6, 20):
            total += 10                # healthy from here on
            sample(t, total, bad)
            if manager.active_alerts() == []:
                cleared_at = t
                break
        else:
            pytest.fail("alert never cleared after recovery")
        # The burn reached zero once the 5 s window slid past the last
        # failure (t=5 -> zero burn from t=10); the clear needed 2 s of
        # sustained below-threshold on top.
        assert cleared_at >= 12
        events = obs.events.find("slo.alert_cleared")
        assert len(events) == 1 and events[0].severity == "info"

    def test_cause_is_resolved_at_fire_time(self):
        obs, manager, store = _ratio_manager()
        manager.cause_resolver = lambda slo, window: "metadb: shard 1 down"
        for t in range(1, 8):
            store.record("total", {}, "value", float(t), 10.0 * t)
            store.record("bad", {}, "value", float(t), 5.0 * t)
            manager.evaluate(float(t), store)
        fired = manager.active_alerts()
        assert fired[0]["cause"] == "metadb: shard 1 down"
        event = obs.events.find("slo.alert_fired")[0]
        assert event.fields["cause"] == "metadb: shard 1 down"

    def test_report_cleans_no_data_for_json(self):
        obs, manager, store = _ratio_manager()
        manager.evaluate(1.0, store)   # nothing recorded: all NO_DATA
        report = manager.report()
        entry = report["slos"]["completeness"]
        assert entry["fast"]["burn"] is None
        assert entry["budget_used_fraction"] is None
        json.dumps(report)             # strictly serialisable


# -- health rollup ------------------------------------------------------------

class TestHealthRollup:
    def test_everything_green_without_sources(self):
        obs = Observability()
        report = obs.health.report()
        assert report["status"] == GREEN
        assert report["causes"] == []
        assert report["subsystems"]["canary"]["detail"]["enabled"] is False
        assert obs.health.attributed_cause() == (
            "no attributed cause (all subsystems green)"
        )

    def test_open_shard_breaker_is_red_with_named_range(self):
        obs = Observability()
        obs.contribute("data", lambda: {"replication": None, "shard": {
            "n_shards": 3,
            "degraded_reads": 4,
            "shards": [
                {"shard_id": 0, "low": None, "high": 100.0,
                 "breaker": "closed"},
                {"shard_id": 1, "low": 100.0, "high": 200.0,
                 "breaker": "open"},
            ],
        }})
        report = obs.health.report()
        assert report["status"] == RED
        metadb = report["subsystems"]["metadb"]
        assert metadb["status"] == RED
        assert any("shard 1 down" in cause and "[100.0, 200.0)" in cause
                   for cause in metadb["causes"])
        assert any("PartialResult" in cause for cause in metadb["causes"])
        # Worst-first: the red shard cause outranks the degraded note.
        assert obs.health.attributed_cause().startswith("metadb: ")

    def test_dead_and_lagging_replicas_degrade(self):
        obs = Observability()
        obs.contribute("data", lambda: {"shard": None, "replication": {
            "replicas": [
                {"name": "r1", "state": "dead", "lag": 0},
                {"name": "r2", "state": "in_sync", "lag": 9},
                {"name": "r3", "state": "in_sync", "lag": 0},
            ]}})
        metadb = obs.health.report()["subsystems"]["metadb"]
        assert metadb["status"] == DEGRADED
        assert len(metadb["causes"]) == 2
        assert any("dead" in cause for cause in metadb["causes"])
        assert any("lagging 9 entries" in cause for cause in metadb["causes"])

    def test_admission_queue_pressure_and_backlog(self):
        obs = Observability()
        serving = {"n_workers": 4, "queue": {
            "depth": {"browse": 9}, "max_queue_depth": 10,
        }, "routes": {}}
        obs.contribute("serving", lambda: serving)
        sub = obs.health.report()["subsystems"]["serving"]
        assert sub["status"] == DEGRADED
        assert "admission queue at 9/10" in sub["causes"][0]
        # Deep queue, nowhere near capacity — the backlog itself is the
        # cause once it exceeds a few requests per worker.
        serving["queue"] = {"depth": {"browse": 40}, "max_queue_depth": 500}
        sub = obs.health.report()["subsystems"]["serving"]
        assert sub["status"] == DEGRADED
        assert "admission backlog: 40 requests queued" in sub["causes"][0]

    def test_torn_wal_tail_is_called_out(self):
        obs = Observability()
        obs.events.enabled = True
        obs.event("warn", "metadb", "wal.torn_tail",
                  "torn tail truncated", db="d0")
        sub = obs.health.report()["subsystems"]["wal"]
        assert sub["status"] == DEGRADED
        assert "torn WAL tail" in sub["causes"][0]

    def test_broken_source_never_breaks_the_rollup(self):
        obs = Observability()
        obs.contribute("data", lambda: 1 / 0)
        report = obs.health.report()
        assert report["status"] == GREEN


# -- canary probe -------------------------------------------------------------

class TestCanaryProbe:
    def test_canary_flips_health_red_and_back(self, tmp_path):
        obs = Observability(name="canary-test")
        stack = build_serving_stack(tmp_path / "canary", n_hles=4,
                                    rtt_s=0.0, obs=obs)
        try:
            canary = stack.web.enable_canary(interval_s=5.0)
            assert canary.probe() is True
            assert obs.registry.value("obs.canary.ok") == 1
            sub = obs.health.report()["subsystems"]["canary"]
            assert sub["status"] == GREEN and sub["detail"]["enabled"]

            injector = FaultInjector(seed=7)
            injector.inject("metadb.statement", rate=1.0)
            with use_injector(injector):
                assert canary.probe() is False
            assert obs.registry.value("obs.canary.ok") == 0
            report = obs.health.report()
            assert report["status"] == RED
            assert any("web→DM→metadb" in cause for cause in report["causes"])
            assert obs.events.find("canary.failed")

            # The path heals; the next probe turns the light green again.
            assert canary.probe() is True
            assert obs.health.report()["status"] == GREEN
        finally:
            stack.shutdown()

    def test_probe_rate_limited_by_collector_time(self, tmp_path):
        obs = Observability(name="canary-rate")
        stack = build_serving_stack(tmp_path / "rate", n_hles=4,
                                    rtt_s=0.0, obs=obs)
        try:
            canary = stack.web.enable_canary(interval_s=5.0)
            canary(now=0.0)
            canary(now=1.0)            # inside the interval: skipped
            assert obs.registry.family_total("obs.canary.probes") == 1
            canary(now=6.0)
            assert obs.registry.family_total("obs.canary.probes") == 2
        finally:
            stack.shutdown()


# -- dashboard servlet --------------------------------------------------------

class TestDashboardServlet:
    @pytest.fixture()
    def stack(self, tmp_path):
        obs = Observability(name="dash")
        stack = build_serving_stack(tmp_path / "dash", n_hles=6,
                                    rtt_s=0.0, obs=obs)
        for tick in range(3):
            response = stack.web.handle(
                stack.request(f"/hedc/hle?id={stack.hle_ids[tick]}"))
            assert response.status == 200
            obs.collector.sample_once(now=float(tick))
        yield stack
        stack.shutdown()

    def test_text_dashboard_renders_all_sections(self, stack):
        response = stack.web.handle(stack.request("/hedc/dashboard"))
        assert response.status == 200
        assert response.content_type == "text/plain"
        text = response.text
        assert "HEDC dashboard — status: GREEN" in text
        assert "health:" in text and "canary" in text
        assert "alerts (0 active):" in text
        assert "slos:" in text
        assert "timelines (last 5m):" in text
        assert "req/s" in text

    def test_json_dashboard_is_machine_readable(self, stack):
        response = stack.web.handle(
            stack.request("/hedc/dashboard?format=json"))
        assert response.status == 200
        assert response.content_type == "application/json"
        body = json.loads(response.text)
        assert body["status"] == "green"
        assert set(body) >= {"health", "slos", "active_alerts",
                             "collector", "runtime", "timelines"}
        assert body["runtime"]["threads"] >= 1
        assert body["runtime"]["rss_bytes"] is None or \
            body["runtime"]["rss_bytes"] > 0
        assert body["collector"]["samples"] >= 3
        assert "req/s" in body["timelines"]

    def test_metrics_json_carries_runtime_gauges(self, stack):
        response = stack.web.handle(stack.request("/hedc/metrics?format=json"))
        body = json.loads(response.text)
        runtime = body["runtime"]
        assert runtime["threads"] >= 1
        assert runtime["uptime_s"] > 0
        assert "open_wal_handles" in runtime
        assert "gc_collections" in runtime


# -- loadgen timelines --------------------------------------------------------

class TestLoadgenTimelines:
    def test_closed_loop_yields_per_class_timelines(self, tmp_path):
        stack = build_serving_stack(tmp_path / "tl", n_hles=6, rtt_s=0.0,
                                    scheduler="pool", n_workers=4)
        try:
            result = run_closed_loop(stack, browse_mix(stack),
                                     n_clients=4, duration_s=0.4)
        finally:
            stack.shutdown()
        timeline = result.timeline(bucket_s=0.1)
        assert "browse" in timeline
        rows = timeline["browse"]
        assert rows and all(
            set(row) == {"t_s", "sent", "ok", "goodput_rps", "p50_s", "p95_s"}
            for row in rows
        )
        assert sum(row["sent"] for row in rows) == result.sent
        assert rows == result.summary(bucket_s=0.1)["timeline"]["browse"]


# -- the acceptance path ------------------------------------------------------

class TestOverloadEndToEnd:
    def test_browse_latency_alert_fires_under_2x_overload_then_clears(
            self, tmp_path):
        obs = Observability(name="e2e")
        stack = build_serving_stack(
            tmp_path / "e2e", n_hles=12, rtt_s=0.004, obs=obs,
            scheduler="pool", n_workers=4, max_queue_depth=64,
        )
        collector = obs.collector
        try:
            obs.slo.define(Slo(
                name="browse-latency", kind="latency", objective=0.9,
                route_class="browse", threshold_s=0.06,
                description="browse pages under 60 ms",
                fast_window_s=3.0, slow_window_s=10.0,
                fast_burn_threshold=2.0, slow_burn_threshold=10_000.0,
                clear_burn_threshold=1.0, clear_after_s=1.5, min_events=10,
            ))
            capacity = run_closed_loop(stack, browse_mix(stack),
                                       n_clients=8,
                                       duration_s=0.5).throughput_rps
            assert capacity > 0
            # Baseline sample: everything up to here anchors the windows.
            collector.sample_once(now=0.0)

            # 2x overload, open loop: arrivals don't slow down when the
            # server does, so queue waits blow through the threshold.
            outcome = []
            loader = threading.Thread(target=lambda: outcome.append(
                run_open_loop(stack, browse_mix(stack),
                              rate_rps=2.0 * capacity, duration_s=1.0)))
            loader.start()
            # Sample mid-overload, once the backlog is visibly deep, so
            # the firing alert can attribute its cause to the queue.
            deadline = time.perf_counter() + 1.0
            while time.perf_counter() < deadline:
                queue = stack.web.serving_report()["queue"]
                if sum(queue["depth"].values()) >= 16:
                    break
                time.sleep(0.01)
            collector.sample_once(now=1.0)
            loader.join()
            collector.sample_once(now=2.0)

            overload = outcome[0]
            assert overload.sent >= 20
            fired = obs.slo.active_alerts()
            assert [(a["slo"], a["window"]) for a in fired] == [
                ("browse-latency", "fast"),
            ], f"expected the fast browse-latency alert, got {fired}"
            assert fired[0]["burn"] >= 2.0
            assert fired[0]["cause"]           # attributed, never empty
            event = obs.events.find("slo.alert_fired")[0]
            assert event.fields["slo"] == "browse-latency"
            assert "cause" in event.fields

            # The incident is on the dashboard — text...
            text = stack.web.handle(stack.request("/hedc/dashboard")).text
            assert "browse-latency [fast] FIRING" in text
            # ...and JSON, with the error-budget burn visible.
            body = json.loads(stack.web.handle(
                stack.request("/hedc/dashboard?format=json")).text)
            assert body["active_alerts"][0]["slo"] == "browse-latency"
            assert body["slos"]["browse-latency"]["budget_used_fraction"] > 0

            # Load drops: light traffic meets the SLO again, and after
            # the hysteresis hold the alert clears.
            cleared_at = None
            for t in range(3, 10):
                for _probe in range(4):
                    response = stack.web.handle(stack.request(
                        f"/hedc/hle?id={stack.hle_ids[t % 12]}"))
                    assert response.status == 200
                collector.sample_once(now=float(t))
                if not obs.slo.active_alerts():
                    cleared_at = t
                    break
            assert cleared_at is not None, "alert never cleared"
            assert cleared_at >= 6     # hysteresis: window ages out at 5,
            #                            plus 1.5 s sustained below-clear
            assert obs.events.find("slo.alert_cleared")
            body = json.loads(stack.web.handle(
                stack.request("/hedc/dashboard?format=json")).text)
            assert body["active_alerts"] == []
        finally:
            stack.shutdown()
