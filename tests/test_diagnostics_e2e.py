"""End-to-end deep diagnostics over a full deployment.

One seeded scenario drives web -> DM -> metadb and PL -> IDL traffic
through a complete :class:`~repro.core.Hedc` with tracing, the slow log
and chaos armed, then asserts the whole diagnostic chain holds together:

* a deliberately slow query (an injected ``metadb.statement`` stall)
  lands in the slow log *with its access plan*;
* histogram exemplars resolve to the matching trace tree;
* breaker state transitions appear in the event log with trace/span
  correlation;
* ``repro.obs.usage`` reproduces the paper's §7-style request-mix table
  within tolerance of the raw counters.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import Hedc
from repro.obs import Observability, trace_profile
from repro.resil import BreakerState, FaultInjector, use_injector
from repro.web.http import HttpRequest

CHAOS_SEED = 2003


@pytest.fixture(scope="module")
def hedc(tmp_path_factory):
    """A small deployment with tracing on and slow thresholds armed."""
    obs = Observability(enabled=True)
    deployment = Hedc.create(tmp_path_factory.mktemp("diag-e2e"), obs=obs)
    deployment.ingest_observation(duration_s=120.0, seed=21,
                                  unit_target_photons=150_000)
    deployment.register_user("reader", "reader-pw")
    obs.slowlog.configure("metadb.execute", 0.02)
    obs.slowlog.configure("pl.run", 0.0)
    return deployment


@pytest.fixture(scope="module")
def driven(hedc):
    """Drive the traffic once; every test below reads the diagnostics."""
    client = hedc.thin_client()
    assert client.login("reader", "reader-pw")
    events = hedc.events()
    assert events, "ingest must produce at least one HLE"
    hle_id = events[0]["hle_id"]

    injector = FaultInjector(seed=CHAOS_SEED, obs=hedc.obs)
    # One deliberately slow query: the next metadb statement stalls 50ms,
    # past the 20ms slow threshold.
    injector.inject("metadb.statement", rate=1.0, error=None,
                    delay_s=0.05, times=1)
    with use_injector(injector):
        browses = [client.browse_hle(hle_id) for _ in range(4)]

        # A persistently crashing IDL tier: every invocation fails after
        # the retry/restart machinery is exhausted, so the pl.idl breaker
        # (min_calls=10, failure_rate=0.6) trips open.
        injector.inject("idl.crash", rate=1.0)
        user = hedc.login("reader", "reader-pw")
        analyses = [
            hedc.analyze(user, hle_id, "lightcurve",
                         parameters={"n_bins": 8 + index})
            for index in range(12)
        ]
    return {
        "client": client,
        "hle_id": hle_id,
        "browses": browses,
        "analyses": analyses,
        "injector": injector,
    }


class TestSlowLogCapture:
    def test_injected_stall_lands_in_slow_log_with_plan(self, hedc, driven):
        ops = hedc.obs.slowlog.records("metadb.execute")
        assert ops, "the 50ms injected stall must exceed the 20ms threshold"
        with_plan = [op for op in ops if "plan" in op.detail]
        assert with_plan, "slow SELECTs must carry their explain_plan()"
        op = with_plan[0]
        assert "access" in op.detail["plan"]
        assert "statement" in op.detail
        assert op.duration_s >= 0.02
        # Correlated: the slow op points into the trace that contained it.
        assert op.trace_id is not None

    def test_slow_pl_runs_carry_fingerprint(self, hedc, driven):
        ops = hedc.obs.slowlog.records("pl.run")
        assert ops
        assert all("fingerprint" in op.detail and "algorithm" in op.detail
                   for op in ops)


class TestExemplarResolution:
    def test_exemplar_trace_id_resolves_to_matching_trace_tree(self, hedc, driven):
        registry = hedc.obs.registry
        exemplars = []
        for metric in registry.family("web.request_s"):
            exemplars.extend(metric.exemplars())
        assert exemplars, "traced web requests must leave exemplars"
        roots = hedc.obs.tracer.finished_spans()
        by_trace = {root.trace_id: root for root in roots}
        resolved = [slot for slot in exemplars if slot["trace_id"] in by_trace]
        assert resolved, "at least one exemplar must resolve to a kept trace"
        slot = resolved[-1]
        root = by_trace[slot["trace_id"]]
        span_ids = {span.span_id for span in root.walk()}
        assert slot["span_id"] in span_ids
        assert root.find("web.handle") is not None
        # The resolved tree is profile-ready (per-span self time).
        profile = trace_profile(root)
        assert profile["critical_path"][0]["name"] == root.name


class TestBreakerEvents:
    def test_breaker_trip_appears_in_event_log_with_correlation(self, hedc, driven):
        assert hedc.idl.breaker.state is BreakerState.OPEN
        transitions = hedc.obs.events.find("breaker.transition")
        opened = [event for event in transitions
                  if event.fields["to_state"] == "open"]
        assert opened, "the tripped breaker must emit a transition event"
        event = opened[0]
        assert event.severity == "warn"
        assert event.fields["breaker"] == hedc.idl.breaker.name
        # record_failure happens inside the pl.run span -> correlated.
        assert event.trace_id is not None and event.span_id is not None

    def test_fault_firings_and_crash_restarts_are_logged(self, hedc, driven):
        fired = hedc.obs.events.find("fault.fired")
        points = {event.fields["point"] for event in fired}
        assert {"metadb.statement", "idl.crash"} <= points
        assert hedc.obs.events.find("server.crashed")
        assert hedc.obs.events.find("server.restarted")
        report = driven["injector"].report()
        assert report["metadb.statement"]["fired"] == 1
        assert report["idl.crash"]["fired"] >= 10


class TestUsageAnalytics:
    def test_request_mix_reproduces_raw_counters_within_tolerance(self, hedc, driven):
        from repro.obs import request_mix

        mix = request_mix(hedc.obs)
        raw_total = hedc.web.requests_served
        mix_total = sum(row["requests"] for row in mix.values())
        assert mix_total == raw_total
        assert sum(row["share"] for row in mix.values()) == pytest.approx(1.0)
        # The §7.2 browse shape: each browse is one HLE page plus its
        # images, so the /hedc/hle share must track pages/requests.
        hle_row = mix["/hedc/hle"]
        assert hle_row["requests"] == len(driven["browses"])
        expected_share = hle_row["requests"] / raw_total
        assert hle_row["share"] == pytest.approx(expected_share, rel=0.01)
        assert hle_row["statuses"]["200"] == len(driven["browses"])
        assert hle_row["p95_s"] >= hle_row["p50_s"] >= 0.0

    def test_tier_split_and_page_characteristics_are_consistent(self, hedc, driven):
        from repro.obs import page_characteristics, tier_time_split

        split = tier_time_split(hedc.obs)
        assert split["web_total_s"] > 0
        # db_s also counts DB work done outside web requests (ingest,
        # direct analyze calls), and the batched page fetch cut the
        # per-page web cost, so the db share can legitimately exceed 1.
        assert split["shares"]["db"] > 0.0
        pages = page_characteristics(hedc.obs)
        assert pages["hle_pages"] == len(driven["browses"])
        assert pages["bytes_per_request"] > 0
        # §7.2: "seven database queries" per HLE display page — the live
        # count stays the right order of magnitude (ingest and analysis
        # queries inflate the naive per-page ratio).
        assert pages["dm_queries_per_page"] > 0

    def test_calibration_drift_entries_cover_the_model_constants(self, hedc, driven):
        from repro.obs import calibration_drift, usage_report

        entries = calibration_drift(hedc.obs)
        metrics = {entry["metric"] for entry in entries}
        assert "html_bytes_per_request" in metrics
        assert "db_query_service_s" in metrics
        for entry in entries:
            assert entry["ratio"] == pytest.approx(
                entry["measured"] / entry["predicted"])
            assert isinstance(entry["drifted"], bool)
        report = usage_report(hedc.obs)
        json.dumps(report)      # the whole report is JSON-ready


class TestDebugServlet:
    def test_json_view_serves_the_whole_panel(self, hedc, driven):
        # The panel reports the *currently installed* injector's points.
        with use_injector(driven["injector"]):
            response = hedc.web.handle(
                HttpRequest.get("/hedc/debug?format=json", {}, "127.0.0.1"))
        assert response.status == 200
        body = json.loads(response.body)
        assert body["usage"]["request_mix"]
        assert body["events"], "event log must surface in the panel"
        assert body["slow_ops"]
        assert body["exemplars"]
        assert body["profiler"]["running"] is False
        assert hedc.idl.breaker.name in body["resilience"]["breakers"]
        assert "idl.crash" in body["resilience"]["faults"]

    def test_text_view_renders(self, hedc, driven):
        response = hedc.web.handle(HttpRequest.get("/hedc/debug", {}, "127.0.0.1"))
        assert response.status == 200
        text = response.text
        assert "request mix" in text
        assert "/hedc/hle" in text
        assert "breakers:" in text

    def test_metrics_json_includes_resilience(self, hedc, driven):
        with use_injector(driven["injector"]):
            response = hedc.web.handle(
                HttpRequest.get("/hedc/metrics?format=json", {}, "127.0.0.1"))
        body = json.loads(response.body)
        breakers = body["resilience"]["breakers"]
        assert hedc.idl.breaker.name in breakers
        snap = breakers[hedc.idl.breaker.name]
        assert {"state", "trips", "window"} <= set(snap)
        assert body["resilience"]["faults"]["idl.crash"]["rate"] == 1.0

    def test_telemetry_report_carries_resilience_and_diagnostics(self, hedc, driven):
        with use_injector(driven["injector"]):
            report = hedc.telemetry_report()
        assert hedc.idl.breaker.name in report["resilience"]["breakers"]
        assert report["resilience"]["faults"]["idl.crash"]["fired"] >= 10
        assert report["diagnostics"]["events"] >= 1
        assert report["diagnostics"]["slow_ops"] >= 1


class TestProfilerOverTraffic:
    def test_profiler_captures_live_traffic(self, hedc, driven):
        hedc.obs.profiler.start(hz=400.0)
        try:
            for _ in range(3):
                driven["client"].browse_hle(driven["hle_id"])
            time.sleep(0.05)    # guarantee a few sampler wakeups
        finally:
            samples = hedc.obs.profiler.stop()
        assert samples > 0
        collapsed = hedc.obs.profiler.collapsed()
        assert collapsed
        hedc.obs.profiler.reset()
