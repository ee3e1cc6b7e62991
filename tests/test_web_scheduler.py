"""The concurrent serving tier: executors, admission control, batched
page fetch, Retry-After-honoring clients.

Functional tests drive real :class:`~repro.web.WebServer` instances
through :mod:`repro.web.loadgen` stacks at zero wire latency (fast), or
through deterministic gate-blocked servlets where ordering matters.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import Observability
from repro.web import (
    CLASS_ANALYSIS,
    CLASS_BROWSE,
    CLASS_BULK,
    AdmissionController,
    HttpRequest,
    HttpResponse,
    ScheduledRequest,
    ThinClient,
    browse_mix,
    build_serving_stack,
    classify_route,
    mixed_class_mix,
    run_closed_loop,
    run_open_loop,
)
from repro.web.scheduler import DEFAULT_ROUTE_CLASSES

from . import oracle_pages


@pytest.fixture()
def stack(tmp_path):
    """A small zero-latency deployment on the sync executor."""
    built = build_serving_stack(tmp_path, n_hles=8, rtt_s=0.0)
    yield built
    built.shutdown()


@pytest.fixture()
def pool_stack(tmp_path):
    """The same deployment on an 8-worker pool."""
    built = build_serving_stack(tmp_path, n_hles=8, rtt_s=0.0,
                                scheduler="pool", n_workers=8)
    yield built
    built.shutdown()


def _task(route: str = "/hedc/hle", cls: str = CLASS_BROWSE,
          **kwargs) -> ScheduledRequest:
    return ScheduledRequest(HttpRequest.get(route, {}, "127.0.0.1"),
                            route, request_class=cls, **kwargs)


class TestClassification:
    def test_default_route_classes_cover_every_route(self):
        assert classify_route("/hedc/analyze") == CLASS_ANALYSIS
        assert classify_route("/hedc/hle") == CLASS_BROWSE
        assert classify_route("/static") == CLASS_BULK
        assert classify_route("/nowhere") == CLASS_BROWSE

    def test_overrides_win(self):
        assert classify_route("/hedc/hle",
                              {"/hedc/hle": CLASS_BULK}) == CLASS_BULK

    def test_operator_telemetry_rides_the_analysis_class(self):
        # Losing /hedc/metrics *during* an overload would blind the
        # operator exactly when §7's moving target moves.
        assert DEFAULT_ROUTE_CLASSES["/hedc/metrics"] == CLASS_ANALYSIS
        assert DEFAULT_ROUTE_CLASSES["/hedc/debug"] == CLASS_ANALYSIS


class TestScheduledRequest:
    def test_resolution_is_write_once(self):
        task = _task()
        assert task.resolve(HttpResponse.error(503, "a")) is True
        assert task.resolve(HttpResponse.error(200, "b")) is False
        assert task.response.status == 503
        assert task.resolved_at is not None

    def test_on_resolve_fires_exactly_once(self):
        calls = []
        task = _task(on_resolve=calls.append)
        task.resolve(HttpResponse.error(503, "a"))
        task.resolve(HttpResponse.error(200, "b"))
        assert calls == [task]

    def test_result_times_out_to_none(self):
        assert _task().result(timeout=0.01) is None


class TestAdmissionController:
    def test_full_queue_sheds_arrival_with_retry_after(self):
        admission = AdmissionController(max_queue_depth=2, obs=Observability())
        assert admission.submit(_task()) is True
        assert admission.submit(_task()) is True
        shed = _task()
        assert admission.submit(shed) is False
        assert shed.response.status == 503
        assert int(shed.response.headers["Retry-After"]) >= 1
        assert admission.depth() == 2

    def test_full_queue_evicts_newer_less_important_work(self):
        admission = AdmissionController(max_queue_depth=2, obs=Observability())
        browse_old, browse_new = _task(), _task()
        admission.submit(browse_old)
        admission.submit(browse_new)
        analysis = _task("/hedc/search", CLASS_ANALYSIS)
        assert admission.submit(analysis) is True
        # The *newest* browse was shed to make room; the older one keeps
        # its place (it has waited longest).
        assert browse_new.response.status == 503
        assert browse_old.response is None
        # Drain order is strict priority: analysis first.
        assert admission.take(0.0) is analysis
        assert admission.take(0.0) is browse_old

    def test_analysis_is_never_evicted_for_analysis(self):
        admission = AdmissionController(max_queue_depth=1, obs=Observability())
        first = _task("/hedc/search", CLASS_ANALYSIS)
        admission.submit(first)
        second = _task("/hedc/search", CLASS_ANALYSIS)
        # Equal priority: no eviction, the arrival itself is shed.
        assert admission.submit(second) is False
        assert first.response is None

    def test_priorities_off_degrades_to_plain_bounded_fifo(self):
        admission = AdmissionController(max_queue_depth=1, priorities=False,
                                        obs=Observability())
        browse = _task()
        admission.submit(browse)
        analysis = _task("/hedc/search", CLASS_ANALYSIS)
        assert admission.submit(analysis) is False      # no eviction
        assert analysis.response.status == 503
        assert browse.response is None

    def test_close_sheds_everything_queued(self):
        admission = AdmissionController(max_queue_depth=4, obs=Observability())
        tasks = [_task() for _ in range(3)]
        for task in tasks:
            admission.submit(task)
        admission.close()
        assert all(task.response.status == 503 for task in tasks)
        assert admission.submit(_task()) is False       # closed

    def test_report_carries_the_panel_fields(self):
        admission = AdmissionController(max_queue_depth=4, obs=Observability())
        admission.submit(_task())
        report = admission.report()
        assert report["depth"][CLASS_BROWSE] == 1
        assert report["admitted"][CLASS_BROWSE] == 1
        assert report["retry_after_s"] >= 1.0


class TestSyncExecutor:
    def test_sync_server_serves_pages(self, stack):
        response = stack.web.handle(
            stack.request(f"/hedc/hle?id={stack.hle_ids[0]}"))
        assert response.status == 200
        assert stack.web.serving_report()["scheduler"] == "sync"

    def test_route_bulkhead_releases_on_servlet_exception(self, tmp_path):
        # Satellite audit: a raising servlet must not leak its bulkhead
        # permit — with a cap of 1, a leak would 503 every later request.
        stack = build_serving_stack(tmp_path / "boom", n_hles=4, rtt_s=0.0,
                                    route_limits={"/boom": 1})
        try:
            def explode(request):
                raise RuntimeError("boom")

            stack.web.router.add("/boom", explode)
            request = stack.request("/boom")
            for _attempt in range(3):
                assert stack.web.handle(request).status == 500
            assert stack.web._route_bulkheads["/boom"].in_use == 0
        finally:
            stack.shutdown()


class TestWorkerPool:
    def test_pool_serves_pages_and_reports(self, pool_stack):
        response = pool_stack.web.handle(
            pool_stack.request(f"/hedc/hle?id={pool_stack.hle_ids[0]}"))
        assert response.status == 200
        report = pool_stack.web.serving_report()
        assert report["scheduler"] == "pool"
        assert report["n_workers"] == 8
        assert report["queue"]["priorities"] is True

    def test_submit_is_non_blocking_and_resolves(self, pool_stack):
        tasks = [pool_stack.web.submit(
            pool_stack.request(f"/hedc/hle?id={hle_id}"))
            for hle_id in pool_stack.hle_ids]
        for task in tasks:
            response = task.result(timeout=10.0)
            assert response is not None and response.status == 200

    def test_metrics_servlet_exposes_the_serving_panel(self, pool_stack):
        import json

        response = pool_stack.web.handle(
            pool_stack.request("/hedc/metrics?format=json"))
        body = json.loads(response.body)
        assert body["serving"]["scheduler"] == "pool"
        assert body["serving"]["queue"]["max_queue_depth"] == 64
        assert "/hedc/analyze" in body["serving"]["routes"]

    def test_debug_servlet_renders_the_serving_panel(self, pool_stack):
        response = pool_stack.web.handle(pool_stack.request("/hedc/debug"))
        assert response.status == 200
        assert b"serving" in response.body


class TestPriorityScheduling:
    """Deterministic priority tests: one worker, gate-blocked."""

    def _gated_stack(self, tmp_path, **kwargs):
        stack = build_serving_stack(tmp_path, n_hles=4, rtt_s=0.0,
                                    scheduler="pool", n_workers=1,
                                    **kwargs)
        gate = threading.Event()
        started = threading.Event()

        def plug(request):
            started.set()
            gate.wait(10.0)
            return HttpResponse.html("<p>unplugged</p>")

        stack.web.router.add("/plug", plug)
        return stack, gate, started

    def test_no_priority_inversion_analysis_overtakes_queued_browse(
            self, tmp_path):
        stack, gate, started = self._gated_stack(tmp_path, max_queue_depth=8)
        try:
            stack.web.submit(stack.request("/plug"))    # occupy the worker
            assert started.wait(5.0)
            browse = [stack.web.submit(
                stack.request(f"/hedc/hle?id={stack.hle_ids[0]}"))
                for _ in range(3)]
            analysis = stack.web.submit(
                stack.request("/hedc/search?min_rate=50"))
            gate.set()
            assert analysis.result(10.0).status == 200
            for task in browse:
                assert task.result(10.0).status == 200
            # The analysis arrived last but was served first: its
            # resolution precedes every browse resolution.
            assert all(analysis.resolved_at <= task.resolved_at
                       for task in browse)
        finally:
            gate.set()
            stack.shutdown()

    def test_full_queue_sheds_browse_to_admit_analysis(self, tmp_path):
        stack, gate, started = self._gated_stack(tmp_path, max_queue_depth=2)
        try:
            stack.web.submit(stack.request("/plug"))
            assert started.wait(5.0)
            browse = [stack.web.submit(
                stack.request(f"/hedc/hle?id={stack.hle_ids[0]}"))
                for _ in range(2)]                      # queue now full
            analysis = stack.web.submit(
                stack.request("/hedc/search?min_rate=50"))
            # The newest browse was shed immediately, 503 + Retry-After.
            shed = browse[1]
            assert shed.done and shed.response.status == 503
            assert "Retry-After" in shed.response.headers
            gate.set()
            assert analysis.result(10.0).status == 200
            assert browse[0].result(10.0).status == 200
        finally:
            gate.set()
            stack.shutdown()

    def test_queued_past_deadline_expires_without_occupying_the_worker(
            self, tmp_path):
        stack, gate, started = self._gated_stack(tmp_path,
                                                 max_queue_depth=8,
                                                 request_budget_s=0.15)
        served = []
        original = stack.web._serve
        stack.web._serve = lambda task: (served.append(task.route),
                                         original(task))[1]
        try:
            plug_task = stack.web.submit(stack.request("/plug"))
            assert started.wait(5.0)
            queued = stack.web.submit(
                stack.request(f"/hedc/hle?id={stack.hle_ids[0]}"))
            time.sleep(0.3)                 # budget expires while queued
            gate.set()
            response = queued.result(10.0)
            assert response.status == 504
            # The worker never dispatched the expired request.
            assert "/hedc/hle" not in served
            registry = stack.obs.registry
            expired = [metric.value for metric in
                       registry.family("web.sched.expired")
                       if metric.labels.get("cls") == CLASS_BROWSE]
            assert sum(expired) == 1
            assert plug_task.result(10.0) is not None
        finally:
            gate.set()
            stack.shutdown()


class TestFairnessUnderOverload:
    def test_analysis_goodput_protected_at_two_x_overload(self, tmp_path):
        """The acceptance shape: under 2x-capacity overload with
        admission control, analysis-class goodput stays within 10% of
        its uncontended (= offered) rate while browse is shed; without
        admission control, analysis degrades with everyone else."""
        stack = build_serving_stack(tmp_path / "ac", scheduler="pool",
                                    n_workers=8, admission_control=True,
                                    max_queue_depth=32)
        capacity = run_closed_loop(stack, mixed_class_mix(stack),
                                   n_clients=16,
                                   duration_s=0.8).throughput_rps
        overload = run_open_loop(stack, mixed_class_mix(stack),
                                 rate_rps=2.0 * capacity, duration_s=1.5)
        stack.shutdown()
        summary = overload.summary()
        analysis = summary["classes"]["analysis"]
        browse = summary["classes"]["browse"]
        # Uncontended, every offered analysis request completes; under
        # overload, strict priority keeps it that way within 10%.
        assert analysis["ok"] >= 0.9 * analysis["sent"]
        assert browse["shed"] > 0

        baseline = build_serving_stack(tmp_path / "fifo", scheduler="pool",
                                       n_workers=8, admission_control=False,
                                       max_queue_depth=32)
        fifo = run_open_loop(baseline, mixed_class_mix(baseline),
                             rate_rps=2.0 * capacity, duration_s=1.5)
        baseline.shutdown()
        fifo_analysis = fifo.summary()["classes"]["analysis"]
        # Plain FIFO sheds classes indiscriminately: analysis goodput is
        # strictly worse than under priority admission.
        assert fifo_analysis["goodput_rps"] < analysis["goodput_rps"]


class TestBatchedPageFetch:
    """The two-trip page against ``tests/oracle_pages.py``, the
    one-query-per-trip sequence it replaced."""

    def test_batched_and_unbatched_pages_are_byte_identical(self, stack, monkeypatch):
        request = stack.request(f"/hedc/hle?id={stack.hle_ids[0]}")
        batched = stack.web.handle(request)
        monkeypatch.setattr(type(stack.dm), "fetch_page", oracle_pages.fetch_page)
        unbatched = stack.web.handle(request)
        assert batched.status == unbatched.status == 200
        assert batched.body == unbatched.body

    def test_page_round_trips_collapse_seven_to_two(self, stack, monkeypatch):
        io_stats = stack.dm.io.stats
        request = stack.request(f"/hedc/hle?id={stack.hle_ids[0]}")

        def cost():
            queries, trips = io_stats.queries, io_stats.round_trips
            assert stack.web.handle(request).status == 200
            return io_stats.queries - queries, io_stats.round_trips - trips

        assert cost() == (7, 2)              # logical queries unchanged
        monkeypatch.setattr(type(stack.dm), "fetch_page", oracle_pages.fetch_page)
        assert cost() == (7, 7)

    def test_fetch_page_results_match_across_paths(self, stack):
        user = stack.dm.authenticate("loadgen", "loadgen-pw")
        batched = stack.dm.fetch_page(user, stack.hle_ids[0])
        unbatched = oracle_pages.fetch_page(stack.dm, user, stack.hle_ids[0])
        assert batched.hle == unbatched.hle
        assert batched.analyses == unbatched.analyses
        assert batched.n_analyses == unbatched.n_analyses
        assert batched.n_catalogs == unbatched.n_catalogs
        assert batched.similar == unbatched.similar
        assert batched.neighbours == unbatched.neighbours
        assert batched.files == unbatched.files


class TestThinClientRetryAfter:
    def test_client_backs_off_for_the_server_hint(self, stack):
        client = ThinClient(stack.web)
        sleeps = []
        client._sleep = sleeps.append
        responses = [HttpResponse.error(503, "shed"), HttpResponse.html("ok")]
        responses[0].headers["Retry-After"] = "2"
        stack.web.handle = lambda request: responses.pop(0)
        response = client.get("/hedc/catalogs")
        assert response.status == 200
        assert sleeps == [2.0]
        registry = stack.obs.registry
        waits = sum(metric.value for metric in
                    registry.family("client.retry_after_waits"))
        assert waits == 1

    def test_hint_is_capped_and_retries_bounded(self, stack):
        client = ThinClient(stack.web)
        sleeps = []
        client._sleep = sleeps.append

        def always_shed(request):
            response = HttpResponse.error(503, "shed")
            response.headers["Retry-After"] = "30"
            return response

        stack.web.handle = always_shed
        response = client.get("/hedc/catalogs")
        assert response.status == 503
        assert sleeps == [client.max_retry_after_s]     # capped, once

    def test_503_without_hint_is_not_retried(self, stack):
        client = ThinClient(stack.web)
        client._sleep = pytest.fail                     # must not sleep
        calls = []

        def shed_without_hint(request):
            calls.append(request)
            return HttpResponse.error(503, "shed")

        stack.web.handle = shed_without_hint
        assert client.get("/hedc/catalogs").status == 503
        assert len(calls) == 1


class TestLoadHarness:
    def test_closed_loop_reports_per_class_outcomes(self, pool_stack):
        result = run_closed_loop(pool_stack, browse_mix(pool_stack),
                                 n_clients=4, duration_s=0.3)
        summary = result.summary()
        assert summary["mode"] == "closed"
        assert summary["ok"] > 0
        assert "browse" in summary["classes"]
        assert summary["classes"]["browse"]["p95_s"] >= \
            summary["classes"]["browse"]["p50_s"]

    def test_open_loop_offers_a_fixed_rate(self, pool_stack):
        result = run_open_loop(pool_stack, browse_mix(pool_stack),
                               rate_rps=50.0, duration_s=0.5)
        assert result.mode == "open"
        assert result.sent == pytest.approx(25, abs=10)
        assert result.ok > 0

    def test_remote_database_charges_one_rtt_per_round_trip(self, tmp_path):
        stack = build_serving_stack(tmp_path, n_hles=4, rtt_s=0.02)
        try:
            user = stack.dm.authenticate("loadgen", "loadgen-pw")
            started = time.perf_counter()
            stack.dm.fetch_page(user, stack.hle_ids[0])
            batched_s = time.perf_counter() - started
            started = time.perf_counter()
            oracle_pages.fetch_page(stack.dm, user, stack.hle_ids[0])
            unbatched_s = time.perf_counter() - started
        finally:
            stack.shutdown()
        # 2 sleeps vs 7 sleeps of 20ms: the batched page is decisively
        # cheaper in wall-clock, with generous slack for scheduler noise.
        assert batched_s < 0.02 * 4
        assert unbatched_s > 0.02 * 6
        assert unbatched_s > batched_s
