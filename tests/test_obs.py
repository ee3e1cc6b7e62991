"""Tests for repro.obs: metrics, tracing, exporters, instrumentation."""

import contextvars
import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    NO_DATA,
    NULL_SPAN,
    NoData,
    Observability,
    Tracer,
    instrument,
    to_json_snapshot,
    to_line_protocol,
)


class TestCountersAndGauges:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("req", route="/a").inc()
        registry.counter("req", route="/b").inc(2)
        assert registry.value("req", route="/a") == 1
        assert registry.value("req", route="/b") == 2
        assert registry.family_total("req") == 3
        # Same identity returns the same object.
        assert registry.counter("req", route="/a") is registry.counter("req", route="/a")

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_reset_preserves_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(7)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.value("c") == 1


class TestHistogram:
    def test_quantiles_on_uniform_distribution(self):
        registry = MetricsRegistry()
        bounds = [i / 100 for i in range(1, 101)]  # 0.01 .. 1.00
        histogram = registry.histogram("lat", bounds=bounds)
        for k in range(1, 1001):
            histogram.observe(k / 1000)
        assert histogram.count == 1000
        assert histogram.quantile(0.50) == pytest.approx(0.50, abs=0.02)
        assert histogram.quantile(0.95) == pytest.approx(0.95, abs=0.02)
        assert histogram.quantile(0.99) == pytest.approx(0.99, abs=0.02)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(1.0)

    def test_quantiles_on_bimodal_distribution(self):
        registry = MetricsRegistry()
        bounds = [0.001, 0.01, 0.1, 1.0, 10.0]
        histogram = registry.histogram("lat", bounds=bounds)
        for _ in range(90):
            histogram.observe(0.005)  # fast mode
        for _ in range(10):
            histogram.observe(5.0)  # slow tail
        assert histogram.quantile(0.5) < 0.01
        assert histogram.quantile(0.95) > 1.0

    def test_overflow_bucket_and_extremes(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=[1.0])
        histogram.observe(100.0)
        assert histogram.quantile(1.0) == pytest.approx(100.0)
        assert histogram.quantile(0.0) == pytest.approx(100.0)

    def test_empty_histogram_quantile_is_no_data(self):
        # Regression (PR-10): an empty histogram used to answer 0.0 —
        # indistinguishable from a genuinely instant operation.
        histogram = MetricsRegistry().histogram("lat")
        value = histogram.quantile(0.5)
        assert value is NO_DATA
        assert isinstance(value, NoData)
        assert not value            # falsy: `if p95:` skips it
        assert value != value       # NaN semantics propagate
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_reset_histogram_quantile_is_no_data(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(0.25)
        assert histogram.quantile(0.5) is not NO_DATA
        histogram.reset()
        assert histogram.quantile(0.95) is NO_DATA

    def test_empty_histogram_snapshot_and_exports_are_clean(self):
        # The sentinel must never leak NaN into JSON or line protocol.
        registry = MetricsRegistry()
        registry.histogram("lat", route="/x")
        snapshot = registry.get("lat", route="/x").snapshot()
        assert snapshot["p50"] is None and snapshot["p95"] is None
        assert snapshot["mean"] is None
        text = to_line_protocol(registry)
        assert "nan" not in text.lower()
        assert "count=0i" in text
        json.loads(json.dumps(to_json_snapshot(registry)))  # strict-parsable

    def test_snapshot_fields(self):
        histogram = MetricsRegistry().histogram("lat", route="/x")
        histogram.observe(0.5)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["labels"] == {"route": "/x"}
        assert snap["mean"] == pytest.approx(0.5)
        assert set(snap) >= {"p50", "p95", "p99", "min", "max"}


class TestRegistryThreadSafety:
    def test_concurrent_writers_lose_no_updates(self):
        registry = MetricsRegistry()
        n_threads, n_updates = 8, 2000

        def work():
            for _ in range(n_updates):
                registry.counter("shared").inc()
                registry.histogram("h", bounds=[0.5]).observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("shared") == n_threads * n_updates
        assert registry.get("h").count == n_threads * n_updates

    def test_concurrent_get_or_create_yields_one_identity(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            seen.append(registry.counter("raced", node="n1"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(metric) for metric in seen}) == 1


class TestTracer:
    def test_span_nesting_within_a_thread(self):
        tracer = Tracer()
        with tracer.span("web.handle"):
            with tracer.span("dm.query"):
                with tracer.span("metadb.execute"):
                    pass
            with tracer.span("dm.query"):
                pass
        roots = tracer.finished_spans()
        assert len(roots) == 1
        assert roots[0].tree_names() == [
            "web.handle", "dm.query", "metadb.execute", "dm.query",
        ]
        assert all(span.trace_id == roots[0].span_id for span in roots[0].walk())

    def test_cross_thread_propagation_via_copied_context(self):
        tracer = Tracer()
        with tracer.span("parent"):
            ctx = contextvars.copy_context()

            def work():
                with tracer.span("child"):
                    pass

            thread = threading.Thread(target=lambda: ctx.run(work))
            thread.start()
            thread.join()
        root = tracer.finished_spans()[0]
        assert root.tree_names() == ["parent", "child"]
        assert root.children[0].thread_name != root.thread_name

    def test_exception_marks_span_as_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span = tracer.finished_spans()[0]
        assert span.status == "error"
        assert "boom" in span.error
        assert span.duration_s is not None

    def test_bounded_retention(self):
        tracer = Tracer(max_finished=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]


class TestObservabilityHub:
    def test_tracing_disabled_by_default(self):
        obs = Observability()
        with obs.span("invisible") as span:
            assert span is NULL_SPAN
            span.set_tag("ignored", 1)  # absorbed, no error
        assert obs.tracer.finished_spans() == []
        assert obs.current_span() is None

    def test_metrics_collect_even_when_tracing_is_off(self):
        obs = Observability()
        with obs.timed("op_s") as timer:
            pass
        assert timer.elapsed_s >= 0.0
        assert obs.registry.get("op_s").count == 1

    def test_timed_opens_span_when_enabled(self):
        obs = Observability(enabled=True)
        with obs.timed("op_s", kind="test") as timer:
            assert timer.span is not None
        root = obs.tracer.finished_spans()[0]
        assert root.name == "op_s"
        assert obs.registry.get("op_s", kind="test").count == 1

    def test_instrument_decorator_uses_instance_hub(self):
        class Component:
            def __init__(self):
                self.obs = Observability(enabled=True)

            @instrument("component.work_s")
            def work(self, x):
                return x * 2

        component = Component()
        assert component.work(21) == 42
        assert component.obs.registry.get("component.work_s").count == 1
        assert component.obs.tracer.finished_spans()[0].name == "component.work_s"


class TestExporters:
    def _populated(self):
        obs = Observability(enabled=True)
        obs.count("reqs", 3, route="/hle")
        obs.observe("lat_s", 0.25, route="/hle")
        with obs.span("root"):
            with obs.span("leaf"):
                pass
        return obs

    def test_line_protocol_round_trip(self):
        obs = self._populated()
        text = to_line_protocol(obs.registry)
        lines = dict(
            line.split(" ", 1) for line in text.strip().splitlines()
        )
        assert lines["reqs,route=/hle"] == "value=3i"
        assert "count=1i" in lines["lat_s,route=/hle"]
        assert "p95=" in lines["lat_s,route=/hle"]

    def test_json_snapshot_includes_traces(self):
        obs = self._populated()
        snapshot = to_json_snapshot(obs.registry, tracer=obs.tracer)
        assert snapshot["metrics"]["reqs"][0]["value"] == 3
        assert snapshot["traces"][0]["name"] == "root"
        assert snapshot["traces"][0]["children"][0]["name"] == "leaf"
        json.dumps(snapshot)  # fully serialisable
