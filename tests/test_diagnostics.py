"""Deep diagnostics: event log, slow log, exemplars, profiler, usage.

Unit-level coverage for the ``repro.obs`` v2 surfaces; the end-to-end
scenario (browse + chaos → correlated diagnostics) lives in
``test_diagnostics_e2e.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.metadb import (
    Column,
    ColumnType,
    Comparison,
    Database,
    Insert,
    Join,
    Select,
    TableSchema,
)
from repro.obs import (
    EventLog,
    Observability,
    SamplingProfiler,
    SlowLog,
    critical_path,
    span_self_times,
    to_line_protocol,
    trace_profile,
)
from repro.resil import CircuitBreaker, FaultInjector


# -- event log -----------------------------------------------------------------


class TestEventLog:
    def test_emit_and_filtered_read(self):
        log = EventLog()
        log.emit("info", "resil", "breaker.transition", "closed -> open",
                 breaker="pl.idl")
        log.emit("warn", "metadb", "wal.recovered", records_replayed=3)
        log.emit("error", "idl", "server.crashed", server="idl0")
        assert len(log) == 3
        assert [e.kind for e in log.records(component="idl")] == ["server.crashed"]
        warns = log.records(min_severity="warn")
        assert [e.severity for e in warns] == ["warn", "error"]
        assert log.find("wal.recovered")[0].fields["records_replayed"] == 3

    def test_ring_buffer_bounds_memory(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.emit("info", "test", "tick", index=index)
        assert len(log) == 4
        assert log.total_emitted == 10
        assert [e.fields["index"] for e in log.records()] == [6, 7, 8, 9]

    def test_sequence_is_monotonic_and_jsonl_parses(self):
        log = EventLog()
        log.emit("info", "a", "k1")
        log.emit("info", "a", "k2")
        lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert [line["seq"] for line in lines] == [1, 2]
        assert all("t_monotonic" in line for line in lines)

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("fatal", "a", "k")

    def test_disabled_log_drops_events(self):
        log = EventLog()
        log.enabled = False
        assert log.emit("info", "a", "k") is None
        assert len(log) == 0

    def test_concurrent_emitters_lose_no_events(self):
        log = EventLog(capacity=4096)
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for _ in range(200):
                log.emit("info", "t", "tick")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.total_emitted == 800
        assert len({event.seq for event in log.records()}) == 800

    def test_hub_event_correlates_to_current_span(self):
        obs = Observability(enabled=True)
        with obs.tracer.span("request") as span:
            obs.event("warn", "resil", "breaker.transition", breaker="b")
        event = obs.events.find("breaker.transition")[0]
        assert event.trace_id == span.trace_id
        assert event.span_id == span.span_id

    def test_hub_event_without_tracing_has_no_correlation(self):
        obs = Observability()
        obs.event("info", "dm", "cache_epoch.bumped", epoch=1)
        event = obs.events.records()[0]
        assert event.trace_id is None and event.span_id is None


# -- slow log ------------------------------------------------------------------


class TestSlowLog:
    def test_unconfigured_threshold_is_none(self):
        log = SlowLog()
        assert log.threshold_for("metadb.execute") is None
        assert not log.active

    def test_configure_record_and_remove(self):
        log = SlowLog()
        log.configure("metadb.execute", 0.01)
        assert log.threshold_for("metadb.execute") == 0.01
        log.record("metadb.execute", 0.05, 0.01, statement="SELECT ...",
                   plan={"access": "full_scan"})
        [op] = log.records("metadb.execute")
        assert op.duration_s == 0.05
        assert op.detail["plan"]["access"] == "full_scan"
        log.configure("metadb.execute", None)
        assert log.threshold_for("metadb.execute") is None

    def test_ring_bound_and_snapshot(self):
        log = SlowLog(capacity=3)
        for index in range(5):
            log.record("op", 0.1 + index, 0.05, index=index)
        snapshot = log.snapshot()
        assert len(snapshot) == 3
        assert log.total_recorded == 5
        assert snapshot[-1]["detail"]["index"] == 4

    def test_hub_slow_op_correlates_to_span(self):
        obs = Observability(enabled=True)
        with obs.tracer.span("request") as span:
            obs.slow_op("pl.run", 0.3, 0.1, algorithm="imaging")
        [op] = obs.slowlog.records()
        assert op.trace_id == span.trace_id
        assert op.detail["algorithm"] == "imaging"


# -- database slow log integration ---------------------------------------------


def _scan_db() -> Database:
    database = Database(obs=Observability())
    database.create_table(TableSchema(
        "t",
        [Column("a", ColumnType.INTEGER, nullable=False),
         Column("b", ColumnType.REAL, nullable=False)],
        primary_key="a",
    ))
    for index in range(50):
        database.execute(Insert("t", {"a": index, "b": float(index)}))
    return database


class TestDatabaseSlowLog:
    def test_slow_select_captures_plan_and_predicate(self):
        database = _scan_db()
        database.obs.slowlog.configure("metadb.execute", 0.0)  # everything is slow
        database.execute(Select("t", where=Comparison("b", ">=", 10.0)))
        ops = database.obs.slowlog.records("metadb.execute")
        assert ops, "select above threshold must be captured"
        detail = ops[-1].detail
        assert detail["op"] == "select"
        assert "SELECT" in detail["statement"].upper()
        assert "plan" in detail and "access" in detail["plan"]
        assert "predicate" in detail

    def test_a_slow_join_is_logged_as_the_statement_that_ran(self):
        """The dialect has no JOIN: the entry carries the collection
        object, not the SQL of the same statement without its join."""
        database = _scan_db()
        database.obs.slowlog.configure("metadb.execute", 0.0)
        database.execute(Select("t", where=Comparison("a", "<", 3),
                                join=Join("t", "a", "a", outer=True)))
        detail = database.obs.slowlog.records("metadb.execute")[-1].detail
        assert "Join(table='t'" in detail["statement"]
        assert "outer=True" in detail["statement"]
        assert detail["plan"]["access"]

    def test_fast_path_untouched_when_unconfigured(self):
        database = _scan_db()
        database.execute(Select("t"))
        assert len(database.obs.slowlog) == 0

    def test_mutations_capture_statement_without_plan(self):
        database = _scan_db()
        database.obs.slowlog.configure("metadb.execute", 0.0)
        database.execute(Insert("t", {"a": 999, "b": 1.0}))
        op = database.obs.slowlog.records("metadb.execute")[-1]
        assert op.detail["op"] == "insert"
        assert "plan" not in op.detail


# -- histogram exemplars -------------------------------------------------------


class TestExemplars:
    def test_max_value_exemplar_kept_per_bucket(self):
        obs = Observability()
        histogram = obs.histogram("lat_s", bounds=[0.1, 1.0])
        histogram.observe(0.02, exemplar=(11, 101))
        histogram.observe(0.07, exemplar=(22, 202))   # same bucket, larger
        histogram.observe(0.5, exemplar=(33, 303))    # next bucket
        histogram.observe(0.03)                       # no exemplar: slot kept
        slots = {slot["le"]: slot for slot in histogram.exemplars()}
        assert slots[0.1]["trace_id"] == 22
        assert slots[0.1]["value"] == 0.07
        assert slots[1.0]["span_id"] == 303

    def test_snapshot_includes_exemplars_and_reset_clears(self):
        obs = Observability()
        histogram = obs.histogram("lat_s")
        histogram.observe(0.2, exemplar=(1, 2))
        assert histogram.snapshot()["exemplars"]
        obs.registry.reset()
        assert histogram.exemplars() == []

    def test_hub_observe_attaches_current_span(self):
        obs = Observability(enabled=True)
        with obs.tracer.span("work") as span:
            obs.observe("work_s", 0.4)
        [slot] = obs.registry.get("work_s").exemplars()
        assert slot["trace_id"] == span.trace_id

    def test_timed_attaches_own_span(self):
        obs = Observability(enabled=True)
        with obs.timed("step_s") as timer:
            pass
        [slot] = obs.registry.get("step_s").exemplars()
        assert slot["span_id"] == timer.span.span_id

    def test_no_exemplars_when_tracing_disabled(self):
        obs = Observability()
        obs.observe("work_s", 0.4)
        assert obs.registry.get("work_s").exemplars() == []


# -- sampling profiler ---------------------------------------------------------


class TestSamplingProfiler:
    def test_default_off_owns_no_thread(self):
        profiler = SamplingProfiler()
        assert not profiler.running
        assert profiler.stop() == 0

    def test_samples_a_busy_thread_into_collapsed_stacks(self):
        profiler = SamplingProfiler(hz=200.0)
        stop = threading.Event()

        def busy_loop_for_profiler():
            while not stop.is_set():
                sum(range(500))

        thread = threading.Thread(target=busy_loop_for_profiler, daemon=True)
        thread.start()
        profiler.start()
        time.sleep(0.25)
        samples = profiler.stop()
        stop.set()
        thread.join()
        assert samples > 0
        collapsed = profiler.collapsed()
        assert collapsed, "expected at least one sampled stack"
        line = collapsed.splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack
        assert "busy_loop_for_profiler" in collapsed

    def test_double_start_is_noop_and_reset_clears(self):
        profiler = SamplingProfiler(hz=500.0)
        profiler.start()
        assert profiler.start() is profiler
        time.sleep(0.05)
        profiler.stop()
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.collapsed() == ""

    def test_snapshot_shape(self):
        profiler = SamplingProfiler()
        snapshot = profiler.snapshot()
        assert snapshot["running"] is False
        assert snapshot["top_stacks"] == []


# -- trace-tree time analysis --------------------------------------------------


class TestTraceProfile:
    def _tree(self):
        obs = Observability(enabled=True)
        with obs.tracer.span("web.handle"):
            with obs.tracer.span("dm.query"):
                time.sleep(0.02)
            with obs.tracer.span("pl.run"):
                time.sleep(0.04)
        return obs.tracer.finished_spans()[0]

    def test_self_times_sum_to_root_duration(self):
        root = self._tree()
        rows = span_self_times(root)
        assert {row["name"] for row in rows} == {"web.handle", "dm.query", "pl.run"}
        total_self = sum(row["self_s"] for row in rows)
        assert total_self == pytest.approx(root.duration_s, rel=0.05)

    def test_critical_path_follows_longest_child(self):
        root = self._tree()
        names = [span.name for span in critical_path(root)]
        assert names == ["web.handle", "pl.run"]

    def test_trace_profile_is_json_ready(self):
        profile = trace_profile(self._tree())
        json.dumps(profile)
        assert profile["critical_path"][0]["name"] == "web.handle"


# -- breaker / fault-injection events ------------------------------------------


class TestResilEvents:
    def test_breaker_transitions_emit_events(self):
        obs = Observability()
        breaker = CircuitBreaker("b", window=4, min_calls=2, failure_rate=0.5,
                                 cooldown_s=0.0, obs=obs)
        breaker.record_failure()
        breaker.record_failure()       # trips
        assert breaker.state.value == "half_open"  # cooldown 0 -> probe window
        kinds = [(e.fields["from_state"], e.fields["to_state"])
                 for e in obs.events.find("breaker.transition")]
        assert ("closed", "open") in kinds
        assert ("open", "half_open") in kinds
        open_event = obs.events.find("breaker.transition")[0]
        assert open_event.severity == "warn"

    def test_breaker_report_filters_by_hub(self):
        obs_a, obs_b = Observability(), Observability()
        breaker_a = CircuitBreaker("only.a", obs=obs_a)
        CircuitBreaker("only.b", obs=obs_b)
        report = obs_a.describe("breakers")["breakers"]
        assert set(report) == {"only.a"}
        assert report["only.a"]["state"] == "closed"
        assert report["only.a"]["window"] == {
            "calls": 0, "failures": 0, "capacity": breaker_a.window,
        }

    def test_fault_firing_emits_event_and_report_describes_points(self):
        obs = Observability()
        injector = FaultInjector(seed=3, obs=obs)
        injector.inject("metadb.statement", rate=1.0, error=None,
                        delay_s=0.0, times=2)
        injector.fire("metadb.statement")
        [event] = obs.events.find("fault.fired")
        assert event.fields["point"] == "metadb.statement"
        report = injector.report()
        assert report["metadb.statement"]["fired"] == 1
        assert report["metadb.statement"]["times"] == 2
        assert report["metadb.statement"]["error"] is None

    def test_wal_recovery_emits_event(self, tmp_path):
        obs = Observability()
        database = Database(tmp_path / "db", obs=obs)
        database.create_table(TableSchema(
            "t", [Column("a", ColumnType.INTEGER, nullable=False)],
            primary_key="a",
        ))
        database.execute(Insert("t", {"a": 1}))
        database.close()
        reopened_obs = Observability()
        reopened = Database(tmp_path / "db", obs=reopened_obs)
        assert reopened.execute(Select("t")) == [{"a": 1}]
        [event] = reopened_obs.events.find("wal.recovered")
        assert event.fields["records_replayed"] >= 1
        reopened.close()


# -- line-protocol escaping (regression) ---------------------------------------


class TestLineProtocolEscaping:
    def test_label_values_with_structural_characters(self):
        obs = Observability()
        obs.count("web.responses", route='/a b,c="d"')
        text = to_line_protocol(obs.registry)
        assert 'route=/a\\ b\\,c\\=\\"d\\"' in text
        # One metric -> exactly one line.
        assert len(text.strip().splitlines()) == 1

    def test_backslash_doubles_before_other_escapes(self):
        obs = Observability()
        obs.count("m", path="C:\\data files")
        text = to_line_protocol(obs.registry)
        assert "C:\\\\data\\ files" in text

    def test_newline_flattened_to_escaped_space(self):
        obs = Observability()
        obs.count("m", msg="two\nlines")
        text = to_line_protocol(obs.registry)
        assert len(text.strip().splitlines()) == 1
        assert "two\\ lines" in text


# -- hub wiring ----------------------------------------------------------------


class TestHubDiagnostics:
    def test_every_hub_owns_the_diagnostic_trio(self):
        obs = Observability()
        assert obs.events is not None
        assert obs.slowlog is not None
        assert not obs.profiler.running

    def test_reset_clears_diagnostics(self):
        obs = Observability()
        obs.event("info", "a", "k")
        obs.slowlog.record("op", 0.2, 0.1)
        obs.reset()
        assert len(obs.events) == 0
        assert len(obs.slowlog) == 0
