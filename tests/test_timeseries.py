"""Retained telemetry: ring-buffer tiers, windowed queries, collector."""

import threading

import pytest

from repro.obs import (
    DEFAULT_TIERS,
    NO_DATA,
    Observability,
    TimeSeriesStore,
    sample_runtime,
    sparkline,
)


def obs_with_samples():
    obs = Observability(name="tsdb-test")
    return obs, obs.collector


class TestTimeSeriesStore:
    def test_delta_and_rate_over_window(self):
        store = TimeSeriesStore()
        for t, value in [(0.0, 0), (1.0, 10), (2.0, 30), (3.0, 60)]:
            store.record("hits", {}, "value", t, value)
        assert store.delta("hits", 2.0, now=3.0) == 50
        assert store.rate("hits", 2.0, now=3.0) == pytest.approx(25.0)

    def test_counter_born_inside_window_counts_fully(self):
        # A counter created mid-window accrued everything since birth —
        # its first sampled value is in-window growth, not baseline.
        store = TimeSeriesStore()
        store.record("errors", {}, "value", 10.0, 4)
        store.record("errors", {}, "value", 11.0, 6)
        assert store.delta("errors", 60.0, now=11.0) == 6
        # Once the window no longer reaches back to the birth, deltas
        # anchor normally.
        store.record("errors", {}, "value", 99.0, 9)
        store.record("errors", {}, "value", 100.0, 9)
        store.record("errors", {}, "value", 101.0, 9)
        assert store.delta("errors", 2.0, now=101.0) == 0

    def test_no_data_answers(self):
        store = TimeSeriesStore()
        assert store.delta("missing", 10.0) is NO_DATA
        assert store.rate("missing", 10.0) is NO_DATA
        assert store.latest("missing") is NO_DATA
        assert store.family_delta("missing", 10.0) is NO_DATA

    def test_tier_retention_and_coarse_fallback(self):
        store = TimeSeriesStore(tiers=((1.0, 5.0), (5.0, 50.0)))
        for t in range(0, 50):
            store.record("g", {}, "value", float(t), t)
        # A short window is answered from the fine tier at 1 s steps...
        fine = store.series("g", window_s=3.0, now=49.0)
        assert [t for t, _v in fine][-3:] == [47.0, 48.0, 49.0]
        # ...whose ring only holds the last ~5 s; a long window falls
        # back to the 5 s-resolution tier that still reaches back.
        coarse = store.series("g", window_s=40.0, now=49.0)
        spans = [b[0] - a[0] for a, b in zip(coarse, coarse[1:])]
        assert min(spans) >= 5.0
        assert coarse[0][0] <= 10.0

    def test_family_delta_sums_label_sets(self):
        store = TimeSeriesStore()
        for t in (0.0, 1.0):
            store.record("req", {"route": "/a"}, "value", t, 10 * t)
            store.record("req", {"route": "/b"}, "value", t, 4 * t)
        assert store.family_delta("req", 5.0, now=1.0) == 14
        assert store.family_delta(
            "req", 5.0, now=1.0, where=lambda labels: labels["route"] == "/a"
        ) == 10


class TestWindowedQuantiles:
    def test_window_under_threshold_fractions(self):
        obs, collector = obs_with_samples()
        collector.sample_once(now=0.0)
        for _ in range(30):
            obs.observe("lat_s", 0.001)
        for _ in range(10):
            obs.observe("lat_s", 1.0)
        collector.sample_once(now=1.0)
        good, total = collector.store.window_under("lat_s", 0.01, 10.0, now=1.0)
        assert total == 40
        assert good == pytest.approx(30, abs=1)


class TestCollector:
    def test_sample_once_retains_registry_values(self):
        obs, collector = obs_with_samples()
        obs.count("c", 5)
        obs.set_gauge("g", 2.5)
        obs.observe("h", 0.25)
        collector.sample_once(now=1.0)
        store = collector.store
        assert store.latest("c") == 5
        assert store.latest("g") == 2.5
        assert store.latest("h", field="count") == 1
        assert collector.samples == 1

    def test_hot_path_never_writes_history(self):
        # The contract behind the <5% overhead guard: instrumented code
        # only touches the registry; history grows on collector ticks.
        obs, collector = obs_with_samples()
        collector.sample_once(now=0.0)
        before = len(collector.store)
        for _ in range(1000):
            obs.count("hot")
            obs.observe("hot_s", 0.001)
        assert len(collector.store) == before
        collector.sample_once(now=1.0)
        assert len(collector.store) > before

    def test_background_thread_lifecycle(self):
        obs, collector = obs_with_samples()
        obs.count("c")
        collector.start(interval_s=0.01)
        try:
            assert collector.running
            deadline = threading.Event()
            for _ in range(200):
                if collector.samples >= 3:
                    break
                deadline.wait(0.01)
            assert collector.samples >= 3
            # start() installed the calibration-seeded default SLOs.
            assert "browse-latency" in obs.slo.slos
            assert "browse-availability" in obs.slo.slos
        finally:
            collector.stop()
        assert not collector.running

    def test_custom_sampler_runs_each_tick(self):
        obs, collector = obs_with_samples()
        seen = []
        collector.add_sampler(seen.append)
        collector.sample_once(now=7.0)
        assert seen == [7.0]

    def test_runtime_gauges_sampled(self):
        obs, collector = obs_with_samples()
        collector.sample_once(now=0.0)
        report = sample_runtime(obs)
        assert report["threads"] >= 1
        assert report["uptime_s"] > 0
        assert "open_wal_handles" in report
        registry = obs.registry
        assert registry.value("process.threads") >= 1
        assert collector.store.latest("process.threads") is not NO_DATA

    def test_reset_drops_history(self):
        obs, collector = obs_with_samples()
        obs.count("c")
        collector.sample_once(now=0.0)
        assert len(collector.store) > 0
        obs.reset()
        assert len(collector.store) == 0
        assert collector.samples == 0

    def test_default_tiers_shape(self):
        assert DEFAULT_TIERS == ((1.0, 300.0), (15.0, 3600.0))


class TestSparkline:
    def test_renders_and_scales(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_nan_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == " "
        assert " " in sparkline([1.0, float("nan"), 2.0])

    def test_resamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=32)) == 32
