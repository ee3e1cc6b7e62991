"""Tests for the unified caching core (`repro.cache`): LRU order, byte
budgets, TTL, stats, the report tree, singleflight coalescing, and the
refactored session cache (including the historical cookie-map leak)."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.cache import Cache, CacheStats, SingleFlight
from repro.dm.sessions import SessionCache
from repro.obs import Observability


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestLruEviction:
    def test_least_recently_used_goes_first(self):
        cache = Cache("t", max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.get("a")                      # refresh: b is now the LRU
        cache.put("d", "D")
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.stats.evictions == 1

    def test_byte_budget_evicts_until_under(self):
        cache = Cache("t", max_bytes=100, size_of=len)
        cache.put("a", b"x" * 60)
        cache.put("b", b"x" * 30)
        assert cache.size_bytes == 90
        cache.put("c", b"x" * 50)           # 140 > 100: evict a, then fits
        assert "a" not in cache
        assert cache.size_bytes == 80
        assert cache.stats.size_bytes == 80

    def test_overwrite_replaces_size_accounting(self):
        cache = Cache("t", size_of=len)
        cache.put("a", b"x" * 10)
        cache.put("a", b"x" * 3)
        assert cache.size_bytes == 3
        assert len(cache) == 1


class TestTtl:
    def test_expired_entry_is_a_miss(self):
        clock = FakeClock()
        cache = Cache("t", ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock.advance(11.0)
        assert cache.get("a") is None
        assert cache.stats.misses == 1
        assert cache.stats.expirations == 1

    def test_per_put_ttl_overrides_default(self):
        clock = FakeClock()
        cache = Cache("t", ttl_s=10.0, clock=clock)
        cache.put("short", 1, ttl_s=1.0)
        cache.put("long", 2)
        clock.advance(5.0)
        assert cache.get("short") is None
        assert cache.get("long") == 2

    def test_get_stale_returns_expired_entries(self):
        clock = FakeClock()
        cache = Cache("t", ttl_s=1.0, clock=clock)
        cache.put("a", 1)
        clock.advance(2.0)
        assert cache.get_stale("a") == 1
        assert cache.stats.stale_hits == 1
        # ... but a counted get still drops and misses it.
        assert cache.get("a") is None


class TestRemovalCallbacks:
    def _record(self):
        events = []
        return events, lambda key, value, reason: events.append((key, reason))

    def test_every_removal_reason_fires_on_evict(self):
        clock = FakeClock()
        events, hook = self._record()
        cache = Cache("t", max_entries=2, ttl_s=None, on_evict=hook, clock=clock)
        cache.put("a", 1)
        cache.put("a", 2)                   # replaced
        cache.put("b", 1, ttl_s=1.0)
        clock.advance(2.0)
        cache.get("b")                      # expired
        cache.put("c", 1)
        cache.invalidate("c")               # invalidated
        cache.put("d", 1)
        cache.put("e", 1)                   # a,d,e over capacity: evict a
        cache.put("f", 1)                   # d,e,f over capacity: evict d
        cache.clear()                       # e, f cleared
        reasons = [reason for _key, reason in events]
        assert reasons.count("replaced") == 1
        assert reasons.count("expired") == 1
        assert reasons.count("invalidated") == 1
        assert reasons.count("evicted") == 2
        assert reasons.count("cleared") == 2


class TestGetOrLoad:
    def test_loads_once_then_serves(self):
        cache = Cache("t")
        calls = []
        for _round in range(3):
            value = cache.get_or_load("k", lambda: calls.append(1) or 42)
        assert value == 42 and len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_concurrent_loads_coalesce(self):
        cache = Cache("t")
        gate = threading.Event()
        calls = []

        def slow_loader():
            gate.wait(timeout=10)
            calls.append(1)
            return "v"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                cache.get_or_load("k", slow_loader)))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert results == ["v"] * 8
        assert len(calls) == 1
        assert cache.stats.coalesced >= 1


class TestStatsAndObs:
    def test_stats_mirrored_into_obs_registry(self):
        obs = Observability()
        cache = Cache("mirrored", max_entries=2, obs=obs)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        registry = obs.registry
        assert registry.value("cache.hits", cache="mirrored") == 1
        assert registry.value("cache.misses", cache="mirrored") == 1
        assert registry.value("cache.puts", cache="mirrored") == 1
        assert registry.value("cache.entries", cache="mirrored") == 1

    def test_metric_handles_are_resolved_once(self, monkeypatch):
        """Every recorded event lands in the registry under the name it
        always had, without a registry lookup per event."""
        obs = Observability()
        cache = Cache("handles", max_entries=1, ttl_s=10.0, size_of=len, obs=obs)
        stats = CacheStats("s", obs=obs, metric_prefix="family", labels={"kind": "x"})

        def no_lookup(*args, **kwargs):
            raise AssertionError("metric resolved on the hot path")
        for resolver in ("counter", "gauge", "count", "set_gauge"):
            monkeypatch.setattr(obs, resolver, no_lookup)
        cache.put("a", b"12")
        cache.put("b", b"345")          # evicts "a"
        cache.get("b")
        cache.get("a")
        cache.get_stale("b")
        cache.invalidate("b")
        stats.record_hit(2)
        stats.record_coalesced()
        stats.record_expiration()
        stats.set_size(4, 40)
        value = obs.registry.value
        assert {event: value(f"cache.{event}", cache="handles") for event in (
            "hits", "misses", "puts", "evictions", "stale_hits", "invalidations",
            "bytes_cached", "entries", "size_bytes")} == {
            "hits": 1, "misses": 1, "puts": 2, "evictions": 1, "stale_hits": 1,
            "invalidations": 1, "bytes_cached": 5, "entries": 0, "size_bytes": 0}
        assert value("family.hits", kind="x") == 2
        assert value("family.coalesced", kind="x") == 1
        assert value("family.expirations", kind="x") == 1
        assert value("family.entries", kind="x") == 4
        assert value("family.size_bytes", kind="x") == 40
        # A registry reset zeroes the metrics and leaves the handles valid.
        obs.registry.reset()
        stats.record_hit()
        assert value("family.hits", kind="x") == 1

    def test_hit_rate_and_snapshot(self):
        stats = CacheStats("s")
        stats.record_hit(3)
        stats.record_miss()
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.hit_ratio == pytest.approx(0.75)
        snapshot = stats.snapshot()
        assert snapshot["hits"] == 3 and snapshot["hit_ratio"] == pytest.approx(0.75)

    def test_cache_report_filters_by_obs_hub(self):
        ours = Observability()
        theirs = Observability()
        mine = Cache("report.mine", obs=ours)
        other = Cache("report.other", obs=theirs)
        mine.put("a", 1)
        mine.get("a")
        other.put("b", 2)
        report = ours.describe("caches")["caches"]
        assert set(report) == {"report.mine"}
        assert report["report.mine"]["hits"] == 1
        assert set(theirs.describe("caches")["caches"]) == {"report.other"}


class TestSingleFlight:
    def test_concurrent_identical_calls_run_once(self):
        flight = SingleFlight()
        gate = threading.Event()
        executions = []
        results = []

        def work():
            gate.wait(timeout=10)
            executions.append(1)
            return "product"

        def call():
            results.append(flight.do("fp", work))

        threads = [threading.Thread(target=call) for _ in range(10)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(executions) == 1
        assert [value for value, _leading in results] == ["product"] * 10
        assert sum(1 for _value, leading in results if leading) == 1
        assert flight.coalesced == 9

    def test_leader_error_propagates_to_followers(self):
        flight = SingleFlight()
        gate = threading.Event()
        errors = []

        def failing():
            gate.wait(timeout=10)
            raise RuntimeError("boom")

        def call():
            try:
                flight.do("fp", failing)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == ["boom"] * 4

    def test_sequential_calls_are_fresh_flights(self):
        flight = SingleFlight()
        first, leading1 = flight.do("k", lambda: 1)
        second, leading2 = flight.do("k", lambda: 2)
        assert (first, leading1) == (1, True)
        assert (second, leading2) == (2, True)
        assert not flight.in_flight("k")

    def test_spans_propagate_through_coalesced_requests(self):
        """Followers' trace trees must reference the one executing span,
        so an operator inspecting a coalesced request's trace can jump to
        the span that actually did the work."""
        obs = Observability(enabled=True)
        flight = SingleFlight(obs=obs)
        gate = threading.Event()

        def work():
            gate.wait(timeout=10)
            return "product"

        def call(name):
            with obs.tracer.span(name):
                flight.do("fp", work)

        leader_thread = threading.Thread(target=call, args=("leader",))
        leader_thread.start()
        time.sleep(0.05)            # leader is in flight before followers join
        follower_threads = [
            threading.Thread(target=call, args=(f"follower{index}",))
            for index in range(3)
        ]
        for thread in follower_threads:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in [leader_thread, *follower_threads]:
            thread.join(timeout=10)

        roots = obs.tracer.finished_spans()
        leader_root = next(span for span in roots if span.name == "leader")
        followers = [span for span in roots if span.name.startswith("follower")]
        assert len(followers) == 3
        for span in followers:
            assert span.tags["coalesced_with_span"] == leader_root.span_id
            assert span.tags["coalesced_with_trace"] == leader_root.trace_id
        assert "coalesced_with_span" not in leader_root.tags

    def test_no_span_tags_without_obs_or_tracing(self):
        flight = SingleFlight()          # no hub attached
        assert flight.do("k", lambda: 1) == (1, True)
        disabled = SingleFlight(obs=Observability())
        assert disabled.do("k", lambda: 2) == (2, True)


def _user(user_id: int):
    return SimpleNamespace(user_id=user_id)


class TestSessionCacheOnCore:
    def test_cookie_map_cannot_leak_on_overwrite_churn(self):
        """The historical leak: every create() for the same (user, kind)
        left the old cookie in ``_by_cookie`` forever."""
        sessions = SessionCache(max_users=4)
        alice = _user(1)
        for _round in range(50):
            sessions.create(alice, "hle", "10.0.0.1")
        assert sessions.size == 1
        assert len(sessions._by_cookie) == 1

    def test_cookie_map_follows_user_eviction(self):
        sessions = SessionCache(max_users=2)
        for user_id in range(5):
            sessions.create(_user(user_id), "hle", "10.0.0.1")
        assert len(sessions._by_cookie) == sessions.size <= 2

    def test_expired_session_leaves_cookie_map(self):
        sessions = SessionCache(ttl_s=0.0)
        session = sessions.create(_user(1), "hle", "10.0.0.1")
        time.sleep(0.01)
        assert sessions.by_cookie(session.cookie) is None
        assert session.cookie not in sessions._by_cookie

    def test_prune_expired_sweeps_cookie_map(self):
        sessions = SessionCache(ttl_s=0.0)
        for user_id in range(3):
            sessions.create(_user(user_id), "ana", "10.0.0.1")
        time.sleep(0.01)
        assert sessions.prune_expired() == 3
        assert sessions.size == 0
        assert sessions._by_cookie == {}

    def test_lookup_hit_and_miss_semantics_preserved(self):
        sessions = SessionCache()
        alice = _user(1)
        session = sessions.create(alice, "hle", "10.0.0.1")
        hit = sessions.lookup(alice, "hle", "10.0.0.1", session.cookie)
        assert hit is session
        assert sessions.hits == 1
        # Same resident entry, wrong IP: a semantic miss.
        assert sessions.lookup(alice, "hle", "10.9.9.9", session.cookie) is None
        assert sessions.misses == 1
        assert sessions.hit_ratio == pytest.approx(0.5)

    def test_unified_stats_visible_in_cache_report(self):
        obs = Observability()
        sessions = SessionCache(obs=obs)
        alice = _user(1)
        session = sessions.create(alice, "hle", "10.0.0.1")
        sessions.lookup(alice, "hle", "10.0.0.1", session.cookie)
        report = obs.describe("caches")["caches"]
        assert report["dm.sessions"]["hits"] == 1
        assert obs.registry.value("dm.sessions.hits") == 1
