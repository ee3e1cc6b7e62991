"""Unit tests for repro.resil: policies, breaker, deadline, bulkhead,
fault injection, and the wired-in degradation paths."""

import contextvars
import threading

import pytest

from repro.filestore import ChecksumError, DiskArchive, StorageManager
from repro.metadb import Select
from repro.pl import IdlServerManager, NoServerAvailable
from repro.repl import ReplicaGroup, ReplicaState
from repro.resil import (
    BreakerOpen,
    BreakerState,
    Bulkhead,
    BulkheadFull,
    CircuitBreaker,
    ConnectionDropped,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    use_injector,
)
from repro.schema import install_all


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        a = RetryPolicy(max_attempts=5, base_delay_s=0.01, seed=42)
        b = RetryPolicy(max_attempts=5, base_delay_s=0.01, seed=42)
        c = RetryPolicy(max_attempts=5, base_delay_s=0.01, seed=43)
        assert a.schedule() == b.schedule()
        assert a.schedule() != c.schedule()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.01, multiplier=2.0,
                             max_delay_s=0.04, jitter=0.0)
        assert policy.schedule() == [0.01, 0.02, 0.04, 0.04, 0.04,
                                     0.04, 0.04, 0.04, 0.04]

    def test_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0,
                             sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TimeoutError("transient")
            return "done"

        assert policy.call(flaky) == "done"
        assert calls["n"] == 3
        assert sleeps == [0.01, 0.02]

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)

        def always_fails():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError):
            policy.call(always_fails)

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        calls = {"n": 0}

        def bad_input():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(bad_input)
        assert calls["n"] == 1

    def test_fatal_wins_over_retryable(self):
        class Both(TimeoutError):
            pass

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0,
                             retryable=(TimeoutError,), fatal=(Both,))
        assert policy.classify(TimeoutError()) is True
        assert policy.classify(Both()) is False

    def test_never_sleeps_past_ambient_deadline(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=5, base_delay_s=10.0, jitter=0.0)
        calls = {"n": 0}

        def failing():
            calls["n"] += 1
            raise TimeoutError("down")

        with Deadline(1.0, clock=clock):
            with pytest.raises(TimeoutError):
                policy.call(failing)
        # The first backoff (10s) would outlive the 1s budget: no retry.
        assert calls["n"] == 1


class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker("t", window=10, min_calls=4, failure_rate=0.5,
                              cooldown_s=5.0, clock=clock)

    def test_full_transition_cycle(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.state is BreakerState.CLOSED
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after_s > 0
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second caller is still rejected
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_below_min_calls_never_trips(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_mixed_outcomes_respect_rate(self):
        breaker = self.make(FakeClock())
        for _ in range(6):
            breaker.record_success()
        for _ in range(4):
            breaker.record_failure()
        # 4 failures / 10 outcomes = 0.4 < 0.5 threshold.
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()  # window slides: 5/10
        assert breaker.state is BreakerState.OPEN

    def test_call_records_outcomes(self):
        clock = FakeClock()
        breaker = self.make(clock)

        def boom():
            raise TimeoutError("down")

        for _ in range(4):
            with pytest.raises(TimeoutError):
                breaker.call(boom)
        with pytest.raises(BreakerOpen):
            breaker.call(lambda: "never runs")


class TestDeadline:
    def test_expiry_and_check(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.0)
        assert deadline.fraction_remaining() == pytest.approx(0.5)
        clock.advance(1.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check("unit test")

    def test_context_install_and_clear(self):
        assert Deadline.current() is None
        with Deadline(5.0) as deadline:
            assert Deadline.current() is deadline
            with Deadline(1.0) as inner:
                assert Deadline.current() is inner
            assert Deadline.current() is deadline
        assert Deadline.current() is None

    def test_check_current_is_noop_without_deadline(self):
        Deadline.check_current("anywhere")  # must not raise

    def test_propagates_across_threads_via_copy_context(self):
        clock = FakeClock()
        seen = {}
        with Deadline(3.0, clock=clock):
            ctx = contextvars.copy_context()

            def worker():
                seen["deadline"] = ctx.run(Deadline.current)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["deadline"] is not None
        assert seen["deadline"].budget_s == 3.0


class TestBulkhead:
    def test_caps_concurrency_and_sheds(self):
        bulkhead = Bulkhead("t", max_concurrent=2)
        bulkhead.acquire()
        bulkhead.acquire()
        with pytest.raises(BulkheadFull):
            bulkhead.acquire()
        bulkhead.release()
        bulkhead.acquire()  # a freed slot is reusable
        bulkhead.release()
        bulkhead.release()
        assert bulkhead.in_use == 0

    def test_context_manager_releases_on_error(self):
        bulkhead = Bulkhead("t", max_concurrent=1)
        with pytest.raises(ValueError):
            with bulkhead:
                raise ValueError("boom")
        assert bulkhead.in_use == 0


class TestFaultInjector:
    def test_same_seed_same_firing_pattern(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.inject("p", rate=0.3)
            fired = []
            for _ in range(50):
                try:
                    injector.fire("p")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)

    def test_unconfigured_points_do_not_consume_rng(self):
        a = FaultInjector(seed=9)
        a.inject("p", rate=0.5)
        b = FaultInjector(seed=9)
        b.inject("p", rate=0.5)
        outcomes_a, outcomes_b = [], []
        for _ in range(20):
            a.fire("unarmed")  # must not perturb the armed point's draws
            outcomes_a.append(self._fires(a, "p"))
            outcomes_b.append(self._fires(b, "p"))
        assert outcomes_a == outcomes_b

    @staticmethod
    def _fires(injector, name):
        try:
            injector.fire(name)
            return False
        except InjectedFault:
            return True

    def test_times_bounds_firings(self):
        injector = FaultInjector()
        injector.inject("p", rate=1.0, times=2)
        assert self._fires(injector, "p")
        assert self._fires(injector, "p")
        assert not self._fires(injector, "p")
        assert injector.point("p").fired == 2

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(seed=3)
        injector.inject("c", rate=1.0, corrupt=True, error=None)
        payload = bytes(range(64))
        corrupted = injector.corrupt_payload("c", payload)
        assert corrupted != payload
        assert len(corrupted) == len(payload)
        assert sum(1 for x, y in zip(payload, corrupted) if x != y) == 1

    def test_clear_disarms(self):
        injector = FaultInjector()
        injector.inject("p")
        injector.clear("p")
        injector.fire("p")  # must not raise
        assert not injector.active

    def test_custom_error_type(self):
        injector = FaultInjector()
        injector.inject("p", error=ConnectionDropped)
        with pytest.raises(ConnectionDropped):
            injector.fire("p")


class TestChecksumVerification:
    def test_corrupted_read_raises_checksum_error(self, tmp_path):
        manager = StorageManager()
        manager.register(DiskArchive("a", tmp_path / "a"))
        item = manager.place("data/x", b"precious bits")
        assert manager.retrieve("a", "data/x") == b"precious bits"
        # Corrupt the on-disk copy behind the manager's back.
        path = manager.archive("a").local_path("data/x")
        path.write_bytes(b"Precious bits")
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            manager.retrieve("a", "data/x")
        assert manager.verify_recorded() == [("a", "data/x")]
        assert item.checksum

    def test_migrate_refuses_corrupt_source(self, tmp_path):
        manager = StorageManager()
        manager.register(DiskArchive("a", tmp_path / "a"))
        manager.register(DiskArchive("b", tmp_path / "b"))
        manager.place("x", b"payload", prefer="a")
        manager.archive("a").local_path("x").write_bytes(b"Payload")
        with pytest.raises(ChecksumError):
            manager.migrate("x", "a", "b")
        assert not manager.archive("b").exists("x")

    def test_migrate_moves_checksum_record(self, tmp_path):
        manager = StorageManager()
        manager.register(DiskArchive("a", tmp_path / "a"))
        manager.register(DiskArchive("b", tmp_path / "b"))
        manager.place("x", b"payload", prefer="a")
        manager.migrate("x", "a", "b")
        assert manager.retrieve("b", "x") == b"payload"
        # The destination copy is now the verified one.
        manager.archive("b").local_path("x").write_bytes(b"Payload")
        with pytest.raises(ChecksumError):
            manager.retrieve("b", "x")


class TestManagerRetryPolicy:
    def test_restart_budget_bounds_a_crash_storm(self):
        def always_crash():
            raise OSError("dead interpreter")

        manager = IdlServerManager("node", n_servers=1, fault_hook=always_crash)
        manager.start_all()
        with pytest.raises(NoServerAvailable):
            # Far more retries than the restart budget (2 * n_servers)
            # allows: the manager surfaces the drained pool instead of
            # spinning forever.
            manager.invoke("1 + 1", retries=50)
        assert manager.recoveries <= max(2, 2 * manager.n_servers)

    def test_default_retries_still_return_failed_result(self):
        def always_crash():
            raise OSError("dead interpreter")

        manager = IdlServerManager("node", n_servers=1, fault_hook=always_crash)
        manager.start_all()
        result = manager.invoke("1 + 1", retries=1)
        assert not result.ok


class TestReplicatedFailover:
    """Single-copy read failover and revival after a cooldown are held
    in ``tests/test_repl.py``; these are the partitions it leaves out."""

    def test_all_copies_partitioned_raises_and_recovers(self):
        group = ReplicaGroup(name="p", n_replicas=1, breaker_cooldown_s=0.0)
        install_all(group)
        injector = FaultInjector(seed=1)
        injector.inject("repl.replica.p.crash", rate=1.0)
        injector.inject("repl.replica.p-r1.crash", rate=1.0)
        with use_injector(injector):
            for _ in range(8):
                with pytest.raises(InjectedFault):
                    group.execute(Select("hle"))
        assert sum(b.trips for b in group.breakers.values()) >= 2
        # Partition healed: with zero cooldown the breakers half-open and
        # the first successful probes close them again.
        for _ in range(4):
            assert group.execute(Select("hle")) == []
        assert all(b.state is BreakerState.CLOSED
                   for b in group.breakers.values())
        assert group.replicas[0].state is ReplicaState.IN_SYNC

    def test_writes_unaffected_by_replica_partition(self):
        """The crash point cuts shipping as well as reads: the write
        still commits, and the follower catches up once it heals."""
        group = ReplicaGroup(name="p", n_replicas=1)
        install_all(group)
        injector = FaultInjector(seed=1)
        injector.inject("repl.replica.p-r1.crash", rate=1.0)
        with use_injector(injector):
            group.execute(
                "INSERT INTO ops_log (log_id, level, component, message) "
                "VALUES (900, 'info', 'chaos', 'write during partition')"
            )
            assert len(group.execute(Select("ops_log"))) == 1
        follower = group.replicas[0]
        assert follower.ship_failures == 1
        assert follower.state is ReplicaState.LAGGING
        group.ship()
        assert follower.state is ReplicaState.IN_SYNC
        assert group.verify() == {"p-r1": {}}
