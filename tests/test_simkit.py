"""Unit tests for the discrete-event simulation substrate."""

import pytest

from repro.simkit import (
    FcfsServer,
    Future,
    Interrupted,
    ProcessorSharing,
    SimulationError,
    Simulator,
    Tally,
    TimeWeighted,
    spawn,
)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=5)
        sim.schedule(1.0, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("early"))
        sim.schedule(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [7.5]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.peek() == 2.0


class TestProcesses:
    def test_process_holds_for_yielded_delay(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield 3.0
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [0.0, 3.0]

    def test_process_result_future_resolves_with_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        process = spawn(sim, proc())
        sim.run()
        assert process.result.done
        assert process.result.value == 42

    def test_process_waits_on_future(self):
        sim = Simulator()
        future = Future(sim)
        log = []

        def waiter():
            value = yield future
            log.append((sim.now, value))

        spawn(sim, waiter())
        sim.schedule(5.0, lambda: future.resolve("ready"))
        sim.run()
        assert log == [(5.0, "ready")]

    def test_process_waits_on_another_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield 2.0
            return "inner-done"

        def outer():
            value = yield spawn(sim, inner())
            log.append((sim.now, value))

        spawn(sim, outer())
        sim.run()
        assert log == [(2.0, "inner-done")]

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 100.0
            except Interrupted as interrupt:
                log.append((sim.now, interrupt.cause))

        process = spawn(sim, sleeper())
        sim.schedule(5.0, lambda: process.interrupt("wake"))
        sim.run()
        assert log == [(5.0, "wake")]

    def test_future_double_resolve_rejected(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_unresolved_future_value_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = Future(sim).value


class TestProcessorSharing:
    def test_single_job_runs_at_full_speed(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=1, speed=1.0)
        done = []
        cpu.service(5.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [5.0]

    def test_two_jobs_share_one_core(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=1)
        done = []
        cpu.service(4.0).add_callback(lambda f: done.append(sim.now))
        cpu.service(4.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        # Each receives half rate: both finish at t=8.
        assert done == [8.0, 8.0]

    def test_two_jobs_on_two_cores_do_not_interfere(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=2)
        done = []
        cpu.service(4.0).add_callback(lambda f: done.append(sim.now))
        cpu.service(4.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [4.0, 4.0]

    def test_short_job_finishes_first_under_sharing(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=1)
        order = []
        cpu.service(10.0).add_callback(lambda f: order.append("long"))
        cpu.service(1.0).add_callback(lambda f: order.append("short"))
        sim.run()
        assert order == ["short", "long"]
        # short: 2 units elapsed (half rate); long: 1 + 9 = 11 total.
        assert sim.now == pytest.approx(11.0)

    def test_late_arrival_slows_existing_job(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=1)
        done = {}
        cpu.service(4.0).add_callback(lambda f: done.setdefault("first", sim.now))

        def late():
            yield 2.0
            yield cpu.service(4.0)
            done["second"] = sim.now

        spawn(sim, late())
        sim.run()
        # First does 2 units alone, then shares: remaining 2 at half rate -> t=6.
        assert done["first"] == pytest.approx(6.0)
        assert done["second"] == pytest.approx(8.0)

    def test_zero_work_job_completes_immediately(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim)
        done = []
        cpu.service(0.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_busy_time_accounting(self):
        sim = Simulator()
        cpu = ProcessorSharing(sim, cores=1)
        cpu.service(3.0)
        sim.run()
        assert cpu.busy_time == pytest.approx(3.0)
        assert cpu.completed_jobs == 1

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ProcessorSharing(sim, cores=0)
        with pytest.raises(ValueError):
            ProcessorSharing(sim, speed=0)
        cpu = ProcessorSharing(sim)
        with pytest.raises(ValueError):
            cpu.service(-1.0)


class TestFcfsServer:
    def test_jobs_queue_behind_busy_server(self):
        sim = Simulator()
        server = FcfsServer(sim, servers=1)
        done = []
        server.request(3.0).add_callback(lambda f: done.append(sim.now))
        server.request(3.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [3.0, 6.0]

    def test_multiple_servers_run_in_parallel(self):
        sim = Simulator()
        server = FcfsServer(sim, servers=2)
        done = []
        for _ in range(4):
            server.request(2.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [2.0, 2.0, 4.0, 4.0]

    def test_future_resolves_with_total_time_in_station(self):
        sim = Simulator()
        server = FcfsServer(sim, servers=1)
        values = []
        server.request(2.0).add_callback(lambda f: values.append(f.value))
        server.request(2.0).add_callback(lambda f: values.append(f.value))
        sim.run()
        assert values == [pytest.approx(2.0), pytest.approx(4.0)]

    def test_utilization_half_loaded(self):
        sim = Simulator()
        server = FcfsServer(sim, servers=2)
        server.request(4.0)
        sim.run(until=4.0)
        assert server.busy_time == pytest.approx(2.0)  # 1 of 2 servers, 4 s

    def test_negative_service_rejected(self):
        sim = Simulator()
        server = FcfsServer(sim)
        with pytest.raises(ValueError):
            server.request(-0.5)


class TestStats:
    def test_tally_mean_and_extremes(self):
        tally = Tally()
        for value in (1.0, 2.0, 3.0, 4.0):
            tally.record(value)
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.count == 4

    def test_empty_tally_is_zero(self):
        tally = Tally()
        assert tally.mean == 0.0

    def test_time_weighted_mean(self):
        sim = Simulator()
        signal = TimeWeighted(sim)
        signal.record(0.0)
        sim.schedule(4.0, lambda: signal.record(10.0))
        sim.run(until=8.0)
        # 0 for 4 s then 10 for 4 s -> mean 5.
        assert signal.mean(until=8.0) == pytest.approx(5.0)

    def test_time_weighted_current(self):
        sim = Simulator()
        signal = TimeWeighted(sim)
        signal.record(3.0)
        assert signal.current == 3.0
