"""Tests for the Processing Logic: directory, server manager, frontend,
4-phase requests, strategies, cancellation and fault recovery."""

import pytest

from repro.pl import (
    AnalysisRequest,
    AnalysisStrategy,
    Frontend,
    GlobalDirectory,
    IdlServerManager,
    Phase,
    UnknownRequestType,
)
from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan


@pytest.fixture()
def stack(dm, tmp_path):
    """DM + loaded data + started PL stack."""
    plan = standard_day_plan(duration=240.0, seed=17, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=17).generate()
    units = package_units(photons, tmp_path / "in", unit_target_photons=10**6)
    for unit in units:
        dm.process.load_raw_unit(unit, "main")
    alice = dm.users.create_user("alice", "pw", group="scientist")
    directory = GlobalDirectory()
    manager = IdlServerManager("server", n_servers=2, directory=directory)
    manager.start_all()
    frontend = Frontend(dm, manager, directory=directory)
    hle = dm.semantic.find_hles(alice)[0]
    return dm, frontend, manager, directory, alice, hle


class TestGlobalDirectory:
    def test_register_lookup_deregister(self):
        directory = GlobalDirectory()
        directory.register("idl_manager:a", "idl_manager", "node-a", capacity=2)
        directory.register("frontend:x", "frontend", "node-x")
        managers = directory.lookup("idl_manager")
        assert len(managers) == 1 and managers[0].capacity == 2
        directory.deregister("idl_manager:a")
        assert directory.lookup("idl_manager") == []

    def test_stale_services_purged(self):
        directory = GlobalDirectory(heartbeat_timeout_s=0.0)
        directory.register("idl_manager:a", "idl_manager", "node-a")
        import time

        time.sleep(0.01)
        assert directory.lookup("idl_manager") == []
        assert directory.size == 0

    def test_heartbeat_keeps_service_alive(self):
        directory = GlobalDirectory(heartbeat_timeout_s=10.0)
        directory.register("s", "frontend", "n")
        directory.heartbeat("s")
        assert len(directory.lookup("frontend")) == 1


class TestIdlServerManager:
    def test_start_registers_in_directory(self):
        directory = GlobalDirectory()
        manager = IdlServerManager("node", n_servers=2, directory=directory)
        manager.start_all()
        assert manager.n_available == 2
        assert directory.lookup("idl_manager")[0].capacity == 2
        manager.stop_all()
        assert directory.lookup("idl_manager") == []

    def test_dynamic_add_remove(self):
        manager = IdlServerManager("node", n_servers=1)
        manager.start_all()
        manager.add_server()
        assert manager.n_servers == 2
        manager.remove_server()
        assert manager.n_servers == 1
        with pytest.raises(ValueError):
            manager.remove_server()

    def test_invoke_runs_source(self, photons_small):
        manager = IdlServerManager("node", n_servers=1)
        manager.start_all()
        result = manager.invoke("total(findgen(5))")
        assert result.ok and result.value == 10.0

    def test_crash_recovery_with_retry(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("segfault")

        manager = IdlServerManager("node", n_servers=1, fault_hook=flaky)
        manager.start_all()
        result = manager.invoke("40 + 2", retries=1)
        assert result.ok and result.value == 42
        assert manager.recoveries >= 1

    def test_async_invoke(self):
        manager = IdlServerManager("node", n_servers=1)
        manager.start_all()
        future = manager.invoke_async("6 * 7")
        assert future.result(timeout=10).value == 42

    def test_stats(self):
        manager = IdlServerManager("node", n_servers=1)
        manager.start_all()
        manager.invoke("1")
        stats = manager.stats()
        assert stats["invocations"] == 1
        assert stats["servers"] == 1


class TestFourPhases:
    def test_estimation_returns_plan_immediately(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        request = AnalysisRequest(alice, hle["hle_id"], "imaging", {"n_pixels": 16})
        frontend.estimate(request)
        assert request.phase is Phase.ESTIMATED
        assert request.plan.predicted_seconds > 0
        assert request.plan.input_mb > 0
        assert request.ana_id is None  # nothing executed yet

    def test_every_registered_strategy_can_be_estimated(self, stack):
        """The cost model rides on the strategy, so the paper's own
        absorbed change (animation, §3.1) passes the estimation phase."""
        _dm, frontend, _mgr, _dir, alice, hle = stack
        for algorithm in frontend.strategies:
            plan = frontend.estimate(
                AnalysisRequest(alice, hle["hle_id"], algorithm, {})).plan
            assert plan.algorithm == algorithm
            assert plan.feasible and plan.predicted_seconds > 0
        request = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "animation",
                            {"n_frames": 3, "n_pixels": 8}),
            estimate=True)
        assert request.phase is Phase.COMMITTED, request.error
        assert request.plan is not None

    def test_estimation_flags_oversized_requests_infeasible(self, stack):
        """§5.1: estimation determines feasibility; §6.3 points at views."""
        dm, frontend, _mgr, _dir, alice, _hle = stack
        huge = dm.semantic.insert_hle(
            alice,
            {"start_time": 0.0, "end_time": 86_400.0,
             "total_counts": 500_000_000},  # ~7 GB of photons
        )
        request = AnalysisRequest(alice, huge, "spectroscopy", {})
        frontend.estimate(request)
        assert not request.plan.feasible
        assert "approximated" in request.plan.reason
        # Running with estimate=True refuses the execution phase.
        frontend.run(request, estimate=True)
        assert request.phase is Phase.FAILED
        assert "infeasible" in request.error

    def test_full_lifecycle_all_algorithms(self, stack):
        dm, frontend, _mgr, _dir, alice, hle = stack
        for algorithm in ("imaging", "lightcurve", "spectroscopy", "histogram"):
            request = AnalysisRequest(
                alice, hle["hle_id"], algorithm,
                {"n_pixels": 16} if algorithm == "imaging" else {},
            )
            frontend.run(request)
            assert request.phase is Phase.COMMITTED, request.error
            stored = dm.semantic.get_analysis(alice, request.ana_id)
            assert stored["algorithm"] == algorithm
            assert stored["n_images"] >= 1
            assert stored["n_photons_used"] > 0

    def test_three_queries_two_edits_per_analysis(self, stack):
        """The Tables 2/3 accounting: 3 queries + 2 edits per analysis.

        Uses an uncached frontend — the workload characterization must
        exercise the full pipeline on every run, and the product cache
        would serve runs 2 and 3 with zero queries/edits otherwise.
        """
        dm, _frontend, manager, directory, alice, hle = stack
        frontend = Frontend(dm, manager, directory=directory,
                            cache_products=False)
        for _run in range(3):
            frontend.run(AnalysisRequest(alice, hle["hle_id"], "histogram", {}))
        stats = frontend.stats()
        assert stats["queries"] == 9
        assert stats["edits"] == 6

    def test_commit_records_usage(self, stack):
        dm, frontend, _mgr, _dir, alice, hle = stack
        frontend.run(AnalysisRequest(alice, hle["hle_id"], "lightcurve", {}))
        from repro.metadb import Select

        usage = dm.io.execute(Select("ops_usage"))
        assert any(row["operation"] == "analysis:lightcurve" for row in usage)

    def test_unknown_algorithm_rejected(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        with pytest.raises(UnknownRequestType):
            frontend.estimate(AnalysisRequest(alice, hle["hle_id"], "teleportation"))

    def test_cancellation_before_execution(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        request = AnalysisRequest(alice, hle["hle_id"], "imaging", {"n_pixels": 16})
        request.cancel()
        frontend.run(request)
        assert request.phase is Phase.CANCELLED
        assert request.ana_id is None
        assert request.product is None  # cleanup dropped intermediates

    def test_failure_reported_not_raised(self, stack):
        _dm, frontend, _mgr, _dir, alice, _hle = stack
        request = AnalysisRequest(alice, 99999, "imaging", {})
        frontend.run(request)
        assert request.phase is Phase.FAILED
        assert "not found" in request.error

    def test_guest_cannot_analyze(self, stack):
        dm, frontend, _mgr, _dir, _alice, hle = stack
        guest = dm.users.create_user("guest", "pw", group="guest")
        request = AnalysisRequest(guest, hle["hle_id"], "histogram", {})
        frontend.run(request)
        assert request.phase is Phase.FAILED

    def test_sojourn_recorded(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        request = frontend.run(AnalysisRequest(alice, hle["hle_id"], "histogram", {}))
        assert request.sojourn_s is not None and request.sojourn_s > 0


class TestStrategyFramework:
    def test_custom_strategy_registration(self, stack):
        """§5.1: new processing environments plug in as strategies."""
        dm, frontend, _mgr, _dir, alice, hle = stack

        class CountingStrategy(AnalysisStrategy):
            algorithm = "photon_count"

            def execute(self, request, context):
                hle_row = context.fetch_hle(request.user, request.hle_id)
                request.hle_row = hle_row
                photons = context.load_photons_for(hle_row)
                context.check_existing(request.user, request.hle_id, self.algorithm)
                return len(photons)

            def deliver(self, request, context):
                from repro.analysis import AnalysisProduct, render_series_pgm
                import numpy as np

                product = AnalysisProduct(self.algorithm, {})
                product.add_image(render_series_pgm(np.array([float(request.raw_result)])))
                product.summary = {"count": request.raw_result}
                return product

        frontend.register_strategy(CountingStrategy())
        request = frontend.run(AnalysisRequest(alice, hle["hle_id"], "photon_count", {}))
        assert request.phase is Phase.COMMITTED
        stored = dm.semantic.get_analysis(alice, request.ana_id)
        assert stored["algorithm"] == "photon_count"

    def test_imaging_reuse_hint_on_repeat(self, stack):
        """§3.5: a repeated request learns about the existing result.

        With the product cache in front, a repeat-identical request is
        served straight from the cache (same ana_id, no recomputation); a
        same-algorithm request with *different* parameters misses the
        cache, runs the pipeline, and gets the strategy-level reuse hint.
        """
        _dm, frontend, _mgr, _dir, alice, hle = stack
        first = frontend.run(AnalysisRequest(alice, hle["hle_id"], "imaging",
                                             {"n_pixels": 16}))
        second = AnalysisRequest(alice, hle["hle_id"], "imaging", {"n_pixels": 16})
        frontend.run(second)
        assert second.parameters.get("served_from_cache") is True
        assert second.ana_id == first.ana_id
        third = AnalysisRequest(alice, hle["hle_id"], "imaging", {"n_pixels": 32})
        frontend.run(third)
        assert third.parameters.get("reused_ana_id") == first.ana_id
        assert third.ana_id != first.ana_id


class TestQueuedScheduling:
    def test_priority_order_respected(self, stack):
        dm, _frontend, manager, directory, alice, hle = stack
        frontend = Frontend(dm, manager, directory=directory, n_workers=1)
        order = []

        class RecordingStrategy(AnalysisStrategy):
            algorithm = "recorder"

            def execute(self, request, context):
                order.append(request.parameters["tag"])
                return 0

            def deliver(self, request, context):
                from repro.analysis import AnalysisProduct

                return AnalysisProduct(self.algorithm, {})

            def commit(self, request, context):
                return 0

        frontend.register_strategy(RecordingStrategy())
        # Stall the worker with a first request, then enqueue out of order.
        import threading

        gate = threading.Event()

        class GateStrategy(RecordingStrategy):
            algorithm = "gate"

            def execute(self, request, context):
                gate.wait(timeout=10)
                return 0

        frontend.register_strategy(GateStrategy())
        frontend.submit(AnalysisRequest(alice, hle["hle_id"], "gate", {"tag": "gate"}))
        frontend.submit(AnalysisRequest(alice, hle["hle_id"], "recorder",
                                        {"tag": "low"}, priority=9))
        frontend.submit(AnalysisRequest(alice, hle["hle_id"], "recorder",
                                        {"tag": "high"}, priority=1))
        gate.set()
        frontend.drain()
        assert order == ["high", "low"]
        frontend.close()

    def test_submit_without_workers_rejected(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        with pytest.raises(RuntimeError):
            frontend.submit(AnalysisRequest(alice, hle["hle_id"], "histogram", {}))
