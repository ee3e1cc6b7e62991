"""Tests for the PL derived-product cache: fingerprinting, repeat-run
serving with zero IDL work, epoch invalidation on write-path workflows,
cross-user visibility, singleflight collapse and stale-while-degraded."""

import gc
import threading
import time

import pytest

from repro.pl import (
    AnalysisRequest,
    Frontend,
    GlobalDirectory,
    IdlServerManager,
    Phase,
    fingerprint,
)
from repro.pl.product_cache import VOLATILE_PARAMETERS
from repro.resil import BreakerState
from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan


@pytest.fixture()
def stack(dm, tmp_path):
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


class TestFingerprint:
    def test_stable_across_dict_order(self):
        a = fingerprint("histogram", 7, {"n_bins": 64, "attribute": "energy"})
        b = fingerprint("histogram", 7, {"attribute": "energy", "n_bins": 64})
        assert a == b

    def test_volatile_parameters_excluded(self):
        base = fingerprint("histogram", 7, {"n_bins": 64})
        for volatile in VOLATILE_PARAMETERS:
            assert fingerprint("histogram", 7, {"n_bins": 64, volatile: True}) == base

    def test_identity_parameters_distinguish(self):
        base = fingerprint("histogram", 7, {"n_bins": 64})
        assert fingerprint("histogram", 7, {"n_bins": 32}) != base
        assert fingerprint("histogram", 8, {"n_bins": 64}) != base
        assert fingerprint("imaging", 7, {"n_bins": 64}) != base


class TestRepeatRunServing:
    def test_repeat_identical_run_uses_zero_idl_invocations(self, stack):
        """The acceptance criterion: the repeat run never touches IDL."""
        _dm, frontend, manager, _dir, alice, hle = stack
        obs = frontend.obs
        hits_before = obs.registry.value("pl.product_cache.hits",
                                         algorithm="histogram")
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert first.phase is Phase.COMMITTED, first.error
        invocations = manager.stats()["invocations"]
        second = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert second.phase is Phase.COMMITTED
        assert manager.stats()["invocations"] == invocations
        assert second.ana_id == first.ana_id
        assert second.parameters.get("served_from_cache") is True
        assert obs.registry.value("pl.product_cache.hits",
                                  algorithm="histogram") == hits_before + 1
        assert frontend.product_cache.stats.hits >= 1

    def test_force_bypasses_cache(self, stack):
        _dm, frontend, manager, _dir, alice, hle = stack
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        invocations = manager.stats()["invocations"]
        forced = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram",
                            {"n_bins": 32, "force": True}))
        assert forced.phase is Phase.COMMITTED
        assert manager.stats()["invocations"] > invocations
        assert forced.ana_id != first.ana_id
        assert "served_from_cache" not in forced.parameters


class TestEpochInvalidation:
    def test_recalibration_invalidates_cached_products(self, stack):
        dm, frontend, _mgr, _dir, alice, hle = stack
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert first.phase is Phase.COMMITTED, first.error
        from repro.metadb import Select

        unit_id = dm.io.execute(Select("raw_units"))[0]["unit_id"]
        dm.process.publish_calibration((1.05,) * 9, (0.2,) * 9, note="v2")
        dm.process.recalibrate_unit(unit_id, "main")
        assert dm.process.cache_epoch >= 2
        repeat = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert repeat.phase is Phase.COMMITTED, repeat.error
        assert repeat.ana_id != first.ana_id
        assert "served_from_cache" not in repeat.parameters

    def test_relocation_invalidates_cached_products(self, stack, tmp_path):
        dm, frontend, _mgr, _dir, alice, hle = stack
        from repro.filestore import DiskArchive

        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert first.phase is Phase.COMMITTED, first.error
        cold = DiskArchive("cold", tmp_path / "cold")
        dm.io.storage.register(cold)
        dm.io.names.register_archive("cold", str(cold.root))
        moved = dm.process.relocate_archive("main", "cold")
        assert moved > 0
        assert dm.process.cache_epoch == 1
        repeat = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert repeat.phase is Phase.COMMITTED, repeat.error
        assert repeat.ana_id != first.ana_id


class TestVisibility:
    def test_private_product_not_served_to_other_users(self, stack):
        """Analyses are owner-scoped until published; a cached private
        product must not leak across users."""
        dm, frontend, _mgr, _dir, alice, hle = stack
        bob = dm.users.create_user("bob", "pw", group="scientist")
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert first.phase is Phase.COMMITTED, first.error
        bobs = frontend.run(
            AnalysisRequest(bob, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert bobs.phase is Phase.COMMITTED, bobs.error
        assert bobs.ana_id != first.ana_id
        assert "served_from_cache" not in bobs.parameters

    def test_published_product_served_across_users(self, stack):
        dm, frontend, manager, _dir, alice, hle = stack
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "lightcurve", {}))
        assert first.phase is Phase.COMMITTED, first.error
        dm.semantic.publish_analysis(alice, first.ana_id)
        bob = dm.users.create_user("bob", "pw", group="scientist")
        invocations = manager.stats()["invocations"]
        bobs = frontend.run(
            AnalysisRequest(bob, hle["hle_id"], "lightcurve", {}))
        assert bobs.ana_id == first.ana_id
        assert bobs.parameters.get("served_from_cache") is True
        assert manager.stats()["invocations"] == invocations


class TestSingleflightCollapse:
    def test_n_identical_submits_execute_once(self, stack):
        """Eight threads run one request at once: the first leads, and
        the IDL call it makes waits until the other seven have joined
        its flight, so each of them is served the leader's product."""
        _dm, frontend, manager, _dir, alice, hle = stack
        flight = frontend.product_cache.flight
        invocations = manager.stats()["invocations"]
        coalesced = flight.coalesced
        requests = [
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 48})
            for _run in range(8)
        ]
        invoke = manager.invoke

        def invoke_when_all_joined(*args, **kwargs):
            deadline = time.monotonic() + 30
            while flight.coalesced < coalesced + 7 and time.monotonic() < deadline:
                time.sleep(0.001)
            return invoke(*args, **kwargs)

        manager.invoke = invoke_when_all_joined
        barrier = threading.Barrier(len(requests))

        def run(request):
            barrier.wait(timeout=30)
            frontend.run(request)

        threads = [threading.Thread(target=run, args=(request,))
                   for request in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert all(r.phase is Phase.COMMITTED for r in requests), \
            [r.error for r in requests]
        assert flight.coalesced == coalesced + 7
        # One execution total: the leader ran the pipeline, everyone else
        # was coalesced onto its flight.
        assert manager.stats()["invocations"] == invocations + 1
        assert len({r.ana_id for r in requests}) == 1

    def test_a_flight_after_the_leader_stored_serves_its_entry(self, stack):
        """A request whose first lookup missed just before another's run
        stored its product, and whose flight began after that run left,
        is served the stored entry: the leader looks again."""
        _dm, frontend, manager, _dir, alice, hle = stack
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 40}))
        assert first.phase is Phase.COMMITTED, first.error
        invocations = manager.stats()["invocations"]
        cache = frontend.product_cache
        lookup, misses = cache.lookup, [None]

        def miss_once(user, key):
            return misses.pop() if misses else lookup(user, key)

        cache.lookup = miss_once
        second = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 40}))
        assert second.phase is Phase.COMMITTED, second.error
        assert not misses
        assert manager.stats()["invocations"] == invocations
        assert second.ana_id == first.ana_id


class TestStaleWhileDegraded:
    def test_stale_entry_served_when_breaker_open(self, stack):
        dm, frontend, manager, _dir, alice, hle = stack
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert first.phase is Phase.COMMITTED, first.error
        # The entry goes stale (a recalibration elsewhere) ...
        dm.process.bump_cache_epoch("test")
        # ... and the IDL pool breaker is open.
        for _failure in range(manager.breaker.min_calls):
            manager.breaker.record_failure()
        assert manager.breaker.state is BreakerState.OPEN
        invocations = manager.stats()["invocations"]
        degraded = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        assert degraded.phase is Phase.COMMITTED
        assert degraded.ana_id == first.ana_id
        assert degraded.parameters.get("served_from_cache") is True
        assert degraded.parameters.get("degraded") is True
        assert manager.stats()["invocations"] == invocations
        manager.breaker.reset()

    def test_no_stale_entry_means_the_failure_surfaces(self, stack):
        _dm, frontend, manager, _dir, alice, hle = stack
        for _failure in range(manager.breaker.min_calls):
            manager.breaker.record_failure()
        assert manager.breaker.state is BreakerState.OPEN
        request = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 99}))
        assert request.phase is Phase.FAILED
        manager.breaker.reset()


class TestCheckExisting:
    def test_finds_equivalent_prior_analysis(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        context = frontend.context
        assert context.check_existing(alice, hle["hle_id"], "histogram") is None
        first = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        existing = context.check_existing(alice, hle["hle_id"], "histogram")
        assert existing is not None and existing["ana_id"] == first.ana_id
        assert context.check_existing(alice, hle["hle_id"], "imaging") is None

    def test_counts_as_a_query(self, stack):
        _dm, frontend, _mgr, _dir, alice, hle = stack
        context = frontend.context
        before = context.queries
        context.check_existing(alice, hle["hle_id"], "histogram")
        assert context.queries == before + 1


class TestTelemetryReport:
    def test_report_includes_unified_cache_section(self, stack):
        dm, frontend, _mgr, _dir, alice, hle = stack
        # The process-default hub holds caches weakly and sums those of one
        # name: an earlier test's frontend still awaiting collection would
        # be counted with this one.
        gc.collect()
        frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "histogram", {"n_bins": 32}))
        report = dm.telemetry_report()
        assert "dm.sessions" in report["caches"]
        products = report["caches"]["pl.products"]
        assert products["hits"] >= 1
        assert products["entries"] == 1
        assert products["size_bytes"] > 0
