"""Failure-injection tests: compensation, recovery and degradation paths.

The paper's middle tier promises "interactions ... are self-recovering
and tolerate failure and restart" (§5.1) and workflows where
"compensating actions are taken if failures occur" (§5.2).  These tests
force those failures.
"""

import threading

import pytest

from repro.dm import DataManager, WorkflowError
from repro.filestore import ArchiveError, DiskArchive, StorageManager
from repro.metadb import Comparison, Insert, Select
from repro.pl import (
    AnalysisRequest,
    Frontend,
    IdlServerManager,
    NoServerAvailable,
    Phase,
)
from repro.resil import ConnectionDropped, FaultInjector, use_injector
from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan


class _CorruptingArchive(DiskArchive):
    """Flips a byte on store — a bad disk or a flaky transfer."""

    def store(self, rel_path, payload):
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        return super().store(rel_path, corrupted)


@pytest.fixture()
def unit(tmp_path):
    plan = standard_day_plan(duration=120.0, seed=23, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=23).generate()
    return package_units(photons, tmp_path / "in", unit_target_photons=10**6)[0]


class TestLoadCompensation:
    def test_duplicate_unit_load_rejected_before_metadata(self, dm, unit):
        dm.process.load_raw_unit(unit, "main")
        archive = dm.io.storage.archive("main")
        files_before = len(archive.list_items())
        rows_before = len(dm.io.execute(Select("raw_units")))
        # A second load of the same unit collides on the read-only file
        # store before any metadata is written.
        with pytest.raises(Exception):
            dm.process.load_raw_unit(unit, "main")
        assert len(archive.list_items()) == files_before
        assert len(dm.io.execute(Select("raw_units"))) == rows_before

    def test_metadata_failure_after_store_removes_file(self, dm, unit):
        """The §5.2 compensation path: the file was stored, then the
        transaction failed — the stored file must be removed again."""
        # Poison the location table: the unit's rel_path is already
        # claimed, so register_file inside the load transaction will
        # violate the (archive, rel_path) unique constraint.
        dm.io.names.register_file(
            "item:poison", "main", f"raw/{unit.unit_id}.fits.gz"
        )
        archive = dm.io.storage.archive("main")
        with pytest.raises(Exception):
            dm.process.load_raw_unit(unit, "main")
        # Compensation removed the freshly stored file and rolled back
        # the raw_units tuple.
        assert not archive.exists(f"raw/{unit.unit_id}.fits.gz")
        assert dm.io.execute(Select("raw_units")) == []

    def test_load_fails_cleanly_when_archives_full(self, tmp_path, unit):
        database_dm = DataManager.standalone(tmp_path / "dm")
        # The only online archive is too small for the unit: no spill
        # target exists, the placement must fail, and no metadata may
        # have been written.
        small = DiskArchive("tiny", tmp_path / "tiny", capacity_bytes=64)
        database_dm.io.storage.register(small)
        database_dm.io.storage.archive("main").online = False
        with pytest.raises(ArchiveError):
            database_dm.process.load_raw_unit(unit, "tiny")
        assert database_dm.io.execute(Select("raw_units")) == []


class TestMigrationCompensation:
    def test_corrupt_copy_is_removed_and_source_kept(self, tmp_path):
        manager = StorageManager()
        good = DiskArchive("good", tmp_path / "good")
        bad = _CorruptingArchive("bad", tmp_path / "bad")
        manager.register(good)
        manager.register(bad)
        good.store("x", b"precious bits")
        with pytest.raises(ArchiveError, match="checksum"):
            manager.migrate("x", "good", "bad")
        # Compensation: the corrupt destination copy is gone,
        # the source copy survives.
        assert not bad.exists("x")
        assert good.retrieve("x") == b"precious bits"
        assert manager.migrations == []

    def test_relocation_stops_on_offline_destination(self, dm, unit, tmp_path):
        dm.process.load_raw_unit(unit, "main")
        cold = DiskArchive("cold", tmp_path / "cold")
        dm.io.storage.register(cold)
        dm.io.names.register_archive("cold", str(cold.root))
        cold.online = False
        with pytest.raises(WorkflowError):
            dm.process.relocate_archive("main", "cold")
        # Source data still reachable.
        photons = dm.process.load_photons(unit.unit_id)
        assert len(photons) == unit.n_photons


class TestPlFaultTolerance:
    def test_request_survives_single_interpreter_crash(self, dm, unit, tmp_path):
        dm.process.load_raw_unit(unit, "main")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle = dm.semantic.find_hles(alice)[0]
        crashes = {"left": 1}

        def crash_once():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise OSError("interpreter died")

        manager = IdlServerManager("node", n_servers=1, fault_hook=crash_once)
        manager.start_all()
        frontend = Frontend(dm, manager)
        request = frontend.run(AnalysisRequest(alice, hle["hle_id"], "histogram", {}))
        assert request.phase is Phase.COMMITTED, request.error
        assert manager.recoveries >= 1

    def test_persistent_crash_fails_request_not_system(self, dm, unit):
        dm.process.load_raw_unit(unit, "main")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle = dm.semantic.find_hles(alice)[0]

        def always_crash():
            raise OSError("dead interpreter")

        manager = IdlServerManager("node", n_servers=1, fault_hook=always_crash)
        manager.start_all()
        frontend = Frontend(dm, manager)
        request = frontend.run(AnalysisRequest(alice, hle["hle_id"], "histogram", {}))
        assert request.phase is Phase.FAILED
        # The manager itself is still serviceable after a restart cycle.
        assert manager.n_servers == 1

    def test_no_server_available_when_all_stopped(self):
        manager = IdlServerManager("node", n_servers=1)
        # never started
        with pytest.raises(NoServerAvailable):
            manager.invoke("1 + 1")

    def test_failed_request_leaves_no_analysis_tuple(self, dm, unit):
        dm.process.load_raw_unit(unit, "main")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle = dm.semantic.find_hles(alice)[0]
        manager = IdlServerManager("node", n_servers=1)
        manager.start_all()
        frontend = Frontend(dm, manager)
        request = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], "animation", {"n_frames": 1})
        )
        assert request.phase is Phase.FAILED
        assert dm.semantic.analyses_for_hle(alice, hle["hle_id"]) == []


class TestSessionEviction:
    def test_lru_user_evicted_at_capacity(self):
        from repro.dm import SessionCache
        from repro.security import User

        cache = SessionCache(max_users=2)
        users = [User(i, f"u{i}", "user", frozenset({"browse"})) for i in range(3)]
        first = cache.create(users[0], "hle", "ip")
        cache.create(users[1], "hle", "ip")
        cache.create(users[2], "hle", "ip")  # evicts the LRU user
        assert cache.by_cookie(first.cookie) is None


class TestTwoDmNodesUnderConcurrency:
    def test_parallel_calls_on_two_nodes_complete_without_id_collisions(self, tmp_path):
        """§7.3's two DM nodes over one database: six threads call the
        nodes directly, alternating, reading and inserting with ids from
        ``allocate_id``."""
        dm0 = DataManager.standalone(tmp_path / "n0")
        dm1 = DataManager(dm0.io.default_database, dm0.io.storage,
                          node_name="dm1", install_schema=False)
        errors = []
        counted = {"n": 0}
        lock = threading.Lock()

        def worker(worker_index):
            try:
                for call in range(20):
                    node = (dm0, dm1)[(worker_index + call) % 2]
                    if call % 2:
                        node.io.execute(Select("admin_config"))
                    else:
                        config_id = node.io.allocate_id("admin_config", "config_id")
                        node.io.execute(Insert("admin_config", {
                            "config_id": config_id, "section": "load",
                            "key": f"w{worker_index}-{call}",
                        }))
                    with lock:
                        counted["n"] += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert counted["n"] == 120
        rows = dm0.io.execute(Select("admin_config",
                                     where=Comparison("section", "=", "load")))
        assert len(rows) == 60
        assert len({row["config_id"] for row in rows}) == 60


class TestMultiNodeIdAllocation:
    def test_two_nodes_never_collide_on_ids(self, tmp_path):
        """Two DM nodes over one resource tier (§7.3) insert HLEs
        concurrently; the shared atomic allocator prevents PK collisions."""
        dm0 = DataManager.standalone(tmp_path / "n0")
        dm1 = DataManager(dm0.io.default_database, dm0.io.storage,
                          node_name="dm1", install_schema=False)
        alice = dm0.users.create_user("alice", "pw", group="scientist")
        errors = []

        def worker(node):
            try:
                for index in range(30):
                    node.semantic.insert_hle(
                        alice, {"start_time": float(index), "end_time": float(index + 1)}
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(node,))
                   for node in (dm0, dm1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        rows = dm0.io.execute(Select("hle"))
        assert len(rows) == 60
        assert len({row["hle_id"] for row in rows}) == 60


class TestWebDegradation:
    def test_internal_errors_become_500_pages(self, dm, monkeypatch):
        from repro.web import HttpRequest, WebServer

        server = WebServer(dm)
        monkeypatch.setattr(dm, "fetch_page", lambda user, hle_id: 1 / 0)
        response = server.handle(HttpRequest.get("/hedc/hle?id=1"))
        assert response.status == 500
        assert "ZeroDivisionError" in response.text
        monkeypatch.undo()
        # An unknown entity is the client's mistake: typed, not internal.
        response = server.handle(HttpRequest.get("/hedc/hle?id=424242"))
        assert response.status == 404
        assert "not found" in response.text
        # The server keeps serving afterwards.
        assert server.handle(HttpRequest.get("/hedc/catalogs")).status == 200

    def test_best_effort_synoptic_with_every_archive_down(self):
        from repro.synoptic import SynopticArchive, SynopticSearch

        search = SynopticSearch()
        for index in range(3):
            archive = SynopticArchive(f"dead{index}", failure_rate=1.0, seed=index)
            archive.populate("X", 0.0, 100.0, cadence_s=10.0)
            search.register(archive)
        outcome = search.search(0.0, 100.0)
        assert outcome.total_records == 0
        assert len(outcome.archives_failed) == 3


CHAOS_SEED = 2003


@pytest.mark.chaos
class TestSeededChaos:
    """Seeded chaos: ~5% fault rates across every tier, a mixed
    browse + analysis workload, and three invariants — every operation
    eventually succeeds, no stored data is corrupted, and the resilience
    machinery (retries, recoveries, failover, shedding) demonstrably did
    the surviving.
    """

    def test_mixed_workload_survives_five_percent_faults(self, tmp_path):
        from repro.core import Hedc

        hedc = Hedc.create(tmp_path / "hedc")
        hedc.ingest_observation(duration_s=240.0, seed=13,
                                unit_target_photons=200_000)
        user = hedc.register_user("chaos", "pw")
        events = hedc.events(user)
        assert events

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.inject("metadb.statement", rate=0.05)
        injector.inject("filestore.read", rate=0.05)
        injector.inject("filestore.corrupt", rate=0.05, error=None,
                        corrupt=True)
        injector.inject("idl.crash", rate=0.05)
        injector.inject("web.connection_drop", rate=0.05,
                        error=ConnectionDropped)

        def eventually(operation, tries=10):
            last = None
            for _ in range(tries):
                try:
                    outcome = operation()
                except Exception as exc:
                    last = exc
                    continue
                if outcome is not None:
                    return outcome
            raise AssertionError(f"never succeeded under chaos: {last}")

        with use_injector(injector):
            client = hedc.thin_client()
            assert eventually(
                lambda: client.login("chaos", "pw") or None
            )
            committed = 0
            for event in events:
                for algorithm in ("histogram", "lightcurve"):
                    def analysis(hle_id=event["hle_id"], algo=algorithm):
                        request = hedc.analyze(user, hle_id, algo,
                                               {"n_bins": 16})
                        return (request
                                if request.phase is Phase.COMMITTED else None)

                    assert eventually(analysis)
                    committed += 1
            browses = 0
            for _round in range(3):
                for event in events:
                    def browse(hle_id=event["hle_id"]):
                        result = client.browse_hle(hle_id)
                        return result if result.page_bytes > 0 else None

                    assert eventually(browse)
                    browses += 1

        # The chaos actually happened...
        stats = injector.stats()
        assert sum(point["fired"] for point in stats.values()) > 0
        # ...and the resilience machinery absorbed it: the DM's read
        # retries, the client's reconnects, and/or the PL's crash
        # recoveries saw action.
        retries = hedc.obs.counter("resil.retries", policy="dm.read").value
        reconnects = hedc.obs.counter("resil.retries",
                                      policy="client.reconnect").value
        assert retries + reconnects + hedc.idl.recoveries > 0
        assert committed == 2 * len(events) and browses == 3 * len(events)

        # Zero corruption: with faults cleared, every recorded checksum
        # still matches the on-media bytes.
        injector.clear()
        assert hedc.dm.io.storage.verify_recorded() == []

    def test_partition_trips_breakers_and_web_sheds(self, tmp_path):
        """A fully partitioned resource tier: reads fail over, breakers
        trip, the web tier sheds with 503 + Retry-After, and the system
        recovers when the partition heals."""
        import time

        from repro.repl import ReplicaGroup
        from repro.web import HttpRequest, WebServer

        group = ReplicaGroup(name="p", breaker_cooldown_s=0.2)
        storage = StorageManager(scratch_dir=tmp_path / "scratch")
        storage.register(DiskArchive("main", tmp_path / "archive"))
        dm = DataManager(group, storage)
        dm.io.names.ensure_archive("main", str(tmp_path / "archive"))
        group.add_replica()
        server = WebServer(dm)

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.inject("repl.replica.p.crash", rate=1.0)
        injector.inject("repl.replica.p-r1.crash", rate=1.0)
        shed = server.obs.counter("web.shed", server=server.name,
                                  route="/hedc/catalogs")
        with use_injector(injector):
            statuses = [
                server.handle(HttpRequest.get("/hedc/catalogs")).status
                for _ in range(6)
            ]
            assert 503 in statuses
            response = server.handle(HttpRequest.get("/hedc/catalogs"))
            assert response.status == 503
            assert int(response.headers["Retry-After"]) >= 1
        assert shed.value > 0
        assert group.failovers > 0
        assert sum(b.trips for b in group.breakers.values()) >= 2

        # Partition healed: after the cooldown the breakers half-open,
        # the probes succeed, and service restores without operator action.
        time.sleep(0.25)
        assert server.handle(HttpRequest.get("/hedc/catalogs")).status == 200

    def test_stale_product_served_degraded_while_idl_down(self, tmp_path):
        """Stale-while-degraded: a warm product whose calibration epoch
        has moved on is still served — marked ``degraded`` — when the
        whole IDL pool is down and its breaker is open, instead of
        failing the request outright."""
        from repro.core import Hedc
        from repro.resil import BreakerState

        hedc = Hedc.create(tmp_path / "hedc")
        hedc.ingest_observation(duration_s=240.0, seed=13,
                                unit_target_photons=200_000)
        user = hedc.register_user("chaos", "pw")
        event = hedc.events(user)[0]

        # Warm the product cache with a committed analysis ...
        warmed = hedc.analyze(user, event["hle_id"], "histogram",
                              {"n_bins": 16})
        assert warmed.phase is Phase.COMMITTED, warmed.error
        # ... then make it stale: a new calibration version bumps the
        # DM's cache epoch, so a fresh lookup now misses.
        hedc.dm.process.publish_calibration((1.01,) * 9, (0.0,) * 9,
                                            note="mid-mission recal")

        injector = FaultInjector(seed=CHAOS_SEED)
        # Rate 1.0 is deterministic: every IDL invocation crashes, so
        # the pool's final outcomes are all failures.
        injector.inject("idl.crash", rate=1.0)
        breaker = hedc.idl.breaker
        with use_injector(injector):
            # Distinct forced probes (cache bypassed) fail until the
            # pool breaker accumulates enough outcomes to trip.
            probes = 0
            while breaker.state is not BreakerState.OPEN:
                probe = hedc.analyze(
                    user, event["hle_id"], "histogram",
                    {"n_bins": 16, "probe": probes, "force": True})
                assert probe.phase is Phase.FAILED
                probes += 1
                assert probes <= 3 * breaker.min_calls, "breaker never tripped"
            invocations = hedc.idl.stats()["invocations"]

            # The warmed-but-stale request is served, degraded, with the
            # IDL tier never touched.
            served = hedc.analyze(user, event["hle_id"], "histogram",
                                  {"n_bins": 16})
            assert served.phase is Phase.COMMITTED
            assert served.ana_id == warmed.ana_id
            assert served.parameters.get("served_from_cache") is True
            assert served.parameters.get("degraded") is True
            assert hedc.idl.stats()["invocations"] == invocations

            # A request with no cached product has nothing to fall back
            # on: it fails fast on the open breaker.
            cold = hedc.analyze(user, event["hle_id"], "lightcurve", {})
            assert cold.phase is Phase.FAILED

        # Chaos cleared and breaker cooled down: full service resumes.
        injector.clear()
        breaker.reset()
        fresh = hedc.analyze(user, event["hle_id"], "histogram",
                             {"n_bins": 16, "force": True})
        assert fresh.phase is Phase.COMMITTED, fresh.error

    def test_shard_killed_mid_scatter_degrades_one_time_range(self):
        """One catalog shard dies mid-scatter: queries over the other
        time ranges still succeed in full, the affected range comes back
        as a typed :class:`PartialResult` naming the missing range, and
        the shard's breaker trips so later scatters skip it cheaply."""
        from repro.metadb import Between, Comparison, Insert
        from repro.resil import BreakerState
        from repro.schema import install_all
        from repro.shard import PartialResult, ShardedDatabase

        sharded = ShardedDatabase(boundaries=(100.0, 200.0), name="chaos",
                                  breaker_cooldown_s=60.0)
        install_all(sharded)
        sharded.execute(Insert("admin_users", {
            "user_id": 1, "login": "chaos", "password_hash": "x",
        }))
        for index, start in enumerate(
                [10.0, 50.0, 110.0, 150.0, 210.0, 250.0], start=1):
            sharded.execute(Insert("hle", {
                "hle_id": index, "item_id": f"hle:{index}", "owner_id": 1,
                "start_time": start, "end_time": start + 1.0,
            }))

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.inject("metadb.shard.1.statement", rate=1.0)
        with use_injector(injector):
            for _round in range(4):
                rows = sharded.execute(Select("hle"))
                assert isinstance(rows, PartialResult)
                assert [m["shard_id"] for m in rows.missing_shards] == [1]
                assert rows.missing_shards[0] == {
                    "shard_id": 1, "low": 100.0, "high": 200.0,
                }
                # Both healthy time ranges answered in full.
                assert {row["hle_id"] for row in rows} == {1, 2, 5, 6}
            # Healthy ranges are entirely unaffected (pruned routes never
            # touch the dead shard).
            early = sharded.execute(
                Select("hle", where=Comparison("start_time", "<", 100.0)))
            assert not isinstance(early, PartialResult)
            assert len(early) == 2
            late = sharded.execute(
                Select("hle", where=Comparison("start_time", ">=", 200.0)))
            assert not isinstance(late, PartialResult)
            # The dead range itself degrades to a typed empty result.
            dead = sharded.execute(
                Select("hle", where=Between("start_time", 100.0, 199.0)))
            assert isinstance(dead, PartialResult) and len(dead) == 0
        # The repeated failures tripped the shard's own breaker; the
        # injected chaos demonstrably happened.
        assert sharded.breakers[1].state is BreakerState.OPEN
        assert injector.stats()["metadb.shard.1.statement"]["fired"] > 0
        assert sharded.degraded_count >= 5

    def test_killed_shard_fires_fast_burn_alert_and_clears_on_rejoin(self, tmp_path):
        """The PR-10 observability loop closed end to end: a killed shard
        burns the data-read-completeness SLO, the **fast** window fires a
        burn-rate alert whose attributed cause names the dead shard and
        its range, and after the shard rejoins the alert clears — only
        after the hysteresis hold, never on the first good sample."""
        import time

        from repro.metadb import Insert
        from repro.obs import Observability, Slo
        from repro.resil import BreakerState
        from repro.schema import install_all
        from repro.shard import PartialResult, ShardedDatabase

        obs = Observability(name="chaos6")
        sharded = ShardedDatabase(boundaries=(100.0, 200.0), name="chaos6",
                                  path=tmp_path / "cat", obs=obs,
                                  breaker_cooldown_s=0.05)
        install_all(sharded)
        sharded.execute(Insert("admin_users", {
            "user_id": 1, "login": "chaos", "password_hash": "x",
        }))
        for index, start in enumerate(
                [10.0, 50.0, 110.0, 150.0, 210.0, 250.0], start=1):
            sharded.execute(Insert("hle", {
                "hle_id": index, "item_id": f"hle:{index}", "owner_id": 1,
                "start_time": start, "end_time": start + 1.0,
            }))
        # Wire the rollup exactly as WebServer does, minus the web tier:
        # health reads the data tier's section of the report tree,
        # alerts resolve causes from health.
        obs.contribute("data", sharded.describe)
        obs.slo.cause_resolver = obs.health.attributed_cause
        obs.slo.define(Slo(
            name="data-read-completeness", kind="ratio", objective=0.9,
            bad_family="metadb.shard.degraded",
            total_family="metadb.shard.route",
            fast_window_s=5.0, slow_window_s=10.0,
            fast_burn_threshold=2.0, slow_burn_threshold=1000.0,
            clear_burn_threshold=1.0, clear_after_s=2.0, min_events=3,
        ))
        collector = obs.collector
        clock = {"now": 0.0}

        def tick():
            clock["now"] += 1.0
            collector.sample_once(now=clock["now"])

        tick()  # baseline sample: setup-time route counts become history
        for _round in range(5):
            assert not isinstance(sharded.execute(Select("hle")), PartialResult)
            tick()
        assert obs.slo.active_alerts() == []

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.inject("metadb.shard.1.statement", rate=1.0)
        with use_injector(injector):
            # Fail until the shard breaker trips — the cause must already
            # be attributable when the alert fires.
            for _attempt in range(30):
                assert isinstance(sharded.execute(Select("hle")), PartialResult)
                if sharded.breakers[1].state is BreakerState.OPEN:
                    break
            assert sharded.breakers[1].state is BreakerState.OPEN
            for _round in range(2):
                assert isinstance(sharded.execute(Select("hle")), PartialResult)
                tick()
        fired = obs.slo.active_alerts()
        assert [(a["slo"], a["window"]) for a in fired] == [
            ("data-read-completeness", "fast"),
        ]
        assert "shard 1" in fired[0]["cause"]
        assert "100.0" in fired[0]["cause"]  # the degraded range is named
        events = obs.events.find("slo.alert_fired")
        assert events and "shard 1" in events[0].fields["cause"]

        # Rejoin: chaos off, cooldown elapses, the half-open probe closes
        # the breaker and scatters are whole again.
        time.sleep(0.06)
        rows = sharded.execute(Select("hle"))
        assert not isinstance(rows, PartialResult)
        assert sharded.breakers[1].state is BreakerState.CLOSED
        # Hysteresis: the burn falls to zero as the failure window ages
        # out, but the alert holds until it stays below the clear
        # threshold for clear_after_s of samples...
        for _round in range(5):
            assert not isinstance(sharded.execute(Select("hle")), PartialResult)
            tick()
        assert obs.slo.active_alerts(), "alert cleared without hysteresis hold"
        # ...and only then clears, emitting the recovery event.
        for _round in range(3):
            assert not isinstance(sharded.execute(Select("hle")), PartialResult)
            tick()
        assert obs.slo.active_alerts() == []
        assert obs.events.find("slo.alert_cleared")
        assert injector.stats()["metadb.shard.1.statement"]["fired"] > 0

    def test_replica_killed_mid_scatter_during_concurrent_split(self, tmp_path):
        """With ``replicas_per_shard >= 2`` a single replica's death is
        invisible: one shard's follower is killed mid-scatter while
        another shard splits concurrently (and lossy shipping chaos is
        armed); no read ever degrades to a :class:`PartialResult`, the
        dead copy rejoins by WAL-recovered log replay — not a re-clone —
        and anti-entropy then finds zero divergent ranges."""
        from repro.metadb import Insert
        from repro.schema import install_all
        from repro.shard import PartialResult, ShardedDatabase, split_shard

        sharded = ShardedDatabase(
            boundaries=(100.0,), name="chaos5", path=tmp_path / "cat",
            replicas_per_shard=2, breaker_cooldown_s=60.0,
        )
        install_all(sharded)
        sharded.execute(Insert("admin_users", {
            "user_id": 1, "login": "chaos", "password_hash": "x",
        }))
        for index, start in enumerate(
                [10.0, 30.0, 60.0, 90.0, 110.0, 150.0], start=1):
            sharded.execute(Insert("hle", {
                "hle_id": index, "item_id": f"hle:{index}", "owner_id": 1,
                "start_time": start, "end_time": start + 1.0,
            }))
        survivor_group = sharded._topology.dbs[1]   # keeps its replica
        victim = survivor_group.replicas[0].name

        injector = FaultInjector(seed=CHAOS_SEED)
        # Lossy shipping: dropped batches and lost acks at ~5%; the
        # LSN dedup and re-ship machinery must absorb both silently.
        injector.inject("repl.ship", rate=0.05)
        injector.inject("repl.ack", rate=0.05)

        split_errors = []

        def splitter():
            try:
                split_shard(sharded, 0, 50.0)
            except Exception as exc:  # pragma: no cover
                split_errors.append(exc)

        with use_injector(injector):
            from repro.metadb import Select as _Select

            split_thread = threading.Thread(target=splitter)
            split_thread.start()
            try:
                next_id = 7
                for round_index in range(30):
                    if round_index == 5:
                        # The follower dies mid-scatter, mid-split.
                        survivor_group.kill_replica(victim)
                    rows = sharded.execute(_Select("hle"))
                    assert not isinstance(rows, PartialResult)
                    assert len(rows) >= 6
                    # Writes keep landing on the dead copy's shard, so
                    # the rejoin below has real log entries to replay.
                    sharded.execute(Insert("hle", {
                        "hle_id": next_id, "item_id": f"hle:{next_id}",
                        "owner_id": 1, "start_time": 120.0 + next_id,
                        "end_time": 121.0 + next_id,
                    }))
                    next_id += 1
            finally:
                split_thread.join()
            assert not split_errors

            # Crash-consistent rejoin: the follower recovers from its own
            # WAL and catches up by replaying the shipped log — no full
            # re-clone.
            clones_before = survivor_group.full_clones
            result = survivor_group.rejoin_replica(victim)
            assert result["mode"] == "log_replay", result
            assert result["replayed_records"] > 0
            assert survivor_group.full_clones == clones_before

        # The chaos demonstrably happened...
        stats = injector.stats()
        assert stats["repl.ship"]["fired"] + stats["repl.ack"]["fired"] > 0
        # ...and anti-entropy proves byte-identity everywhere: zero
        # divergent ranges on every copy of every shard.
        injector.clear()
        for group in sharded._topology.dbs.values():
            group.ship()
            assert group.verify() == {
                replica.name: {} for replica in group.replicas
            }
        # The split completed under all of it.
        assert sharded.splits == 1
        rows = sharded.execute(Select("hle"))
        assert not isinstance(rows, PartialResult)
        assert len(rows) == 36
