"""Replica groups: log shipping, failover, anti-entropy, crash recovery.

The paper closes its scaling discussion with "further scalability can be
achieved by replicating the database using standard techniques" (§7.3)
and demands a middle tier that "tolerate[s] failure and restart" (§5.1).
:mod:`repro.repl` supplies those standard techniques — these tests hold
it to the self-healing contract: reads survive any single copy's death,
a crashed follower rejoins by log replay (not a full re-clone), and
anti-entropy provably restores byte-identity.
"""

import random
import threading

import pytest

from repro.metadb import (
    Column,
    ColumnType,
    Comparison,
    Database,
    Delete,
    Insert,
    Select,
    TableSchema,
    Update,
)
from repro.repl import (
    LogShipper,
    ReplicaGroup,
    ReplicaState,
    ReplicationLog,
    range_checksums,
    rowid_ranges,
    verify_replica,
)
from repro.resil import BreakerState, FaultInjector, use_injector


def _schema(name="events"):
    return TableSchema(name, [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("label", ColumnType.TEXT),
        Column("value", ColumnType.REAL),
    ], primary_key="id")


def _fill(group, n, table="events", start=0):
    for index in range(start, start + n):
        group.execute(Insert(table, {
            "id": index, "label": f"row{index}", "value": float(index),
        }))


class TestReplicationLog:
    def test_lsns_are_dense_and_one_based(self):
        log = ReplicationLog()
        assert log.append(1, [{"op": "insert"}]) == 1
        assert log.append(2, [{"op": "delete"}]) == 2
        assert log.head_lsn == 2
        assert [e.lsn for e in log.entries_from(0)] == [1, 2]

    def test_entries_from_is_exclusive(self):
        log = ReplicationLog()
        for tx in range(5):
            log.append(tx, [{"tx": tx}])
        assert [e.lsn for e in log.entries_from(3)] == [4, 5]
        assert log.entries_from(5) == []

    def test_truncated_offset_raises_lookup_error(self):
        log = ReplicationLog()
        for tx in range(10):
            log.append(tx, [{}])
        log.truncate_to(6)
        assert log.base_lsn == 6
        assert [e.lsn for e in log.entries_from(6)] == [7, 8, 9, 10]
        with pytest.raises(LookupError):
            log.entries_from(5)

    def test_retention_cap_advances_base(self):
        log = ReplicationLog(retain=4)
        for tx in range(10):
            log.append(tx, [{}])
        assert log.base_lsn == 6 and len(log) == 4


class TestWriteReplication:
    def test_writes_and_ddl_reach_every_follower(self):
        group = ReplicaGroup(name="g", n_replicas=2)
        group.create_table(_schema())
        _fill(group, 12)
        group.execute(Update("events", {"label": "touched"},
                             where=Comparison("id", "<", 3)))
        group.execute(Delete("events", where=Comparison("id", ">=", 10)))
        for replica in group.replicas:
            assert replica.db.has_table("events")
            assert len(replica.db.table("events")) == 10
            assert replica.state is ReplicaState.IN_SYNC
        assert group.verify() == {"g-r1": {}, "g-r2": {}}

    def test_drop_table_replicates(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        group.drop_table("events")
        assert not group.replicas[0].db.has_table("events")

    def test_explicit_transaction_replicates_on_commit_only(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        follower = group.replicas[0].db
        tx = group.begin()
        group.execute(Insert("events", {"id": 1, "label": "a", "value": 1.0}),
                      tx=tx)
        assert len(follower.table("events")) == 0  # not yet committed
        group.commit(tx)
        assert len(follower.table("events")) == 1

    def test_rolled_back_transaction_ships_nothing(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        head_before = group.log.head_lsn
        tx = group.begin()
        group.execute(Insert("events", {"id": 1, "label": "a", "value": 1.0}),
                      tx=tx)
        group.rollback(tx)
        assert group.log.head_lsn == head_before
        assert len(group.replicas[0].db.table("events")) == 0

    def test_bootstrap_clones_a_populated_primary(self):
        primary = Database(name="p")
        primary.create_table(_schema())
        for index in range(8):
            primary.execute(Insert("events", {
                "id": index, "label": f"r{index}", "value": 0.0,
            }))
        group = ReplicaGroup(primary=primary, n_replicas=1)
        assert len(group.replicas[0].db.table("events")) == 8
        assert group.full_clones == 1
        assert group.verify() == {"p-r1": {}}


class TestReadRouting:
    def test_reads_rotate_across_all_copies(self):
        group = ReplicaGroup(name="g", n_replicas=2)
        group.create_table(_schema())
        _fill(group, 6)
        for _ in range(9):
            assert len(group.execute(Select("events"))) == 6
        assert sorted(group.reads_by_copy) == ["g", "g-r1", "g-r2"]
        assert all(count == 3 for count in group.reads_by_copy.values())

    def test_bounded_staleness_skips_lagging_followers(self):
        group = ReplicaGroup(name="g", n_replicas=1, auto_ship=False, max_lag=2)
        group.create_table(_schema())
        group.ship()  # settle the DDL entry
        _fill(group, 2)  # follower now lags by 2 == max_lag: still eligible
        reads_before = group.replicas[0].reads
        for _ in range(4):
            group.execute(Select("events"))
        assert group.replicas[0].reads > reads_before
        skips = group.obs.counter("repl.stale_skips", db="g", replica="g-r1")
        _fill(group, 1, start=2)  # lag 3 > max_lag: now too stale
        for _ in range(4):
            rows = group.execute(Select("events"))
            assert len(rows) == 3  # primary serves the freshest data
        assert skips.value >= 4
        assert group.reads_by_copy["g"] >= 4
        group.ship()  # caught up: follower is eligible again
        assert group.replicas[0].lag(group.log.head_lsn) == 0
        served = group.replicas[0].reads
        for _ in range(4):
            group.execute(Select("events"))
        assert group.replicas[0].reads > served

    def test_max_lag_zero_defaults_to_read_your_writes(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 5)
        # Synchronous auto-ship: the follower never lags, every copy
        # serves the committed state.
        for _ in range(6):
            assert len(group.execute(Select("events"))) == 5


class TestFailover:
    def test_reads_survive_a_dying_replica(self):
        group = ReplicaGroup(name="g", n_replicas=2, breaker_cooldown_s=60.0)
        group.create_table(_schema())
        _fill(group, 4)
        injector = FaultInjector(seed=7)
        injector.inject("repl.replica.g-r1.crash", rate=1.0)
        with use_injector(injector):
            for _ in range(24):
                assert len(group.execute(Select("events"))) == 4
        dead = group._replica("g-r1")
        assert dead.state is ReplicaState.DEAD
        assert group.breakers["g-r1"].state is BreakerState.OPEN
        assert group.failovers > 0
        # The healthy copies carried the load.
        assert group.reads_by_copy["g"] + group.reads_by_copy["g-r2"] == 24

    def test_partitioned_copy_revives_after_cooldown(self):
        import time

        group = ReplicaGroup(name="g", n_replicas=1, breaker_cooldown_s=0.1)
        group.create_table(_schema())
        _fill(group, 3)
        injector = FaultInjector(seed=7)
        injector.inject("repl.replica.g-r1.crash", rate=1.0)
        with use_injector(injector):
            for _ in range(16):
                group.execute(Select("events"))
        assert group._replica("g-r1").state is ReplicaState.DEAD
        # Partition healed + cooldown elapsed: the half-open probe read
        # succeeds and the copy revives without operator action.
        time.sleep(0.15)
        for _ in range(6):
            group.execute(Select("events"))
        assert group._replica("g-r1").state is ReplicaState.IN_SYNC

    def test_all_copies_dead_raises_the_last_transient(self):
        from repro.resil import InjectedFault

        group = ReplicaGroup(name="g", n_replicas=1, breaker_cooldown_s=60.0)
        group.create_table(_schema())
        injector = FaultInjector(seed=7)
        injector.inject("repl.replica.g.crash", rate=1.0)
        injector.inject("repl.replica.g-r1.crash", rate=1.0)
        with use_injector(injector):
            with pytest.raises(InjectedFault):
                group.execute(Select("events"))


class TestShippingFaults:
    def test_lost_ack_never_duplicates_rows(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        injector = FaultInjector(seed=7)
        # The follower applies the batch, then the ack is lost exactly once.
        injector.inject("repl.ack", rate=1.0, times=1)
        with use_injector(injector):
            _fill(group, 1)
        follower = group.replicas[0]
        assert follower.ship_failures == 1
        assert follower.state is ReplicaState.LAGGING
        # Re-ship: the duplicate batch is deduplicated by LSN.
        group.ship()
        assert follower.state is ReplicaState.IN_SYNC
        assert len(follower.db.table("events")) == 1
        assert group.verify() == {"g-r1": {}}

    def test_lost_batch_is_reshipped(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        injector = FaultInjector(seed=7)
        injector.inject("repl.ship", rate=1.0, times=1)
        with use_injector(injector):
            _fill(group, 1)
        assert group.replicas[0].lag(group.log.head_lsn) > 0
        group.ship()
        assert group.verify() == {"g-r1": {}}

    def test_writer_never_sees_ship_failures(self):
        """Log shipping is asynchronous to the caller: a broken follower
        degrades (lagging/dead) but the write itself commits."""
        group = ReplicaGroup(name="g", n_replicas=1, breaker_cooldown_s=60.0)
        group.create_table(_schema())
        injector = FaultInjector(seed=7)
        injector.inject("repl.ship", rate=1.0)
        with use_injector(injector):
            _fill(group, 8)
        assert len(group.primary.table("events")) == 8
        assert group._replica("g-r1").state in (ReplicaState.LAGGING,
                                                ReplicaState.DEAD)


class TestCrashRecovery:
    def test_inmemory_crash_falls_back_to_full_resync(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 10)
        group.kill_replica("g-r1")
        _fill(group, 5, start=10)
        result = group.rejoin_replica("g-r1")
        # An in-memory follower loses everything in a crash; with no WAL
        # to recover from, only anti-entropy can rebuild it.
        assert result["mode"] == "full_resync"
        assert result["rows_cloned"] == 15
        assert group.verify() == {"g-r1": {}}

    def test_persistent_crash_rejoins_via_log_replay(self, tmp_path):
        group = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 10)
        group.kill_replica("g-r1")
        clones_before = group.full_clones
        _fill(group, 5, start=10)
        result = group.rejoin_replica("g-r1")
        assert result["mode"] == "log_replay"
        assert result["replayed_records"] == 5
        assert group.full_clones == clones_before
        assert group.rejoins == 1
        assert len(group.replicas[0].db.table("events")) == 15
        assert group.verify() == {"g-r1": {}}

    def test_rejoin_recovers_from_a_torn_wal_tail(self, tmp_path):
        group = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 6)
        group.kill_replica("g-r1")
        # The crash left a half-written record at the follower's WAL tail.
        journal = group.replicas[0].path / "journal.jsonl"
        with open(journal, "ab") as handle:
            handle.write(b'{"tx": 999, "records": [{"op": "ins')
        _fill(group, 3, start=6)
        torn = group.obs.counter("metadb.wal.torn_tails")
        result = group.rejoin_replica("g-r1")
        assert torn.value >= 1
        assert result["mode"] == "log_replay"
        assert group.verify() == {"g-r1": {}}
        assert len(group.replicas[0].db.table("events")) == 9

    def test_replica_behind_retained_log_window_full_resyncs(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.log = ReplicationLog(retain=4)
        group.shipper = LogShipper(group.log, obs=group.obs)
        group.create_table(_schema())
        group.kill_replica("g-r1")
        _fill(group, 10)  # retention cap evicts the killed copy's offset
        result = group.rejoin_replica("g-r1")
        assert result["mode"] == "full_resync"
        assert group.full_clones >= 1
        assert group.verify() == {"g-r1": {}}

    def test_commits_during_rejoin_are_drained(self, tmp_path):
        """Auto-ship skips a rejoining copy; the rejoin's final drain must
        still leave it in sync with commits that raced the recovery."""
        group = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 4)
        group.kill_replica("g-r1")
        _fill(group, 4, start=4)
        group.rejoin_replica("g-r1")
        assert group.replicas[0].state is ReplicaState.IN_SYNC
        assert len(group.replicas[0].db.table("events")) == 8


class TestAntiEntropy:
    def test_rowid_ranges_cover_everything_open_ended(self):
        db = Database(name="x")
        db.create_table(_schema())
        for index in range(20):
            db.execute(Insert("events", {"id": index, "label": "", "value": 0.0}))
        ranges = rowid_ranges(db.table("events"), n_ranges=4)
        assert ranges[0][0] == 1
        assert ranges[-1][1] is None
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_verify_detects_silent_divergence(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 16)
        follower = group.replicas[0].db
        # Bit rot / operator error: a direct write bypassing the log.
        follower.table("events").update(3, {"label": "corrupted"})
        divergent = group.verify()["g-r1"]
        assert "events" in divergent and len(divergent["events"]) == 1

    def test_repair_recloned_only_divergent_ranges(self):
        group = ReplicaGroup(name="g", n_replicas=1, n_ranges=8)
        group.create_table(_schema())
        _fill(group, 64)
        follower = group.replicas[0].db
        follower.table("events").delete(5)
        follower.table("events").update(40, {"value": -1.0})
        report = group.repair()["g-r1"]
        assert report["ranges_repaired"] == 2
        assert report["rows_cloned"] < 64  # not a full re-clone
        assert group.verify() == {"g-r1": {}}
        assert group.repairs == 1
        assert group.replicas[0].last_repair["ranges_repaired"] == 2

    def test_repair_handles_missing_and_extra_tables(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 4)
        follower = group.replicas[0].db
        follower.drop_table("events")
        follower.create_table(_schema("stray"))
        group.repair()
        assert group.verify() == {"g-r1": {}}
        assert not group.replicas[0].db.has_table("stray")
        assert len(group.replicas[0].db.table("events")) == 4

    def test_reads_keep_flowing_during_repair(self):
        group = ReplicaGroup(name="g", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 32)
        group.replicas[0].db.table("events").delete(7)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    group.execute(Select("events"))
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(5):
                group.repair()
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert group.verify() == {"g-r1": {}}


class TestDifferentialRandomized:
    def test_crashed_replica_rejoins_byte_identical_under_concurrent_writes(
            self, tmp_path):
        """The acceptance bar: a replica crashed mid-stream, rejoined via
        WAL-recovery + log replay while writers keep committing, ends up
        byte-identical to the primary — proven by per-table range
        checksums, not row counts."""
        group = ReplicaGroup(name="diff", path=tmp_path / "diff", n_replicas=1)
        group.create_table(_schema())
        _fill(group, 30)
        rng = random.Random(2003)
        errors = []
        crashed = threading.Event()
        rejoined = threading.Event()

        def writer(worker):
            try:
                local = random.Random(worker)
                for index in range(60):
                    op = local.random()
                    rowid = local.randrange(1, 31)
                    if op < 0.5:
                        group.execute(Insert("events", {
                            "id": 1000 * (worker + 1) + index,
                            "label": f"w{worker}.{index}",
                            "value": local.random(),
                        }))
                    elif op < 0.8:
                        group.execute(Update(
                            "events", {"value": local.random()},
                            where=Comparison("id", "=", rowid)))
                    else:
                        group.execute(Delete(
                            "events", where=Comparison("id", "=", rowid)))
                    if index == 20 and worker == 0:
                        group.kill_replica("diff-r1")
                        crashed.set()
                    if index == 40 and worker == 0:
                        result = group.rejoin_replica("diff-r1")
                        assert result["mode"] == "log_replay", result
                        rejoined.set()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert crashed.is_set() and rejoined.is_set()
        # Settle whatever raced the final drain, then prove byte-identity.
        group.ship()
        assert group.verify() == {"diff-r1": {}}
        follower = group.replicas[0].db
        boundaries = rowid_ranges(group.primary.table("events"), 8)
        assert range_checksums(group.primary, "events", boundaries) == \
            range_checksums(follower, "events", boundaries)
        assert rng is not None  # seed documented above


class TestShardedReplication:
    def _sharded(self, tmp_path=None, **kwargs):
        from repro.schema import install_all
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(
            boundaries=(100.0,), name="cat",
            path=tmp_path, replicas_per_shard=2, **kwargs,
        )
        install_all(sharded)
        sharded.execute(Insert("admin_users", {
            "user_id": 1, "login": "op", "password_hash": "x",
        }))
        for index, start in enumerate([10.0, 50.0, 110.0, 150.0], start=1):
            sharded.execute(Insert("hle", {
                "hle_id": index, "item_id": f"hle:{index}", "owner_id": 1,
                "start_time": start, "end_time": start + 1.0,
            }))
        return sharded

    def test_killed_replica_never_yields_partial_result(self):
        from repro.shard import PartialResult

        sharded = self._sharded()
        groups = list(sharded._topology.dbs.values())
        for group in groups:
            assert isinstance(group, ReplicaGroup)
            for replica in list(group.replicas):
                group.kill_replica(replica.name)
                rows = sharded.execute(Select("hle"))
                assert not isinstance(rows, PartialResult)
                assert {row["hle_id"] for row in rows} == {1, 2, 3, 4}
                group.rejoin_replica(replica.name)

    def test_crash_fault_on_any_replica_never_yields_partial_result(self):
        from repro.shard import PartialResult

        sharded = self._sharded(breaker_cooldown_s=60.0)
        names = [replica.name
                 for group in sharded._topology.dbs.values()
                 for replica in group.replicas]
        assert len(names) == 2
        for name in names:
            injector = FaultInjector(seed=11)
            injector.inject(f"repl.replica.{name}.crash", rate=1.0)
            with use_injector(injector):
                for _ in range(8):
                    rows = sharded.execute(Select("hle"))
                    assert not isinstance(rows, PartialResult)
                    assert len(rows) == 4

    def test_replicas_per_shard_persists_across_reopen(self, tmp_path):
        sharded = self._sharded(tmp_path=tmp_path / "cat")
        sharded.checkpoint()
        from repro.shard import ShardedDatabase

        reopened = ShardedDatabase(path=tmp_path / "cat", name="cat")
        assert reopened.replicas_per_shard == 2
        groups = list(reopened._topology.dbs.values())
        assert all(isinstance(group, ReplicaGroup) for group in groups)
        assert len(reopened.execute(Select("hle"))) == 4

    def test_shard_report_includes_replica_topology(self):
        sharded = self._sharded()
        report = sharded.shard_report()
        assert report["replicas_per_shard"] == 2
        for entry in report["shards"]:
            assert entry["replicas"]["replicas"][0]["state"] == "in_sync"
        repl = sharded.repl_report()
        assert repl["replicas_per_shard"] == 2
        assert set(repl["per_shard"]) == {0, 1}

    def test_split_resyncs_followers_of_new_shards(self):
        from repro.shard import split_shard

        sharded = self._sharded()
        low_id, high_id = split_shard(sharded, 0, 50.0)
        for shard_id in (low_id, high_id):
            group = sharded._topology.dbs[shard_id]
            assert group.verify() == {
                replica.name: {} for replica in group.replicas
            }
        assert len(sharded.execute(Select("hle"))) == 4


class TestHedcIntegration:
    def test_replicated_hedc_serves_telemetry_and_debug(self, tmp_path):
        from repro.core import Hedc
        from repro.web import HttpRequest

        hedc = Hedc.create(tmp_path / "hedc", replicas_per_shard=2)
        hedc.register_user("alice", "pw")
        report = hedc.telemetry_report()
        assert report["replication"] is not None
        assert len(report["replication"]["replicas"]) == 1
        assert report["replication"]["replicas"][0]["state"] == "in_sync"

        import json as jsonlib

        metrics = hedc.web.handle(
            HttpRequest.get("/hedc/metrics?format=json"))
        assert metrics.status == 200
        body = jsonlib.loads(metrics.body.decode("utf-8"))
        assert body["replication"]["primary"] == "hedc"

        debug = hedc.web.handle(HttpRequest.get("/hedc/debug"))
        assert debug.status == 200
        assert "replication (head_lsn=" in debug.text
        assert "replica hedc-r1: in_sync" in debug.text

    def test_composed_hedc_reports_the_same_tree_on_every_surface(self, tmp_path):
        """Sharded and replicated at once: each shard's replica group is
        nested under its shard, and the telemetry report, both servlets
        and the health rollup all read the one ``describe()``."""
        import json as jsonlib

        from repro.core import Hedc
        from repro.web import HttpRequest

        hedc = Hedc.create(tmp_path / "hedc", shard_boundaries=(100.0,),
                           replicas_per_shard=2)
        hedc.register_user("alice", "pw")
        database = hedc.dm.io.default_database
        database.shard_db(1).kill_replica("hedc-s1-r1")

        tree = jsonlib.loads(jsonlib.dumps(database.describe()))
        assert tree["kind"] == "sharded"
        assert [entry["replicas"]["primary"]
                for entry in tree["shard"]["shards"]] == ["hedc-s0", "hedc-s1"]
        assert tree["replication"]["replicas_per_shard"] == 2
        assert sorted(tree["replication"]["per_shard"]) == ["0", "1"]

        report = jsonlib.loads(jsonlib.dumps(hedc.telemetry_report()))
        metrics = jsonlib.loads(hedc.web.handle(
            HttpRequest.get("/hedc/metrics?format=json")).body)
        debug = jsonlib.loads(hedc.web.handle(
            HttpRequest.get("/hedc/debug?format=json")).body)
        for surface in (report, metrics, debug):
            assert surface["shard"] == tree["shard"]
            assert surface["replication"] == tree["replication"]

        text = hedc.web.handle(HttpRequest.get("/hedc/debug")).text
        assert "    replica hedc-s0-r1: in_sync lag=0" in text
        assert "    replica hedc-s1-r1: dead" in text
        assert ("replication: 2 copies/shard, max_lag=0 "
                "(per-shard detail above)") in text
        metadb = hedc.obs.health.report()["subsystems"]["metadb"]
        assert metadb["causes"] == ["replica hedc-s1-r1 (shard 1) dead"]


class TestEvalmodelReplicaMath:
    def test_default_efficiency_reproduces_legacy_projection(self):
        from repro.evalmodel import project_scaling

        legacy = project_scaling(16, replicas_per_shard=1)
        replicated = project_scaling(16, replicas_per_shard=4)
        assert replicated.capacity_rps == pytest.approx(4 * legacy.capacity_rps)
        assert replicated.effective_copies == 4.0

    def test_measured_losses_discount_follower_capacity(self):
        from repro.evalmodel import project_scaling, replica_efficiency

        efficiency = replica_efficiency(
            stale_skip_fraction=0.1, failover_blip_s=2.0, mtbf_s=100.0,
            ship_overhead_fraction=0.05,
        )
        assert 0.0 < efficiency < 1.0
        ideal = project_scaling(16, replicas_per_shard=4)
        lossy = project_scaling(16, replicas_per_shard=4,
                                replica_read_efficiency=efficiency)
        assert lossy.capacity_rps < ideal.capacity_rps
        # The primary always counts in full.
        floor = project_scaling(16, replicas_per_shard=1)
        assert lossy.capacity_rps > floor.capacity_rps

    def test_efficiency_bounds_are_validated(self):
        from repro.evalmodel import project_scaling, replica_efficiency

        with pytest.raises(ValueError):
            replica_efficiency(stale_skip_fraction=1.5)
        with pytest.raises(ValueError):
            project_scaling(4, replica_read_efficiency=-0.1)


class TestOpenBreakerSkip:
    def test_open_breaker_copies_are_filtered_before_any_attempt(self):
        """A copy whose breaker is already open leaves the rotation
        before any attempt: no read reaches it, its fault point is not
        even evaluated, and the primary serves."""
        group = ReplicaGroup(name="p", n_replicas=1, breaker_cooldown_s=60.0)
        group.create_table(_schema())
        injector = FaultInjector(seed=7)
        point = injector.inject("repl.replica.p-r1.crash", rate=1.0)
        with use_injector(injector):
            for _ in range(30):
                group.execute(Select("events"))
                if group.breakers["p-r1"].state is BreakerState.OPEN:
                    break
            assert group.breakers["p-r1"].state is BreakerState.OPEN
            evaluated_before = point.evaluated
            failovers_before = group.failovers
            primary_reads_before = group.reads_by_copy["p"]
            for _ in range(10):
                assert group.execute(Select("events")) == []
            assert point.evaluated == evaluated_before
            assert group.failovers == failovers_before
        assert group.replicas[0].reads == 0
        assert group.reads_by_copy["p"] == primary_reads_before + 10


class TestVerifyReplicaStandalone:
    def test_verify_replica_flags_missing_tables_both_ways(self):
        left = Database(name="l")
        right = Database(name="r")
        left.create_table(_schema("only_left"))
        right.create_table(_schema("only_right"))
        divergent = verify_replica(left, right)
        assert divergent == {"only_left": [(1, None)],
                             "only_right": [(1, None)]}
