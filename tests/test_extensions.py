"""Tests for the extension features: database replication (§7.3),
predefined queries and reports (§4.1), purge rules (§4.1), the animation
strategy (§3.1), and StreamCorder uploads (§4.1)."""

import time

import pytest

from repro.dm import PurgeRule
from repro.metadb import (
    Column,
    ColumnType,
    Comparison,
    Database,
    Insert,
    IntegrityError,
    QueryError,
    Select,
    TableSchema,
    Update,
)
from repro.pl import Phase
from repro.repl import ReplicaGroup
from repro.security import AuthError


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        [Column("a", ColumnType.INTEGER, nullable=False),
         Column("v", ColumnType.TEXT)],
        primary_key="a",
    )


class TestReplication:
    """What ``tests/test_repl.py`` does not already hold the replica
    group to: a failed autocommit write, and the DM on top."""

    def test_failed_write_rolls_back_everywhere(self):
        group = ReplicaGroup(name="p", n_replicas=1)
        group.create_table(_schema())
        group.execute(Insert("t", {"a": 1, "v": "x"}))
        head = group.log.head_lsn
        with pytest.raises(IntegrityError):
            group.execute(Insert("t", {"a": 1, "v": "dup"}))
        assert group.log.head_lsn == head       # nothing shipped
        assert group.verify() == {"p-r1": {}}
        for copy in (group.primary, group.replicas[0].db):
            assert len(copy.execute(Select("t"))) == 1

    def test_dm_runs_on_replicated_database(self, tmp_path):
        """The DM's I/O layer sits on a ReplicaGroup unchanged, and a
        follower attached after the schema install bootstraps from the
        populated primary."""
        from repro.dm import DataManager
        from repro.filestore import DiskArchive, StorageManager

        group = ReplicaGroup(Database(name="hedc"))
        storage = StorageManager()
        archive = DiskArchive("main", tmp_path / "archive")
        storage.register(archive)
        dm = DataManager(group, storage, install_schema=True)
        dm.io.names.register_archive("main", str(archive.root))
        group.add_replica()  # replicate AFTER schema install
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        assert group.verify() == {"hedc-r1": {}}
        for _copy in range(group.n_copies):
            assert dm.semantic.get_hle(alice, hle_id)["hle_id"] == hle_id
        assert all(reads > 0 for reads in group.reads_by_copy.values())


class TestPredefinedQueries:
    def test_register_list_run(self, dm):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        for index in range(3):
            dm.semantic.insert_hle(
                alice,
                {"start_time": float(index), "end_time": float(index + 1),
                 "peak_rate": 100.0 * (index + 1), "public": index % 2 == 0},
            )
        dm.queries.register(
            "bright", "SELECT * FROM hle WHERE peak_rate >= 200 ORDER BY peak_rate DESC",
            description="bright events",
        )
        assert "bright" in dm.queries.names()
        assert dm.queries.describe("bright")["description"] == "bright events"
        # Anonymous callers see only public rows.
        anonymous = dm.queries.run("bright")
        assert all(row["public"] for row in anonymous)
        # The owner sees her private rows too.
        owned = dm.queries.run("bright", alice)
        assert len(owned) >= len(anonymous)

    def test_only_selects_on_domain_tables(self, dm):
        with pytest.raises(QueryError):
            dm.queries.register("bad", "DELETE FROM hle")
        with pytest.raises(QueryError):
            dm.queries.register("bad", "SELECT * FROM admin_users")

    def test_update_retunes_at_runtime(self, dm):
        dm.queries.register("q", "SELECT * FROM hle WHERE peak_rate > 10")
        dm.queries.update("q", "SELECT * FROM hle WHERE peak_rate > 999")
        assert "999" in dm.queries.describe("q")["sql"]
        with pytest.raises(KeyError):
            dm.queries.update("ghost", "SELECT * FROM hle")

    def test_unknown_query_rejected(self, dm):
        with pytest.raises(KeyError):
            dm.queries.run("ghost")

    def test_preset_served_through_web(self, populated_hedc):
        from repro.web import ThinClient

        hedc = populated_hedc
        if "everything" not in hedc.dm.queries.names():
            hedc.dm.queries.register(
                "everything", "SELECT * FROM hle ORDER BY start_time"
            )
        client = ThinClient(hedc.web)
        response = client.get("/hedc/search?preset=everything")
        assert response.status == 200
        assert "/hedc/hle?id=" in response.text


class TestReports:
    def test_repository_totals(self, populated_hedc):
        totals = populated_hedc.dm.reports.repository_totals()
        assert totals["hle"] == len(populated_hedc.events())
        assert totals["raw_units"] > 0

    def test_usage_summary_after_analyses(self, tmp_path):
        from repro.core import Hedc

        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        event = hedc.events()[0]
        hedc.analyze(user, event["hle_id"], "histogram")
        hedc.analyze(user, event["hle_id"], "lightcurve")
        summary = {row["operation"]: row for row in hedc.dm.reports.usage_summary()}
        assert summary["analysis:histogram"]["n"] == 1
        assert summary["analysis:lightcurve"]["avg_ms"] > 0
        top = hedc.dm.reports.top_users()
        assert top[0]["user_id"] == user.user_id

    def test_archive_status_report(self, populated_hedc):
        populated_hedc.dm.process.sync_archive_status()
        status = populated_hedc.dm.reports.archive_status()
        assert any(row["archive_id"] == "main" for row in status)

    def test_lineage_report(self, dm, tmp_path):
        dm.process._record_lineage("migration", "a:x", "b:x")
        rows = dm.reports.lineage_for("a:x")
        assert len(rows) == 1 and rows[0]["kind"] == "migration"


class TestPurgeRules:
    def _dm_with_old_private_analysis(self, dm):
        from repro.analysis import AnalysisProduct, render_pgm
        import numpy as np

        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        product = AnalysisProduct("imaging", {})
        product.add_image(render_pgm(np.eye(4)))
        old_ana = dm.semantic.import_analysis(alice, hle_id, product, {})
        fresh_product = AnalysisProduct("imaging", {})
        fresh_product.add_image(render_pgm(np.eye(4)))
        fresh_ana = dm.semantic.import_analysis(alice, hle_id, fresh_product, {})
        # Backdate the first analysis by a day.
        dm.io.execute(Update(
            "ana", {"created_at": time.time() - 86_400.0},
            Comparison("ana_id", "=", old_ana),
        ))
        return alice, hle_id, old_ana, fresh_ana

    def test_purge_removes_only_expired_private(self, dm):
        alice, hle_id, old_ana, fresh_ana = self._dm_with_old_private_analysis(dm)
        dm.maintenance.add_purge_rule(PurgeRule("day-old", max_age_s=3600.0))
        reports = dm.maintenance.apply_purge_rules()
        assert reports[0].analyses_deleted == 1
        assert reports[0].files_deleted >= 1
        assert reports[0].bytes_reclaimed > 0
        remaining = dm.semantic.analyses_for_hle(alice, hle_id)
        assert [row["ana_id"] for row in remaining] == [fresh_ana]

    def test_public_analyses_never_purged(self, dm):
        alice, hle_id, old_ana, _fresh = self._dm_with_old_private_analysis(dm)
        dm.semantic.publish_analysis(alice, old_ana)
        dm.maintenance.add_purge_rule(PurgeRule("day-old", max_age_s=3600.0))
        reports = dm.maintenance.apply_purge_rules()
        assert reports[0].analyses_deleted == 0

    def test_algorithm_scoped_rule(self, dm):
        alice, hle_id, old_ana, _fresh = self._dm_with_old_private_analysis(dm)
        dm.maintenance.add_purge_rule(
            PurgeRule("hist-only", max_age_s=3600.0, algorithm="histogram")
        )
        reports = dm.maintenance.apply_purge_rules()
        assert reports[0].analyses_deleted == 0  # old one is imaging

    def test_rules_persist_in_admin_config(self, dm):
        dm.maintenance.add_purge_rule(PurgeRule("r1", max_age_s=10.0))
        rules = dm.maintenance.purge_rules()
        assert rules[0].name == "r1" and rules[0].max_age_s == 10.0

    def test_scrub_orphan_files(self, dm):
        archive = dm.io.storage.archive("main")
        archive.store("orphan.bin", b"lost")
        item = dm.io.store_payload("kept.bin", b"kept")
        dm.io.names.register_file("item:kept", item.archive_id, item.rel_path)
        removed = dm.maintenance.scrub_orphan_files("main")
        assert removed == 1
        assert archive.exists("kept.bin")
        assert not archive.exists("orphan.bin")


class TestAnimationStrategy:
    def test_animation_commits_multi_frame_product(self, tmp_path):
        from repro.core import Hedc

        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        event = hedc.events()[0]
        request = hedc.analyze(user, event["hle_id"], "animation",
                               {"n_frames": 4, "n_pixels": 12})
        assert request.phase is Phase.COMMITTED, request.error
        stored = hedc.dm.semantic.get_analysis(user, request.ana_id)
        assert stored["n_images"] == 4
        assert "animation" in stored["notes"]
        images = hedc.dm.io.names.resolve_files(f"ana:{request.ana_id}", role="image")
        assert len(images) == 4

    def test_animation_validates_frames(self, tmp_path):
        from repro.core import Hedc

        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        event = hedc.events()[0]
        request = hedc.analyze(user, event["hle_id"], "animation", {"n_frames": 1})
        assert request.phase is Phase.FAILED


class TestStreamCorderUpload:
    def test_offline_result_uploaded_and_published(self, dm, tmp_path):
        from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan
        from repro.streamcorder import StreamCorder

        plan = standard_day_plan(duration=240.0, seed=17, n_flares=1, n_bursts=0, n_saa=0)
        photons = TelemetryGenerator(plan, seed=17).generate()
        units = package_units(photons, tmp_path / "in", unit_target_photons=10**6)
        for unit in units:
            dm.process.load_raw_unit(unit, "main")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle = dm.semantic.find_hles(alice)[0]

        corder = StreamCorder(dm, alice, tmp_path / "sc")
        local_photons = corder.fetch_unit(units[0].unit_id)
        ana_id = corder.upload_analysis(
            hle["hle_id"], "histogram",
            {"photons": local_photons, "attribute": "energy"},
            publish=True,
        )
        stored = dm.semantic.get_analysis(None, ana_id)  # publicly visible
        assert stored["algorithm"] == "streamcorder:histogram"
        assert stored["executed_on"] == "streamcorder"
        assert stored["n_images"] == 1

    def test_upload_requires_right(self, dm, tmp_path):
        from repro.streamcorder import StreamCorder

        guest = dm.users.create_user("guest", "pw", group="guest")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0,
                                             "public": True})
        corder = StreamCorder(dm, guest, tmp_path / "sc")
        import numpy as np
        from repro.rhessi import PhotonList

        photons = PhotonList(np.arange(5.0), np.full(5, 10.0), np.ones(5))
        with pytest.raises(AuthError):
            corder.upload_analysis(hle, "histogram", {"photons": photons})
