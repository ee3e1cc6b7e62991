"""Tests for the DM component: name mapping, I/O layer, semantic layer,
process layer and sessions."""

import gzip
import sys
import threading

import pytest

from repro.analysis import AnalysisProduct, render_pgm
from repro.dm import DataManager, NameMappingError, SessionCache, WorkflowError
from repro.dm.semantic import EntityNotFound
from repro.dm.process import ProcessLayer
from repro.filestore import ArchiveError, ArchiveOffline, DiskArchive, checksum_bytes
from repro.fits import FitsError, read as read_fits_file
from repro.obs import Observability
from repro.metadb import Between, Comparison, Delete, In, Insert, QueryError, Select, Update
from repro.rhessi import PhotonList, TelemetryGenerator, package_units, standard_day_plan
from repro.security import AuthError, ConstraintViolation

import numpy as np


@pytest.fixture()
def loaded_dm(dm, tmp_path):
    """A DM with one loaded raw unit and a scientist account."""
    plan = standard_day_plan(duration=240.0, seed=17, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=17).generate()
    units = package_units(photons, tmp_path / "incoming", unit_target_photons=10**6)
    catalog_id = dm.semantic.create_catalog(dm.import_user, "standard", public=True)
    for unit in units:
        dm.process.load_raw_unit(unit, "main", standard_catalog_id=catalog_id)
    dm.users.create_user("alice", "pw", group="scientist")
    return dm, units, catalog_id


def _product() -> AnalysisProduct:
    product = AnalysisProduct("imaging", {"n_pixels": 8})
    product.add_image(render_pgm(np.eye(8)))
    product.log("unit test product")
    return product


class TestNameMapping:
    def test_register_and_resolve_file(self, dm):
        dm.io.names.register_file("item:1", "main", "raw/file.fits", size_bytes=10)
        names = dm.io.names.resolve_files("item:1")
        assert len(names) == 1
        assert names[0].name_type == "filename"
        assert names[0].path == "raw/file.fits"
        assert names[0].full.endswith("archive/raw/file.fits")

    def test_resolution_costs_two_indexed_lookups_in_one_statement(self, dm, monkeypatch):
        """The paper's §4.3 claim, "two extra queries on an indexed
        field", sent as one joined statement: an equality lookup in the
        ordered index on ``loc_files.item_id``, then a hash probe on
        ``loc_archives``' key per entry.  Neither table is scanned."""
        from repro.metadb.index import HashIndex
        from repro.metadb.storage import Table

        dm.io.names.register_file("item:1", "main", "raw/file.fits")
        database = dm.io.default_database
        statement = dm.io.names.files_statement("item:1")
        plan = database.explain_plan(statement)
        assert (plan["access"], plan["index_column"]) == ("range_scan", "item_id")
        probes, probe = [], HashIndex.probe
        monkeypatch.setattr(
            HashIndex, "probe",
            lambda index, key: probes.append((index.columns, key)) or probe(index, key))
        monkeypatch.setattr(
            Table, "rows", lambda table: pytest.fail(f"scanned {table.name}"))
        before = (database.stats.selects, dm.io.stats.round_trips)
        assert len(dm.io.names.resolve_files("item:1")) == 1
        assert (database.stats.selects, dm.io.stats.round_trips) == \
            (before[0] + 1, before[1] + 1)
        assert probes == [(("archive_id",), "main")]

    def test_entry_of_a_vanished_archive_is_an_error_not_a_gap(self, dm):
        dm.io.names.register_archive("tape", "/mnt/tape")
        dm.io.names.register_file("item:1", "main", "a.pgm", role="image")
        dm.io.names.register_file("item:1", "tape", "a.log", role="log")
        # The foreign key refuses this DELETE; lift it for the statement.
        files = dm.io.default_database.table("loc_files").schema
        kept, files.foreign_keys = files.foreign_keys, []
        dm.io.execute(Delete("loc_archives", Comparison("archive_id", "=", "tape")))
        files.foreign_keys = kept
        with pytest.raises(NameMappingError, match="unknown archive 'tape'"):
            dm.io.names.resolve_files("item:1")
        # Only an entry that is asked for can fail.
        assert len(dm.io.names.resolve_files("item:1", role="image")) == 1

    def test_relocate_archive_changes_constructed_names(self, dm):
        dm.io.names.register_file("item:1", "main", "raw/file.fits")
        affected = dm.io.names.relocate_archive("main", "/new/mount")
        assert affected == 1
        names = dm.io.names.resolve_files("item:1")
        assert names[0].full == "/new/mount/raw/file.fits"

    def test_relocate_unknown_archive_rejected(self, dm):
        with pytest.raises(NameMappingError):
            dm.io.names.relocate_archive("ghost", "/x")

    def test_tuple_and_url_names(self, dm):
        dm.io.names.register_tuple("tuple:hle:1", "item:1", "hle")
        dm.io.names.register_url("item:1", "https://hedc.example/d/1", transform="gunzip")
        tuples = dm.io.names.resolve_tuple("item:1")
        urls = dm.io.names.resolve_urls("item:1")
        assert tuples[0].path == "hle"
        assert urls[0].root.startswith("https://")

    def test_role_filtered_resolution(self, dm):
        dm.io.names.register_file("item:1", "main", "a.pgm", role="image")
        dm.io.names.register_file("item:1", "main", "a.log", role="log")
        assert len(dm.io.names.resolve_files("item:1", role="image")) == 1

    def test_move_file_rehomes_reference(self, dm, tmp_path):
        other = DiskArchive("other", tmp_path / "other")
        dm.io.storage.register(other)
        dm.io.names.register_archive("other", str(other.root))
        dm.io.names.register_file("item:1", "main", "raw/f.bin")
        dm.io.names.move_file("item:1", "raw/f.bin", "other")
        assert dm.io.names.resolve_files("item:1")[0].root == str(other.root)


class TestIoLayer:
    def test_sql_strings_rejected_at_dm_api(self, dm):
        """§5.4: the DM API has no provisions for regular SQL calls."""
        with pytest.raises(TypeError):
            dm.io.execute("SELECT * FROM hle")

    def test_collection_objects_translate_through_sql(self, dm):
        dm.io.execute(Insert("admin_config", {
            "config_id": 1, "section": "general", "key": "k", "value": "v",
        }))
        rows = dm.io.execute(Select("admin_config", where=Comparison("key", "=", "k")))
        assert rows[0]["value"] == "v"

    def test_stats_track_queries_and_edits(self, dm):
        dm.io.stats.reset()
        dm.io.execute(Select("hle"))
        dm.io.execute(Insert("admin_config", {
            "config_id": 7, "section": "s", "key": "k2",
        }))
        assert dm.io.stats.queries == 1
        assert dm.io.stats.edits == 1

    def test_store_and_read_payload(self, dm):
        item = dm.io.store_payload("products/x.bin", b"xyz")
        dm.io.names.register_file("item:x", item.archive_id, item.rel_path)
        payload = dm.io.read_item(dm.io.names.resolve_files("item:x")[0])
        assert payload == b"xyz"
        assert dm.io.stats.files_written == 1
        assert dm.io.stats.bytes_read == 3


def _config_row(config_id: int) -> dict:
    return {"config_id": config_id, "section": f"s{config_id % 3}",
            "key": f"k{config_id}", "value": f"v{config_id}"}


class TestStatementCache:
    """The §5.4 pipeline as prepared statements: one parse per shape."""

    def test_a_shape_is_parsed_on_first_sight_only(self, dm, monkeypatch):
        from repro.dm import io_layer

        parsed = []
        real_prepare = io_layer.parse_sql
        monkeypatch.setattr(io_layer, "parse_sql",
                            lambda text: parsed.append(text) or real_prepare(text))
        for config_id in range(1, 21):
            dm.io.execute(Insert("admin_config", _config_row(config_id)))
        for config_id in range(1, 21):
            rows = dm.io.execute(
                Select("admin_config", where=Comparison("config_id", "=", config_id)))
            assert rows[0]["value"] == f"v{config_id}"
        assert parsed == [
            "INSERT INTO admin_config (config_id, section, key, value) "
            "VALUES (?, ?, ?, ?)",
            "SELECT * FROM admin_config WHERE config_id = ?",
        ]
        for text in parsed:
            assert text in dm.io.statements

    def test_every_bind_is_checked(self, dm):
        select = Select("admin_config", where=Comparison("key", "=", "k"))
        dm.io.execute(select)
        for value in (1 + 2j, [1], float("nan")):
            with pytest.raises(QueryError):
                dm.io.execute(Select("admin_config", where=Comparison("key", "=", value)))
        assert dm.io.execute(select) == []

    def test_blobs_joins_and_transactions_execute_natively(self, dm, monkeypatch):
        from repro.dm import io_layer

        joined = dm.io.names.files_statement("item:1")
        with monkeypatch.context() as patched:
            patched.setattr(io_layer, "to_sql",
                            lambda *args: pytest.fail("rendered a join"))
            assert dm.io.execute(joined) == []
            assert dm.io.execute_batch([joined]) == [[]]
        before = dm.io.statements.stats.snapshot()
        tx = dm.io.begin()
        dm.io.execute(Insert("admin_config", _config_row(1)), tx=tx)
        dm.io.commit(tx)
        dm.io.execute(Update("admin_config", {"value": "w"},
                             Comparison("config_id", "=", 1)), tx=None)
        after = dm.io.statements.stats.snapshot()
        assert after["misses"] - before["misses"] == 1      # the UPDATE alone
        assert dm.io.execute(Select("admin_config"))[0]["value"] == "w"

    def test_ten_thousand_shapes_leave_the_cache_at_its_bound(self, dm):
        from repro.dm.io_layer import STATEMENT_CACHE_SHAPES

        for limit in range(10_000):
            dm.io.execute(Select("admin_config", limit=limit))
        assert len(dm.io.statements) == STATEMENT_CACHE_SHAPES
        stats = dm.io.statements.stats
        assert stats.entries == STATEMENT_CACHE_SHAPES
        assert stats.evictions >= 10_000 - STATEMENT_CACHE_SHAPES
        # Least recently used goes first: the latest shapes are resident.
        assert "SELECT * FROM admin_config LIMIT 9999" in dm.io.statements
        assert "SELECT * FROM admin_config LIMIT 0" not in dm.io.statements

    def test_cache_reports_like_every_other_cache(self, tmp_path):
        from repro.obs import Observability

        # A hub of its own: the report covers the caches of one deployment.
        dm = DataManager.standalone(tmp_path / "dm", obs=Observability())
        for _ in range(50):
            dm.io.execute(Select("admin_config", where=Comparison("key", "=", "k")))
        report = dm.obs.describe("caches")["caches"]["dm.statements"]
        assert report["misses"] >= 1 and report["hits"] >= 49
        assert report["entries"] == len(dm.io.statements)
        assert dm.telemetry_report()["caches"]["dm.statements"]["hits"] >= 49
        assert dm.obs.registry.value("cache.hits", cache="dm.statements") == report["hits"]

    def test_eight_threads_through_execute_batch_agree_with_one(self, dm):
        for config_id in range(1, 41):
            dm.io.execute(Insert("admin_config", _config_row(config_id)))

        def batch(offset: int) -> list[Select]:
            return [
                Select("admin_config", where=Comparison("config_id", "=", offset + 1)),
                Select("admin_config", where=In("config_id", [offset + 1, offset + 2]),
                       order_by=[("config_id", "asc")]),
                Select("admin_config", where=Between("config_id", offset, offset + 5)
                       & Comparison("section", "=", f"s{offset % 3}"),
                       order_by=[("config_id", "desc")], limit=3),
                Select("admin_config", columns=["key"], limit=offset % 7 + 1),
            ]

        offsets = list(range(30)) * 4
        expected = [dm.io.execute_batch(batch(offset)) for offset in offsets]
        dm.io.statements.clear()     # the threads race to fill it again
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                results[index] = [dm.io.execute_batch(batch(offset)) for offset in offsets]
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(results[index] == expected for index in range(8))

    def test_two_hundred_hle_pages_miss_at_most_a_dozen_times(self, dm, monkeypatch):
        """The page is a batch prepared once per visibility scope: two
        hundred pages in two scopes parse its seven statements at most
        once per scope and never look up the per-statement cache."""
        from repro.metadb import sql

        parsed, real_prepare = [], sql.prepare
        monkeypatch.setattr(sql, "prepare",
                            lambda text: parsed.append(text) or real_prepare(text))
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_ids = [
            dm.semantic.insert_hle(alice, {
                "start_time": 100.0 * index, "end_time": 100.0 * index + 50.0,
                "peak_rate": 10.0 + index, "public": index % 2 == 0,
                "title": f"event {index}",
            })
            for index in range(10)
        ]
        dm.io.names.register_file(f"hle:{hle_ids[0]}", "main", "hle/preview.pgm")
        stats = dm.io.statements.stats
        misses, hits = stats.misses, stats.hits
        for index in range(200):
            user = alice if index % 3 else None
            hle_id = hle_ids[index % 10] if user else hle_ids[index % 5 * 2]
            assert dm.fetch_page(user, hle_id).hle["hle_id"] == hle_id
        assert len(parsed) <= 2 * 7
        assert (stats.misses - misses, stats.hits - hits) == (0, 0)


class TestSemanticLayer:
    def test_insert_hle_registers_tuple_reference(self, dm):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 10.0})
        refs = dm.io.names.resolve_tuple(f"hle:{hle_id}")
        assert refs and refs[0].path == "hle"

    def test_upload_right_required(self, dm):
        guest = dm.users.create_user("guest", "pw", group="guest")
        with pytest.raises(AuthError):
            dm.semantic.insert_hle(guest, {"start_time": 0.0, "end_time": 1.0})

    def test_import_analysis_files_and_counter(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        alice = dm.users.find("alice")
        hle = dm.semantic.find_hles(alice)[0]
        ana_id = dm.semantic.import_analysis(alice, hle["hle_id"], _product(), {})
        stored = dm.io.names.resolve_files(f"ana:{ana_id}")
        roles = sorted(name.role for name in stored)
        assert roles == ["image", "log", "params"]
        updated = dm.semantic.get_hle(alice, hle["hle_id"])
        assert updated["n_analyses"] == hle["n_analyses"] + 1

    def test_private_analysis_hidden_until_published(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        alice = dm.users.find("alice")
        bob = dm.users.create_user("bob", "pw", group="user")
        hle = dm.semantic.find_hles(alice)[0]
        ana_id = dm.semantic.import_analysis(alice, hle["hle_id"], _product(), {})
        with pytest.raises(EntityNotFound):
            dm.semantic.get_analysis(bob, ana_id)
        dm.semantic.publish_analysis(alice, ana_id)
        assert dm.semantic.get_analysis(bob, ana_id)["ana_id"] == ana_id

    def test_only_owner_may_publish(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        alice = dm.users.find("alice")
        mallory = dm.users.create_user("mallory", "pw", group="scientist")
        hle = dm.semantic.find_hles(alice)[0]
        ana_id = dm.semantic.import_analysis(alice, hle["hle_id"], _product(), {})
        with pytest.raises(EntityNotFound):
            # mallory cannot even see it, let alone publish it
            dm.semantic.publish_analysis(mallory, ana_id)

    def test_delete_hle_blocked_by_analyses(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        alice = dm.users.find("alice")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        dm.semantic.import_analysis(alice, hle_id, _product(), {})
        with pytest.raises(ConstraintViolation):
            dm.semantic.delete_hle(alice, hle_id)

    def test_delete_analysis_then_hle(self, dm):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        ana_id = dm.semantic.import_analysis(alice, hle_id, _product(), {})
        dm.semantic.delete_analysis(alice, ana_id)
        assert dm.semantic.get_hle(alice, hle_id)["n_analyses"] == 0
        dm.semantic.delete_hle(alice, hle_id)
        with pytest.raises(EntityNotFound):
            dm.semantic.get_hle(alice, hle_id)

    def test_redundant_work_detection(self, dm):
        """§3.5: HEDC checks whether an analysis was already done."""
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        assert dm.semantic.find_existing_analysis(alice, hle_id, "imaging") is None
        dm.semantic.import_analysis(alice, hle_id, _product(), {})
        existing = dm.semantic.find_existing_analysis(alice, hle_id, "imaging")
        assert existing is not None

    def test_catalog_membership(self, dm):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        hle_id = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0,
                                                "public": True})
        catalog_id = dm.semantic.create_catalog(alice, "mine", public=True)
        dm.semantic.add_to_catalog(alice, catalog_id, hle_id)
        members = dm.semantic.catalog_hles(None, catalog_id)
        assert [m["hle_id"] for m in members] == [hle_id]
        assert dm.semantic.get_catalog(None, catalog_id)["n_members"] == 1

    def test_private_catalog_members_hidden_from_others(self, dm):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        bob = dm.users.create_user("bob", "pw", group="user")
        private_hle = dm.semantic.insert_hle(alice, {"start_time": 0.0, "end_time": 1.0})
        catalog_id = dm.semantic.create_catalog(alice, "shared", public=True)
        dm.semantic.add_to_catalog(alice, catalog_id, private_hle)
        assert dm.semantic.catalog_hles(bob, catalog_id) == []
        assert len(dm.semantic.catalog_hles(alice, catalog_id)) == 1


    def test_catalog_members_come_in_one_query_in_member_order(self, dm, monkeypatch):
        alice = dm.users.create_user("alice", "pw", group="scientist")
        bob = dm.users.create_user("bob", "pw", group="user")
        hle_ids = [
            dm.semantic.insert_hle(alice, {
                "start_time": float(index), "end_time": index + 1.0,
                "public": index % 4 != 0, "title": f"event {index}",
            })
            for index in range(24)
        ]
        small = dm.semantic.create_catalog(alice, "small", public=True)
        large = dm.semantic.create_catalog(alice, "large", public=True)
        filed = [hle_ids[index] for index in (5, 3, 4, 1)]       # not id order
        for hle_id in filed:
            dm.semantic.add_to_catalog(alice, small, hle_id)
        for hle_id in reversed(hle_ids):
            dm.semantic.add_to_catalog(alice, large, hle_id)

        assert [row["hle_id"] for row in dm.semantic.catalog_hles(alice, small)] == filed
        private = hle_ids[4]
        assert [row["hle_id"] for row in dm.semantic.catalog_hles(bob, small)] == \
            [hle_id for hle_id in filed if hle_id != private]
        counts = []
        for catalog_id in (small, large):
            dm.io.stats.reset()
            rows = dm.semantic.catalog_hles(bob, catalog_id)
            counts.append(dm.io.stats.queries)
            assert all(row["public"] for row in rows)
        assert len(rows) == 18
        assert counts == [3, 3]     # gate, members, events: whatever the size

        def per_member(semantic, user, catalog_id):
            """The path this replaced: one get_hle round trip per member."""
            catalog = semantic.get_catalog(user, catalog_id)
            hles = []
            for member in semantic.io.execute(Select(
                    "catalog_members", where=Comparison("catalog_id", "=", catalog_id))):
                try:
                    hles.append(semantic.get_hle(user, member["hle_id"]))
                except EntityNotFound:
                    continue
            return catalog, hles

        from repro.web import HttpRequest, WebServer

        server = WebServer(dm)
        pages = [server.handle(HttpRequest.get(f"/hedc/catalog?id={catalog_id}"))
                 for catalog_id in (small, large)]
        monkeypatch.setattr(type(dm.semantic), "catalog_page", per_member)
        for catalog_id, page in zip((small, large), pages):
            reference = server.handle(HttpRequest.get(f"/hedc/catalog?id={catalog_id}"))
            assert page.status == reference.status == 200
            assert page.body == reference.body
            assert page.text.count("/hedc/hle?id=") == (3 if catalog_id == small else 18)
        monkeypatch.undo()

        empty = dm.semantic.create_catalog(alice, "empty", public=True)
        assert dm.semantic.catalog_hles(bob, empty) == []
        hidden = dm.semantic.create_catalog(alice, "hidden", public=False)
        dm.semantic.add_to_catalog(alice, hidden, hle_ids[0])
        ran = dm.io.default_database.stats.selects
        with pytest.raises(EntityNotFound):
            dm.semantic.catalog_hles(bob, hidden)
        # The member list is bound to the gate: a hidden catalogue's is not read.
        assert dm.io.default_database.stats.selects == ran + 1


class TestProcessLayer:
    def test_load_creates_unit_hles_views(self, loaded_dm):
        dm, units, catalog_id = loaded_dm
        rows = dm.io.execute(Select("raw_units"))
        assert len(rows) == len(units)
        hles = dm.semantic.find_hles(None)
        assert hles  # the flare was found
        views = dm.io.execute(Select("views"))
        assert len(views) == len(units)
        assert views[0]["encoded_bytes"] > 0

    def test_loaded_photons_round_trip(self, loaded_dm):
        dm, units, _catalog = loaded_dm
        photons = dm.process.load_photons(units[0].unit_id)
        assert len(photons) == units[0].n_photons

    def test_view_query_matches_binned_counts(self, loaded_dm):
        dm, units, _catalog = loaded_dm
        photons = dm.process.load_photons(units[0].unit_id)
        view = dm.process.get_view(units[0].unit_id)
        points, values, _bytes = view.query(view.domain_start, view.domain_end)
        assert values.sum() == pytest.approx(len(photons), rel=0.02)

    def test_units_covering_window(self, loaded_dm):
        dm, units, _catalog = loaded_dm
        hits = dm.process.units_covering(units[0].start, units[0].end)
        assert units[0].unit_id in {row["unit_id"] for row in hits}

    def test_archive_relocation_workflow(self, loaded_dm, tmp_path):
        dm, units, _catalog = loaded_dm
        cold = DiskArchive("cold", tmp_path / "cold")
        dm.io.storage.register(cold)
        dm.io.names.register_archive("cold", str(cold.root))
        moved = dm.process.relocate_archive("main", "cold")
        assert moved > 0
        # Data still reachable through name mapping after relocation.
        photons = dm.process.load_photons(units[0].unit_id)
        assert len(photons) == units[0].n_photons
        lineage = dm.io.execute(Select("ops_lineage"))
        assert any(row["kind"] == "migration" for row in lineage)

    def test_recalibration_creates_versioned_unit(self, loaded_dm):
        dm, units, _catalog = loaded_dm
        version = dm.process.publish_calibration((1.05,) * 9, (0.2,) * 9, note="test")
        assert version == 2
        new_unit_id = dm.process.recalibrate_unit(units[0].unit_id, "main")
        assert new_unit_id != units[0].unit_id
        old_row = dm.io.execute(
            Select("raw_units", where=Comparison("unit_id", "=", units[0].unit_id))
        )[0]
        assert old_row["superseded_by"] == new_unit_id
        new_row = dm.io.execute(
            Select("raw_units", where=Comparison("unit_id", "=", new_unit_id))
        )[0]
        assert new_row["calibration_version"] == 2
        lineage = dm.io.execute(Select("ops_lineage"))
        assert any(row["kind"] == "recalibration" for row in lineage)

    def test_recalibrate_current_version_is_noop(self, loaded_dm):
        dm, units, _catalog = loaded_dm
        assert dm.process.recalibrate_unit(units[0].unit_id, "main") == units[0].unit_id

    def test_generate_catalog_from_predicate(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        catalog_id = dm.process.generate_catalog(
            "bright", Comparison("peak_rate", ">", 0.0), public=True
        )
        members = dm.semantic.catalog_hles(None, catalog_id)
        assert len(members) == len(dm.semantic.find_hles(None))

    def test_missing_view_raises(self, dm):
        with pytest.raises(WorkflowError):
            dm.process.get_view("ghost-unit")

    def test_sync_archive_status(self, loaded_dm):
        dm, _units, _catalog = loaded_dm
        dm.process.sync_archive_status()
        rows = dm.io.execute(Select("ops_archives"))
        assert {row["archive_id"] for row in rows} >= {"main"}
        main = next(row for row in rows if row["archive_id"] == "main")
        assert main["bytes_stored"] > 0


@pytest.fixture()
def three_units(tmp_path):
    """A DM (on a hub of its own: its counters start at zero) with three
    loaded raw units of a few thousand photons each."""
    dm = DataManager.standalone(tmp_path / "dm", obs=Observability(name="unpacked"))
    plan = standard_day_plan(duration=60.0, seed=23, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=23).generate()
    units = package_units(photons, tmp_path / "incoming",
                          unit_target_photons=len(photons) // 3 + 1)
    assert len(units) == 3
    for unit in units:
        dm.process.load_raw_unit(unit, "main", build_views=False)
    return dm, units


@pytest.fixture()
def counted(monkeypatch):
    """Counts of ``gzip.decompress`` and ``repro.dm.process.read_fits`` calls."""
    calls = {"gzip": 0, "read_fits": []}
    inflate = gzip.decompress

    def counting_inflate(data):
        calls["gzip"] += 1
        return inflate(data)

    def counting_read(path):
        calls["read_fits"].append(str(path))
        return read_fits_file(path)

    monkeypatch.setattr(gzip, "decompress", counting_inflate)
    monkeypatch.setattr("repro.dm.process.read_fits", counting_read)
    return calls


def _direct(unit) -> PhotonList:
    """The unit's photons read from the file it was packaged into."""
    return PhotonList.from_fits(read_fits_file(unit.path))


def _same_photons(left: PhotonList, right: PhotonList) -> bool:
    return (left.times.tobytes() == right.times.tobytes()
            and left.energies.tobytes() == right.energies.tobytes()
            and left.detectors.tobytes() == right.detectors.tobytes())


def _copies(dm) -> dict[str, int]:
    """Files under the scratch disk's unpacked area: relative name -> size."""
    root = dm.io.storage.scratch_path("unpacked")
    return {str(path.relative_to(root)): path.stat().st_size
            for path in root.rglob("*") if path.is_file()}


def _unpacked(dm) -> dict:
    return dm.describe()["unpacked"]


class TestUnpackedUnits:
    """``load_photons`` inflates a unit once onto the scratch disk and
    parses the unpacked file from then on, re-checking source and copy
    on every access."""

    def test_unpacked_read_equals_direct_read(self, three_units):
        dm, units = three_units
        for unit in units:
            expected = _direct(unit)
            assert _same_photons(dm.process.load_photons(unit.unit_id), expected)  # cold
            assert _same_photons(dm.process.load_photons(unit.unit_id), expected)  # warm
        assert set(_copies(dm)) == {f"main/raw/{unit.unit_id}.fits" for unit in units}

    def test_second_read_inflates_nothing_and_still_reads_a_file(self, three_units, counted):
        dm, units = three_units
        dm.process.load_photons(units[0].unit_id)
        assert counted["gzip"] == 1
        dm.process.load_photons(units[0].unit_id)
        dm.process.load_photons(units[0].unit_id)
        assert counted["gzip"] == 1
        assert len(counted["read_fits"]) == 3
        assert all(path.endswith(f"unpacked/main/raw/{units[0].unit_id}.fits")
                   for path in counted["read_fits"])
        assert _unpacked(dm) == {
            "hits": 2, "inflations": 1, "evictions": 0, "fallbacks": 0,
            "bytes": sum(_copies(dm).values()),
        }
        assert dm.obs.registry.value("dm.process.unpacked.bytes") == _unpacked(dm)["bytes"]

    def test_name_resolution_stays_one_counted_lookup(self, three_units):
        dm, units = three_units
        dm.process.load_photons(units[0].unit_id)
        lookups = dm.obs.registry.family_total("dm.name_mapping.lookups")
        dm.process.load_photons(units[0].unit_id)
        assert dm.obs.registry.family_total("dm.name_mapping.lookups") == lookups + 1

    def test_offline_source_is_refused_although_a_copy_exists(self, three_units):
        dm, units = three_units
        dm.process.load_photons(units[0].unit_id)
        dm.io.storage.archive("main").online = False
        with pytest.raises(ArchiveOffline):
            dm.process.load_photons(units[0].unit_id)
        dm.io.storage.archive("main").online = True
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert _unpacked(dm)["inflations"] == 1     # the copy survived the outage

    def test_relocation_leaves_no_stale_copy(self, three_units, tmp_path):
        dm, units = three_units
        for unit in units:
            dm.process.load_photons(unit.unit_id)
        cold = DiskArchive("cold", tmp_path / "cold")
        dm.io.storage.register(cold)
        dm.io.names.register_archive("cold", str(cold.root))
        dm.process.relocate_archive("main", "cold")
        assert _copies(dm) == {}
        assert _unpacked(dm)["bytes"] == 0
        assert _same_photons(dm.process.load_photons(units[1].unit_id), _direct(units[1]))
        assert set(_copies(dm)) == {f"cold/raw/{units[1].unit_id}.fits"}

    def test_recalibration_reads_the_new_unit_not_the_old_copy(self, three_units):
        dm, units = three_units
        before = dm.process.load_photons(units[0].unit_id)
        dm.process.publish_calibration((1.05,) * 9, (0.2,) * 9, note="test")
        new_unit_id = dm.process.recalibrate_unit(units[0].unit_id, "main")
        after = dm.process.load_photons(new_unit_id)
        assert after.times.tobytes() == before.times.tobytes()
        assert not np.array_equal(after.energies, before.energies)
        assert _same_photons(dm.process.load_photons(new_unit_id), after)
        assert _same_photons(dm.process.load_photons(units[0].unit_id), before)

    def test_removed_source_drops_the_copy_and_a_new_file_is_read_afresh(self, three_units):
        dm, units = three_units
        rel_path = f"raw/{units[0].unit_id}.fits.gz"
        dm.process.load_photons(units[0].unit_id)
        dm.io.storage.archive("main").remove(rel_path)
        with pytest.raises(ArchiveError, match="not found"):
            dm.process.load_photons(units[0].unit_id)
        assert _copies(dm) == {}
        # Another file under the old name: its photons, not the old copy's.
        dm.io.storage.place(rel_path, units[1].path.read_bytes(), prefer="main")
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[1]))

    def test_replaced_source_is_noticed_by_size_and_mtime(self, three_units):
        dm, units = three_units
        dm.process.load_photons(units[0].unit_id)
        source = dm.io.storage.archive("main").local_path(f"raw/{units[0].unit_id}.fits.gz")
        replacement = units[2].path.read_bytes()
        source.write_bytes(replacement)
        dm.io.storage.record_checksum(
            "main", f"raw/{units[0].unit_id}.fits.gz", checksum_bytes(replacement))
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[2]))
        assert _unpacked(dm)["inflations"] == 2

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_copy_is_replaced_not_read(self, three_units, damage):
        dm, units = three_units
        expected = _direct(units[0])
        dm.process.load_photons(units[0].unit_id)
        copy = dm.io.storage.scratch_path("unpacked") / f"main/raw/{units[0].unit_id}.fits"
        intact = copy.read_bytes()
        if damage == "flip":
            # A data byte: the file still parses, only the CRC can tell.
            damaged = bytearray(intact)
            damaged[-2880 - 5] ^= 0x10
            copy.write_bytes(bytes(damaged))
            assert not _same_photons(PhotonList.from_fits(read_fits_file(copy)), expected)
        else:
            copy.write_bytes(intact[:len(intact) // 2])
        assert _same_photons(dm.process.load_photons(units[0].unit_id), expected)
        assert copy.read_bytes() == intact
        assert _unpacked(dm)["inflations"] == 2

    def test_copy_that_does_not_parse_is_discarded_and_unpacked_again(
            self, three_units, monkeypatch):
        dm, units = three_units
        seen = []

        def failing_once(path):
            seen.append(str(path))
            if len(seen) == 1:
                raise FitsError("unreadable copy")
            return read_fits_file(path)

        monkeypatch.setattr("repro.dm.process.read_fits", failing_once)
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert len(seen) == 2 and "unpacked" in seen[1]
        assert _unpacked(dm)["inflations"] == 2

    def test_unreadable_source_is_a_workflow_error(self, three_units, monkeypatch):
        dm, units = three_units

        def unreadable(path):
            raise FitsError("no END card")

        monkeypatch.setattr("repro.dm.process.read_fits", unreadable)
        with pytest.raises(WorkflowError, match="not readable"):
            dm.process.load_photons(units[0].unit_id)

    def test_leftover_temporary_file_is_replaced(self, three_units):
        dm, units = three_units
        part = (dm.io.storage.scratch_path("unpacked")
                / f"main/raw/{units[0].unit_id}.fits.part")
        part.parent.mkdir(parents=True)
        part.write_bytes(b"torn")
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert set(_copies(dm)) == {f"main/raw/{units[0].unit_id}.fits"}
        assert _unpacked(dm)["inflations"] == 1

    def test_torn_write_never_gets_the_real_name(self, three_units, monkeypatch):
        dm, units = three_units
        scratch = dm.io.storage._scratch
        store = scratch.store

        def torn(rel_path, payload):
            target = scratch.root / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(payload[:len(payload) // 2])
            raise OSError("disk pulled")

        monkeypatch.setattr(scratch, "store", torn)
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert _copies(dm) == {}
        assert _unpacked(dm)["fallbacks"] == 1
        monkeypatch.setattr(scratch, "store", store)
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert set(_copies(dm)) == {f"main/raw/{units[0].unit_id}.fits"}

    def test_budget_of_one_unit_is_never_exceeded(self, three_units, monkeypatch):
        dm, units = three_units
        sizes = [len(read_fits_file(unit.path).to_bytes()) for unit in units]
        budget = max(sizes)
        monkeypatch.setattr(ProcessLayer, "unpacked_budget_bytes", budget)
        for _round in range(2):
            for unit in units:
                assert _same_photons(dm.process.load_photons(unit.unit_id), _direct(unit))
                assert sum(_copies(dm).values()) <= budget
                assert dm.io.storage.unpacked_bytes == sum(_copies(dm).values())
        assert _unpacked(dm)["inflations"] == 6
        assert _unpacked(dm)["evictions"] == 5

    def test_least_recently_used_copy_goes_first(self, three_units, monkeypatch):
        dm, units = three_units
        sizes = [len(read_fits_file(unit.path).to_bytes()) for unit in units]
        monkeypatch.setattr(ProcessLayer, "unpacked_budget_bytes", sum(sizes) - 1)
        dm.process.load_photons(units[0].unit_id)
        dm.process.load_photons(units[1].unit_id)
        dm.process.load_photons(units[0].unit_id)       # 1 is now the older
        dm.process.load_photons(units[2].unit_id)
        assert set(_copies(dm)) == {f"main/raw/{units[index].unit_id}.fits"
                                    for index in (0, 2)}

    def test_unit_larger_than_the_budget_is_read_directly(self, three_units, monkeypatch, counted):
        dm, units = three_units
        monkeypatch.setattr(ProcessLayer, "unpacked_budget_bytes", 1000)
        assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert _copies(dm) == {}
        assert counted["read_fits"][-1].endswith(".fits.gz")

    @pytest.mark.parametrize("trouble", ["offline", "full"])
    def test_scratch_trouble_means_a_direct_read(self, three_units, trouble, counted):
        dm, units = three_units
        scratch = dm.io.storage._scratch
        if trouble == "offline":
            scratch.online = False
        else:
            scratch.capacity_bytes = 10
        for _ in range(2):
            assert _same_photons(dm.process.load_photons(units[0].unit_id), _direct(units[0]))
        assert all(path.endswith(".fits.gz") for path in counted["read_fits"])
        assert _unpacked(dm)["fallbacks"] == 2
        assert _unpacked(dm)["bytes"] == 0
        scratch.online, scratch.capacity_bytes = True, None
        assert _copies(dm) == {}

    def test_eight_threads_inflate_one_cold_unit_once(self, three_units, counted):
        dm, units = three_units
        expected = _direct(units[0])
        gzip_before = counted["gzip"]
        barrier = threading.Barrier(8)
        results, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10)
                results.append(dm.process.load_photons(units[0].unit_id))
            except Exception as exc:       # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counted["gzip"] - gzip_before == 1
        assert len(results) == 8 and all(_same_photons(got, expected) for got in results)
        assert _unpacked(dm)["inflations"] == 1 and _unpacked(dm)["hits"] == 7

    def test_copy_found_at_start_up_is_purged_not_trusted(self, tmp_path):
        plan = standard_day_plan(duration=30.0, seed=29, n_flares=1, n_bursts=0, n_saa=0)
        photons = TelemetryGenerator(plan, seed=29).generate()
        first, second = package_units(photons, tmp_path / "incoming",
                                      unit_target_photons=len(photons) // 2 + 1)
        # An earlier process left a well-formed copy of *another* unit under
        # this unit's name, and a torn temporary.
        stale = tmp_path / "dm" / "scratch" / "unpacked" / "main" / "raw"
        stale.mkdir(parents=True)
        (stale / f"{first.unit_id}.fits").write_bytes(read_fits_file(second.path).to_bytes())
        (stale / f"{first.unit_id}.fits.part").write_bytes(b"torn")
        dm = DataManager.standalone(tmp_path / "dm", obs=Observability(name="start-up"))
        assert _copies(dm) == {}
        dm.process.load_raw_unit(first, "main", build_views=False)
        assert _same_photons(dm.process.load_photons(first.unit_id), _direct(first))
        assert _unpacked(dm) == {"hits": 0, "inflations": 1, "evictions": 0,
                                 "fallbacks": 0, "bytes": sum(_copies(dm).values())}


class TestSessions:
    def test_three_kinds_per_user(self, dm):
        alice = dm.users.create_user("alice", "pw")
        cache = dm.sessions
        for kind in ("hle", "ana", "catalog"):
            session = cache.get_or_create(alice, kind, "10.0.0.1")
            assert session.kind == kind
        assert cache.size == 3

    def test_lookup_requires_matching_ip_and_cookie(self, dm):
        alice = dm.users.create_user("alice", "pw")
        session = dm.sessions.create(alice, "hle", "10.0.0.1")
        assert dm.sessions.lookup(alice, "hle", "10.0.0.1", session.cookie) is session
        assert dm.sessions.lookup(alice, "hle", "10.9.9.9", session.cookie) is None
        assert dm.sessions.lookup(alice, "hle", "10.0.0.1", "bad-cookie") is None

    def test_get_or_create_reuses(self, dm):
        alice = dm.users.create_user("alice", "pw")
        first = dm.sessions.get_or_create(alice, "hle", "10.0.0.1")
        second = dm.sessions.get_or_create(alice, "hle", "10.0.0.1", cookie=first.cookie)
        assert first is second
        assert dm.sessions.hits == 1

    def test_view_caching_in_session(self, dm):
        alice = dm.users.create_user("alice", "pw")
        session = dm.sessions.create(alice, "hle", "10.0.0.1")
        session.cache_view("recent", [{"hle_id": 1}])
        assert session.cached_view("recent") == [{"hle_id": 1}]
        assert session.cached_view("other") is None

    def test_invalidate_user_drops_cookie_lookup(self, dm):
        alice = dm.users.create_user("alice", "pw")
        session = dm.sessions.create(alice, "hle", "10.0.0.1")
        assert dm.sessions.by_cookie(session.cookie) is session
        dm.sessions.invalidate_user(alice.user_id)
        assert dm.sessions.by_cookie(session.cookie) is None

    def test_ttl_expiry(self):
        cache = SessionCache(ttl_s=0.0)
        from repro.security import User

        user = User(1, "u", "user", frozenset({"browse"}))
        session = cache.create(user, "hle", "ip")
        import time

        time.sleep(0.01)
        assert cache.lookup(user, "hle", "ip", session.cookie) is None

    def test_unknown_kind_rejected(self, dm):
        alice = dm.users.create_user("alice", "pw")
        with pytest.raises(ValueError):
            dm.sessions.create(alice, "weird", "ip")


class TestTwoNodesDrawIds:
    """Two DM nodes on one database (§7.3): the second registers its row
    between the first drawing an id and inserting with it, and neither
    insert collides."""

    GOOD_SOURCE = "function twice, x\n  return, 2 * x\nend\n"

    @staticmethod
    def _nodes(tmp_path):
        dm0 = DataManager.standalone(tmp_path / "n0")
        dm1 = DataManager(dm0.io.default_database, dm0.io.storage,
                          node_name="dm1", install_schema=False)
        return dm0, dm1

    @staticmethod
    def _before_insert_into(dm, table, interleave):
        """Run ``interleave`` once, just before ``dm`` inserts into ``table``."""
        execute = dm.io.execute

        def hooked(statement, tx=None):
            if isinstance(statement, Insert) and statement.table == table:
                dm.io.execute = execute
                interleave()
            return execute(statement, tx=tx)

        dm.io.execute = hooked

    def _config_ids(self, dm, section):
        rows = dm.io.execute(Select("admin_config",
                                    where=Comparison("section", "=", section)))
        return sorted(row["config_id"] for row in rows)

    def test_predefined_queries(self, tmp_path):
        dm0, dm1 = self._nodes(tmp_path)
        sql = "SELECT * FROM hle"
        self._before_insert_into(
            dm0, "admin_config", lambda: dm1.queries.register("b", sql))
        dm0.queries.register("a", sql)
        assert dm0.queries.names() == ["a", "b"]
        assert len(set(self._config_ids(dm0, "query"))) == 2

    def test_purge_rules(self, tmp_path):
        from repro.dm.maintenance import PurgeRule

        dm0, dm1 = self._nodes(tmp_path)
        self._before_insert_into(
            dm0, "admin_config",
            lambda: dm1.maintenance.add_purge_rule(PurgeRule("b", max_age_s=1.0)))
        dm0.maintenance.add_purge_rule(PurgeRule("a", max_age_s=1.0))
        assert sorted(rule.name for rule in dm0.maintenance.purge_rules()) == ["a", "b"]

    def test_routines(self, tmp_path):
        from repro.pl import RoutineLibrary

        dm0, dm1 = self._nodes(tmp_path)
        author = dm0.users.create_user("author", "pw", group="scientist")
        self._before_insert_into(
            dm0, "admin_config",
            lambda: RoutineLibrary(dm1).submit(author, "other", self.GOOD_SOURCE
                                               .replace("twice", "other")))
        RoutineLibrary(dm0).submit(author, "twice", self.GOOD_SOURCE)
        assert len(set(self._config_ids(dm0, "routine"))) == 2

    def test_lineage(self, tmp_path):
        dm0, dm1 = self._nodes(tmp_path)
        self._before_insert_into(
            dm0, "ops_lineage",
            lambda: dm1.process._record_lineage("migration", "a:y", "b:y"))
        dm0.process._record_lineage("migration", "a:x", "b:x")
        rows = dm0.io.execute(Select("ops_lineage"))
        assert sorted(row["source_ref"] for row in rows) == ["a:x", "a:y"]
