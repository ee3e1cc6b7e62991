"""A sharded directory across the change that put placement on the schema.

Two reopen stories.  A directory written *before* the change (the
compiled-in table named five domain tables and broadcast the rest, so
every shard holds every ``loc_*`` and ``ops_*`` row, the stored schemas
say nothing about placement and ``topology.json`` has no placement
version) is upgraded the next time its schema set is presented: each
per-item row ends up held once, beside its owner, every name resolves as
before, a second open finds nothing to do and a crash half way is redone.
A directory written *by* this commit reopens bare, through
``ShardedDatabase(path=...)`` with no schema handed over, and routes
from what it persisted.
"""

import json
from pathlib import Path

import pytest

from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import (
    BROADCAST,
    Aggregate,
    Comparison,
    In,
    Insert,
    Select,
)
from repro.obs import Observability
from repro.resil import FaultInjector, use_injector
from repro.schema import GENERIC_SCHEMAS, RHESSI_SCHEMAS
from repro.shard import ShardedDatabase

DAY = 86_400.0
BOUNDS = (DAY, 2 * DAY, 3 * DAY)
LOC_TABLES = ("loc_files", "loc_tuples", "loc_urls")
N_EVENTS = 24


def _open(root: Path, obs=None) -> ShardedDatabase:
    return ShardedDatabase(boundaries=BOUNDS, path=root / "db", name="up",
                           replicas_per_shard=2, obs=obs)


def _data_manager(database, root: Path) -> DataManager:
    storage = StorageManager(scratch_dir=root / "scratch")
    storage.register(DiskArchive("main", root / "archive"))
    dm = DataManager(database, storage)
    dm.io.names.ensure_archive("main", str(root / "archive"))
    return dm


def _populate(dm: DataManager) -> dict:
    """Events on every shard, analyses with files, a URL, a catalogue
    (whose item nobody owns) and two log rows; returns what to ask for."""
    user = dm.users.create_user("alice", "pw", group="scientist")
    names = dm.io.names
    hle_ids = [
        dm.semantic.insert_hle(user, {
            "public": True, "kind": "flare", "title": f"event {index}",
            "start_time": index * 4 * DAY / N_EVENTS + 60.0,
            "end_time": index * 4 * DAY / N_EVENTS + 120.0,
        })
        for index in range(N_EVENTS)
    ]
    for ana_id, hle_id in enumerate(hle_ids[::3], start=1):
        dm.io.execute(Insert("ana", {
            "ana_id": ana_id, "item_id": f"ana:{ana_id}", "hle_id": hle_id,
            "owner_id": user.user_id, "algorithm": "histogram"}))
        for part in ("image_00.pgm", "params.json"):
            names.register_file(f"ana:{ana_id}", "main", f"ana/{ana_id}/{part}")
    names.register_url(f"hle:{hle_ids[5]}", "http://example.org/five")
    catalog_id = dm.semantic.create_catalog(user, "survey", public=True)
    names.register_tuple(f"tuple:cat:{catalog_id}", f"cat:{catalog_id}", "catalogs")
    dm.io.log("test", "first")
    dm.io.log("test", "second")
    return {"user": user, "hle_ids": hle_ids,
            "items": [f"hle:{hle_id}" for hle_id in hle_ids]
            + [f"ana:{n}" for n in range(1, len(hle_ids[::3]) + 1)]
            + [f"cat:{catalog_id}", "hle:none"]}


def _answers(dm: DataManager, seeded: dict) -> dict:
    """What a user sees: every name construction, the log, one page."""
    names = dm.io.names
    page = dm.fetch_page(seeded["user"], seeded["hle_ids"][3])
    return {
        "files": {item: names.resolve_files(item) for item in seeded["items"]},
        "tuples": {item: names.resolve_tuple(item) for item in seeded["items"]},
        "urls": {item: names.resolve_urls(item) for item in seeded["items"]},
        "log": dm.io.execute(Select("ops_log", order_by=[("log_id", "asc")])),
        "page": (page.hle, page.analyses, page.n_analyses, page.files),
        "counts": {
            table: dm.io.execute(Select(
                table, aggregates=[Aggregate("count", "*", "n")]))[0]["n"]
            for table in LOC_TABLES + ("ops_log", "hle", "ana")},
    }


def _rows_held(database: ShardedDatabase, table: str) -> list[int]:
    return [len(database.shard_db(spec.shard_id).table(table))
            for spec in database.shard_map]


def _legacy_directory(root: Path) -> tuple[dict, dict]:
    """A populated 4 x 2 directory as the parent commit wrote it.

    The parent's compiled-in ``HEDC_SHARD_CONFIG`` placed ``hle`` and
    ``raw_units`` by ``start_time`` and ``ana``, ``catalog_members`` and
    ``views`` with their parents, exactly as those schemas declare now,
    and broadcast every table it did not name.  So: create the
    ``follows_item`` and ``local`` tables broadcast and the rest as
    declared, populate through the DM, checkpoint, and then take out of
    the files what the parent never wrote: the ``placement`` and
    ``item_key`` entries of every stored schema (and the ``views`` index
    this commit added), and the topology's placement version.
    """
    database = _open(root)
    for factory in GENERIC_SCHEMAS + RHESSI_SCHEMAS:
        schema = factory()
        if schema.placement.kind in ("follows_item", "local"):
            schema.placement = BROADCAST
        database.create_table(schema)
    dm = _data_manager(database, root)
    seeded = _populate(dm)
    answers = _answers(dm, seeded)
    for table in LOC_TABLES + ("ops_log",):
        held = _rows_held(database, table)
        assert held == [answers["counts"][table]] * 4      # on every shard
    database.checkpoint()
    database.close()
    for snapshot in (root / "db").rglob("snapshot.json"):
        payload = json.loads(snapshot.read_text())
        for table in payload["tables"].values():
            table["schema"].pop("placement", None)
            table["schema"].pop("item_key", None)
            if table["schema"]["name"] == "views":
                table["schema"]["indexes"] = [["unit_id"]]
        snapshot.write_text(json.dumps(payload))
    topology = root / "db" / "topology.json"
    payload = json.loads(topology.read_text())
    del payload["placement_version"]
    topology.write_text(json.dumps(payload))
    return seeded, answers


def _assert_upgraded(database: ShardedDatabase, answers: dict) -> None:
    for table in LOC_TABLES + ("ops_log",):
        assert sum(_rows_held(database, table)) == answers["counts"][table], table
    # Nobody's rows and the log are on the first shard, the rest spread out.
    assert _rows_held(database, "ops_log") == [2, 0, 0, 0]
    assert all(_rows_held(database, "loc_tuples"))
    for table, key in (("loc_tuples", "tuple_ref"), ("loc_files", "file_id")):
        for row in database.execute(Select(table)):
            held = [spec.shard_id for spec in database.shard_map
                    if database.shard_db(spec.shard_id).holds(table, key, row[key])]
            owner_table = row["item_id"].split(":")[0]
            owners = [spec.shard_id for spec in database.shard_map
                      if owner_table in ("hle", "ana")
                      and database.shard_db(spec.shard_id).holds(
                          owner_table, "item_id", row["item_id"])]
            assert held == (owners or [0]), row
    for spec in database.shard_map:
        group = database.shard_db(spec.shard_id)
        assert all(not ranges for ranges in group.verify().values())
    topology = json.loads(
        (database._path / "topology.json").read_text())
    assert topology["placement_version"] == 1


def test_a_pre_placement_directory_is_upgraded_once(tmp_path):
    seeded, answers = _legacy_directory(tmp_path)
    obs = Observability(name="upgrade")
    database = _open(tmp_path, obs)
    # Bare, the old directory knows no placement at all.
    assert set(database.shard_report()["placement"].values()) == {"broadcast"}
    dm = _data_manager(database, tmp_path)      # presents the schema set
    assert _answers(dm, seeded) == answers
    _assert_upgraded(database, answers)
    events = obs.events.find("placement.upgraded")
    assert len(events) == 1
    n_events, n_files = N_EVENTS, answers["counts"]["loc_files"]
    # 3 of 4 copies of every owned row, of the catalogue's tuple and of
    # the two log rows.
    assert events[0].to_dict()["fields"]["rows_dropped"] == 3 * (
        n_events + n_files + 1 + 1 + 2)
    database.checkpoint()
    database.close()

    # A second open has nothing to do, with the schema set or without.
    obs = Observability(name="again")
    database = _open(tmp_path, obs)
    assert database.shard_report()["placement"]["loc_files"] \
        == "follows_item(item_id)"
    fsyncs = obs.registry.family_total("metadb.wal.fsyncs")
    dm = _data_manager(database, tmp_path)
    assert _answers(dm, seeded) == answers
    assert obs.events.find("placement.upgraded") == []
    _assert_upgraded(database, answers)
    # Installing the schema and asking all of that wrote nothing.
    assert obs.registry.family_total("metadb.wal.fsyncs") == fsyncs
    database.close()


def test_a_crash_between_two_shards_clean_ups_is_redone(tmp_path):
    seeded, answers = _legacy_directory(tmp_path)
    database = _open(tmp_path)
    injector = FaultInjector(seed=1)
    # Shards 0 and 1 commit their clean-up; shard 2's journal write fails.
    injector.inject("metadb.shard.2.wal.fsync", error=OSError("disk gone"))
    with use_injector(injector), pytest.raises(OSError, match="disk gone"):
        _data_manager(database, tmp_path)
    held = _rows_held(database, "loc_tuples")
    assert held[0] < held[3] == answers["counts"]["loc_tuples"]
    # Killed here: nothing is closed or checkpointed.
    topology = json.loads((tmp_path / "db" / "topology.json").read_text())
    assert topology["placement_version"] == 0       # still to do

    obs = Observability(name="redo")
    database = _open(tmp_path, obs)
    dm = _data_manager(database, tmp_path)
    assert _answers(dm, seeded) == answers
    _assert_upgraded(database, answers)
    assert len(obs.events.find("placement.upgraded")) == 1
    database.close()


def test_a_directory_of_this_commit_reopens_bare(tmp_path):
    """What ``bench/deploy.py::open_composed`` does before it digests
    ``loc_tuples``: no schema is handed over, the stored ones route."""
    database = _open(tmp_path)
    dm = _data_manager(database, tmp_path)
    seeded = _populate(dm)
    answers = _answers(dm, seeded)
    item = seeded["items"][4]
    statements = [
        Select("loc_tuples", order_by=[("tuple_ref", "asc")]),
        Select("loc_files", where=Comparison("item_id", "=", "ana:2"),
               order_by=[("file_id", "asc")]),
        Select("loc_tuples", where=In("item_id", seeded["items"][:6]),
               order_by=[("tuple_ref", "asc")]),
        Select("ops_log", order_by=[("log_id", "asc")]),
        Select("hle", where=Comparison("hle_id", "=", seeded["hle_ids"][9])),
    ]
    expected = [database.execute(statement) for statement in statements]
    assert len(expected[0]) == N_EVENTS + 1
    placement = database.shard_report()["placement"]
    route = database.explain_plan(statements[1])["shard_route"]
    for checkpointed in (True, False):      # from snapshots, then from journals
        if checkpointed:
            database.checkpoint()
        else:
            dm.io.names.register_url(item, "http://example.org/again")
        database.close()
        database = _open(tmp_path)
        assert database.shard_report()["placement"] == placement
        assert [database.execute(statement) for statement in statements] \
            == expected
        assert database.explain_plan(statements[1])["shard_route"] == route
        assert route["by"] == "item" and len(route["shards"]) == 1
        dm = _data_manager(database, tmp_path)
    assert {key: value for key, value in _answers(dm, seeded).items()
            if key not in ("urls", "counts")} \
        == {key: value for key, value in answers.items()
            if key not in ("urls", "counts")}
    database.close()
