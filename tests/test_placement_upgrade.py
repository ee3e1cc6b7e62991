"""A sharded directory across the change that put placement on the schema.

Two reopen stories.  A directory written *before* the change
(``topology.json`` has no placement version) is refused with a typed
error before anything under it is written.  A directory written *by*
this commit reopens bare, through ``ShardedDatabase(path=...)`` with no
schema handed over, and routes from what it persisted.
"""

import json
from pathlib import Path

import pytest

from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import (
    Aggregate,
    Comparison,
    In,
    Insert,
    Select,
)
from repro.shard import ShardedDatabase, ShardError

DAY = 86_400.0
BOUNDS = (DAY, 2 * DAY, 3 * DAY)
LOC_TABLES = ("loc_files", "loc_tuples", "loc_urls")
N_EVENTS = 24


def _open(root: Path) -> ShardedDatabase:
    return ShardedDatabase(boundaries=BOUNDS, path=root / "db", name="up",
                           replicas_per_shard=2)


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


def test_a_pre_placement_directory_is_refused_before_anything_is_written(tmp_path):
    """A directory written before placement was stored has no placement
    version in ``topology.json``: opening it names the directory and
    changes no byte under it."""
    database = _open(tmp_path)
    dm = _data_manager(database, tmp_path)
    _populate(dm)
    database.checkpoint()
    database.close()
    topology = tmp_path / "db" / "topology.json"
    payload = json.loads(topology.read_text())
    del payload["placement_version"]
    topology.write_text(json.dumps(payload))
    before = {path: path.read_bytes()
              for path in (tmp_path / "db").rglob("*") if path.is_file()}
    with pytest.raises(ShardError, match=str(tmp_path / "db")):
        _open(tmp_path)
    assert {path: path.read_bytes()
            for path in (tmp_path / "db").rglob("*") if path.is_file()} == before


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
