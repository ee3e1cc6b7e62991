"""Write-placement guard: a write lands on the shard that holds its item.

Counts on an on-disk 4 x 2 stack (four time shards, two copies each, a
WAL with an fsync per commit), which repeat exactly, and one timing:

* ``insert_hle`` commits on one shard: one transaction part, 2 fsyncs
  (the primary's journal and its follower's).  When every ``loc_*`` row
  was broadcast it was 4 parts and 8 fsyncs.  ``delete_hle`` likewise
  writes one shard and costs 2 fsyncs; its ``DELETE FROM loc_files``
  names an item no shard holds a file of (an event without files), so
  it is sent nowhere and opens no part.
* ``import_analysis`` (the ``ana`` row, its file references, the
  parent's counter) opens one part.
* a seeded event (``hle`` + ``loc_tuples`` in one transaction, what
  ``bench/datagen.py::load_catalogue`` does 4 000 times) is 2 shard-level
  inserts, not 5.
* ``Journal.checkpoint`` writes a 20 000-row table at least 2x faster
  than the same sequence around ``json.dump``, which walks the
  pure-Python encoder (2.6x on the seeded ``composed_rw`` stack).

Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

from conftest import min_per_call
from repro.analysis import AnalysisProduct
from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Column, ColumnType, Database, Insert, TableSchema
from repro.metadb.wal import Journal
from repro.obs import Observability
from repro.shard import ShardedDatabase
from tests.oracle_snapshot import checkpoint_with_json_dump

DAY = 86_400.0
MIN_CHECKPOINT_SPEEDUP = 2.0


def _stack(tmp_path):
    obs = Observability(name="placement")
    database = ShardedDatabase(
        boundaries=(DAY, 2 * DAY, 3 * DAY), path=tmp_path / "db",
        name="placement", obs=obs, replicas_per_shard=2)
    storage = StorageManager(scratch_dir=tmp_path / "scratch")
    storage.register(DiskArchive("main", tmp_path / "archive"))
    dm = DataManager(database, storage, obs=obs)
    dm.io.names.ensure_archive("main", str(tmp_path / "archive"))
    user = dm.users.create_user("bench", "pw", group="scientist")
    return database, dm, user, obs


class _Cost:
    """Fsyncs, transaction parts opened and shard-level statements of
    whatever runs inside the ``with`` block."""

    def __init__(self, database: ShardedDatabase, obs: Observability):
        self.database, self.obs = database, obs
        self.parts: list[int] = []

    def _fsyncs(self) -> float:
        return self.obs.registry.family_total("metadb.wal.fsyncs")

    def __enter__(self):
        self._restore = []
        for spec in self.database.shard_map:
            shard = self.database.shard_db(spec.shard_id)
            self._restore.append((shard, shard.begin))
            shard.begin = (lambda inner=shard.begin, shard_id=spec.shard_id:
                           self.parts.append(shard_id) or inner())
        self._before = (self._fsyncs(), dict(self.database.writes_by_shard))
        return self

    def __exit__(self, *exc_info):
        for shard, begin in self._restore:
            shard.begin = begin
        fsyncs, writes = self._before
        self.fsyncs = self._fsyncs() - fsyncs
        self.statements = {
            shard: count - writes.get(shard, 0)
            for shard, count in self.database.writes_by_shard.items()
            if count != writes.get(shard, 0)}


def test_semantic_writes_commit_on_the_shard_of_their_event(tmp_path):
    database, dm, user, obs = _stack(tmp_path)
    event = {"public": True, "kind": "flare", "title": "late event",
             "start_time": 2.5 * DAY, "end_time": 2.5 * DAY + 60.0}

    with _Cost(database, obs) as insert:
        hle_id = dm.semantic.insert_hle(user, event)
    assert insert.parts == [2] and insert.fsyncs == 2
    assert insert.statements == {2: 2}          # hle + loc_tuples

    product = AnalysisProduct(
        algorithm="histogram", parameters={"n_bins": 16},
        summary={"peak_value": 1.0}, log_lines=["ok"],
        image_payloads=[b"P5 1 1 255 \x00"])
    with _Cost(database, obs) as analysis:
        ana_id = dm.semantic.import_analysis(user, hle_id, product, {})
    assert analysis.parts == [2] and analysis.fsyncs == 2
    assert analysis.statements == {2: 5}        # ana, 3 files, hle counter
    assert len(dm.io.names.resolve_files(f"ana:{ana_id}")) == 3

    dm.semantic.delete_analysis(user, ana_id)
    with _Cost(database, obs) as delete:
        dm.semantic.delete_hle(user, hle_id)
    assert delete.fsyncs == 2
    assert delete.statements == {2: 2}          # no files: sent nowhere
    assert set(delete.parts) == {2}
    assert dm.io.names.resolve_tuple(f"hle:{hle_id}") == []
    database.close()


def test_a_seeded_event_is_two_shard_level_inserts(tmp_path):
    database, _dm, user, obs = _stack(tmp_path)
    with _Cost(database, obs) as seeding:
        tx = database.begin()
        for index in range(100):
            start = index * 4 * DAY / 100
            database.execute(Insert("hle", {
                "hle_id": index + 1, "item_id": f"hle:{index + 1}",
                "owner_id": user.user_id, "start_time": start,
                "end_time": start + 60.0}), tx=tx)
            database.execute(Insert("loc_tuples", {
                "tuple_ref": f"tuple:hle:{index + 1}",
                "item_id": f"hle:{index + 1}", "table_name": "hle"}), tx=tx)
        database.commit(tx)
    assert sum(seeding.statements.values()) == 200
    assert sorted(seeding.parts) == [0, 1, 2, 3] and seeding.fsyncs == 8
    report = database.shard_report()
    assert [entry["rows"]["loc_tuples"] for entry in report["shards"]] \
        == [entry["rows"]["hle"] for entry in report["shards"]] == [25] * 4
    database.close()


def test_checkpoint_is_2x_the_json_dump_writer(tmp_path):
    database = Database(name="rows")
    database.create_table(TableSchema("events", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("title", ColumnType.TEXT),
        Column("start_time", ColumnType.REAL),
        Column("peak_rate", ColumnType.REAL),
        Column("public", ColumnType.BOOLEAN),
        Column("payload", ColumnType.BLOB),
    ], primary_key="id"))
    tx = database.begin()
    for index in range(20_000):
        database.execute(Insert("events", {
            "id": index, "title": f"flare {index} on day {index / 300:.3f}",
            "start_time": index * 17.25, "peak_rate": 10.0 + index / 7,
            "public": index % 10 != 0,
            "payload": bytes([index % 251]) * 8 if index % 50 == 0 else None,
        }), tx=tx)
    database.commit(tx)
    table = database.table("events")
    snapshot = {"tables": {"events": {
        "schema": table.schema.to_dict(),
        "rows": {rowid: table.row(rowid) for rowid in table.rowids()}}}}
    old, new = Journal(tmp_path / "old"), Journal(tmp_path / "new")
    old_s = min_per_call(checkpoint_with_json_dump, old, snapshot,
                         calls=1, repeats=5)
    new_s = min_per_call(new.checkpoint, snapshot, calls=1, repeats=5)
    assert new.snapshot_path.read_bytes() == old.snapshot_path.read_bytes()
    print(f"\ncheckpoint of 20 000 rows: json.dump {old_s * 1e3:.0f} ms, "
          f"chunked json.dumps {new_s * 1e3:.0f} ms ({old_s / new_s:.2f}x)")
    assert old_s / new_s >= MIN_CHECKPOINT_SPEEDUP
