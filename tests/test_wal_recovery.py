"""WAL torn-tail recovery: crash-consistency of the journal itself.

A crash mid-append can cut the journal at *any* byte.  Recovery must
keep every complete record, discard the torn tail (physically — so the
next append cannot concatenate onto a partial line and corrupt two
records), report the discard, and leave the journal appendable.  These
tests cut the last record at every byte boundary and prove all of it.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadb import (
    Column, ColumnType, Comparison, Database, DatabaseStats, Delete,
    IntegrityError, Insert, SchemaError, Select, TableSchema, Update,
    partitioned, wal,
)
from repro.metadb.wal import Journal
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.resil import FaultInjector, use_injector

from . import oracle_recovery
from .oracle_snapshot import checkpoint_with_json_dump


def _schema(name="samples"):
    return TableSchema(name, [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("note", ColumnType.TEXT),
        Column("payload", ColumnType.BLOB),
    ], primary_key="id")


def _build_journal(path):
    """A persistent database with one DDL line and three committed rows."""
    db = Database(path=path, name="wal")
    db.create_table(_schema())
    for index in range(3):
        db.execute(Insert("samples", {
            "id": index, "note": f"row {index}", "payload": bytes([index]) * 4,
        }))
    db.close()
    return (path / "journal.jsonl").read_bytes()


class TestTornTailEveryByte:
    def test_truncation_at_every_byte_boundary_of_the_last_record(self, tmp_path):
        data = _build_journal(tmp_path / "seed")
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        size = len(data)
        for cut in range(last_start, size + 1):
            root = tmp_path / f"cut{cut}"
            root.mkdir()
            (root / "journal.jsonl").write_bytes(data[:cut])
            db = Database(path=root, name="wal")
            rows = db.execute(Select("samples"))
            if cut >= size - 1:
                # Complete record (at worst the newline is missing):
                # nothing may be discarded.
                assert len(rows) == 3
            else:
                # Torn tail: the partial last record is discarded, every
                # earlier record survives, blobs intact.
                assert len(rows) == 2
                assert {row["id"] for row in rows} == {0, 1}
                assert rows[0]["payload"] == b"\x00" * 4
            # The journal is clean again: a fresh append must not
            # concatenate onto a partial line.
            db.execute(Insert("samples", {
                "id": 99, "note": "after recovery", "payload": b"ok",
            }))
            db.close()
            reopened = Database(path=root, name="wal")
            recovered = reopened.execute(Select("samples"))
            assert len(recovered) == len(rows) + 1
            assert any(row["id"] == 99 for row in recovered)
            reopened.close()

    def test_torn_bytes_are_physically_removed(self, tmp_path):
        data = _build_journal(tmp_path / "seed")
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        root = tmp_path / "torn"
        root.mkdir()
        (root / "journal.jsonl").write_bytes(data[: last_start + 5])
        Database(path=root, name="wal").close()
        healed = (root / "journal.jsonl").read_bytes()
        assert len(healed) == last_start
        for line in healed.decode("utf-8").splitlines():
            json.loads(line)  # every surviving line is complete JSON


class TestTornTailReporting:
    def test_torn_tail_emits_event_and_counter(self, tmp_path):
        data = _build_journal(tmp_path / "seed")
        root = tmp_path / "torn"
        root.mkdir()
        (root / "journal.jsonl").write_bytes(data[:-7])
        obs = Observability(name="walt")
        torn = obs.counter("metadb.wal.torn_tails")
        Database(path=root, name="wal", obs=obs).close()
        assert torn.value == 1
        events = [event for event in obs.events.snapshot(limit=50)
                  if event["kind"] == "wal.torn_tail"]
        assert len(events) == 1
        assert events[0]["severity"] == "warn"
        assert "torn byte" in events[0]["message"]

    def test_clean_journal_reports_nothing(self, tmp_path):
        _build_journal(tmp_path / "seed")
        obs = Observability(name="walc")
        torn = obs.counter("metadb.wal.torn_tails")
        Database(path=tmp_path / "seed", name="wal", obs=obs).close()
        assert torn.value == 0


class TestMissingNewline:
    def test_complete_record_without_newline_is_kept_and_repaired(self, tmp_path):
        data = _build_journal(tmp_path / "seed")
        root = tmp_path / "nonl"
        root.mkdir()
        assert data.endswith(b"\n")
        (root / "journal.jsonl").write_bytes(data[:-1])
        db = Database(path=root, name="wal")
        assert len(db.execute(Select("samples"))) == 3
        db.close()
        healed = (root / "journal.jsonl").read_bytes()
        assert healed.endswith(b"\n")
        assert len(healed) == len(data)


class TestReplicationOffsetRecovery:
    def test_acked_offset_survives_restart(self, tmp_path):
        db = Database(path=tmp_path / "f", name="follower")
        db.create_table(_schema())
        db.apply_redo([{"op": "insert", "table": "samples", "rowid": 1,
                        "row": {"id": 1, "note": "shipped", "payload": b"x"}}],
                      tx_id=7, lsn=11)
        db.close()
        recovered = Database(path=tmp_path / "f", name="follower")
        assert recovered.replication_offset == 11
        assert len(recovered.execute(Select("samples"))) == 1

    def test_acked_offset_survives_a_torn_tail_behind_it(self, tmp_path):
        """The ack is journaled in the same line as the applied batch, so
        a torn tail that discards the batch also discards its ack — the
        recovered offset never claims data the tables don't hold."""
        db = Database(path=tmp_path / "f", name="follower")
        db.create_table(_schema())
        db.apply_redo([{"op": "insert", "table": "samples", "rowid": 1,
                        "row": {"id": 1, "note": "a", "payload": b"x"}}],
                      lsn=1)
        db.apply_redo([{"op": "insert", "table": "samples", "rowid": 2,
                        "row": {"id": 2, "note": "b", "payload": b"y"}}],
                      lsn=2)
        db.close()
        journal = tmp_path / "f" / "journal.jsonl"
        data = journal.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        journal.write_bytes(data[: last_start + 9])  # tear the lsn=2 batch
        recovered = Database(path=tmp_path / "f", name="follower")
        assert recovered.replication_offset == 1
        assert len(recovered.execute(Select("samples"))) == 1


# -- the snapshot writer -------------------------------------------------------

def _mixed_schema(name="mixed"):
    return TableSchema(name, [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("note", ColumnType.TEXT),
        Column("payload", ColumnType.BLOB),
        Column("rate", ColumnType.REAL),
        Column("flag", ColumnType.BOOLEAN),
        Column("at", ColumnType.TIMESTAMP),
    ], primary_key="id", indexes=[("rate",)],
        placement=partitioned("at"), item_key="note")


def _mixed_rows(n):
    notes = ["plain", "Zürich – ☀ flare", 'quote " and \\ backslash', "", None]
    rates = [0.1, 1e-9, -2.5e300, 3.0, float("inf"), None]
    return [{
        "id": index, "note": notes[index % len(notes)],
        "payload": None if index % 4 == 0 else bytes(range(index % 7)),
        "rate": rates[index % len(rates)],
        "flag": [True, False, None][index % 3],
        "at": 1_000_000.0 + index / 3,
    } for index in range(n)]


def _json_dump_snapshot(db, directory, generation=1) -> str:
    """The document the ``json.dump`` writer leaves for ``db``'s tables,
    as the checkpoint that starts journal ``generation``."""
    journal = Journal(directory)
    checkpoint_with_json_dump(journal, {"tables": {
        name: {"schema": table.schema.to_dict(),
               "rows": {rowid: table.row(rowid) for rowid in table.rowids()}}
        for name, table in db._tables.items()},
        "generation": generation, "replication_offset": db.replication_offset})
    return journal.snapshot_path.read_text(encoding="utf-8")


class TestSnapshotWriter:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 2000])
    def test_snapshot_is_byte_identical_to_json_dump(
            self, tmp_path, monkeypatch, chunk_rows):
        """BLOB, NULL, non-ASCII, float and bool values, an empty table,
        rows deleted out of the middle, chunk edges on and off a table's
        last row: the file is what ``json.dump`` would have written."""
        monkeypatch.setattr(wal, "SNAPSHOT_CHUNK_ROWS", chunk_rows)
        db = Database(path=tmp_path / "db", name="snap")
        db.create_table(_mixed_schema())
        db.create_table(_schema())                      # stays empty
        db.create_table(_mixed_schema("second"))
        for row in _mixed_rows(21):
            db.execute(Insert("mixed", dict(row)))
        for row in _mixed_rows(7):
            db.execute(Insert("second", dict(row)))
        db.execute("DELETE FROM mixed WHERE id = 10")
        expected = _json_dump_snapshot(db, tmp_path / "oracle")
        db.checkpoint()
        written = (tmp_path / "db" / "snapshot.json").read_bytes()
        assert written == expected.encode("utf-8")
        assert (tmp_path / "db" / "journal.jsonl").read_bytes() == b""
        rows = db.execute(Select("mixed", order_by=[("id", "asc")]))
        db.close()
        reopened = Database(path=tmp_path / "db", name="snap")
        assert reopened.execute(Select("mixed", order_by=[("id", "asc")])) == rows
        assert [row["id"] for row in rows] == [n for n in range(21) if n != 10]
        schema = reopened.table("mixed").schema
        assert schema.to_dict() == _mixed_schema().to_dict()
        assert (schema.placement, schema.item_key) == (partitioned("at"), "note")
        assert reopened.table("samples").schema.placement.kind == "broadcast"
        reopened.close()

    @pytest.mark.parametrize("checkpoint", [True, False], ids=["snapshot", "journal"])
    def test_a_stored_schema_declaring_columnar_still_opens(self, tmp_path, checkpoint):
        """Schemas were once stored with a ``"columnar"`` flag: a snapshot
        or journal that has one opens, and equals one written without."""
        def build(path):
            db = Database(path=path, name="snap")
            db.create_table(_mixed_schema())
            for row in _mixed_rows(9):
                db.execute(Insert("mixed", dict(row)))
            db.execute("DELETE FROM mixed WHERE id = 4")
            if checkpoint:
                db.checkpoint()
                db.execute(Insert("mixed", {"id": 50, "at": 7.0}))
            db.close()

        def flag(node):
            if isinstance(node, dict):
                if "primary_key" in node and "columns" in node:
                    node["columnar"] = True
                return {key: flag(value) for key, value in node.items()}
            return [flag(item) for item in node] if isinstance(node, list) else node

        build(tmp_path / "old")
        build(tmp_path / "fresh")
        for stored in ("snapshot.json", "journal.jsonl"):
            path = tmp_path / "old" / stored
            if path.exists():
                lines = path.read_text().splitlines()
                path.write_text("".join(json.dumps(flag(json.loads(line))) + "\n"
                                        for line in lines if line))
        assert '"columnar": true' in (tmp_path / "old" / (
            "snapshot.json" if checkpoint else "journal.jsonl")).read_text()
        old, fresh = (Database(path=tmp_path / name, name="snap") for name in ("old", "fresh"))
        select = Select("mixed", order_by=[("id", "asc")])
        assert old.execute(select) == fresh.execute(select)
        assert len(old.execute(select)) == (9 if checkpoint else 8)
        assert old.table("mixed").schema.to_dict() == fresh.table("mixed").schema.to_dict() \
            == _mixed_schema().to_dict()
        old.close()
        fresh.close()

    def test_a_database_with_no_table_snapshots_as_json_dump_would(self, tmp_path):
        db = Database(path=tmp_path / "db", name="empty")
        db.checkpoint()
        assert (tmp_path / "db" / "snapshot.json").read_text() \
            == _json_dump_snapshot(db, tmp_path / "oracle") \
            == '{"tables": {}, "generation": 1, "replication_offset": 0}'
        db.close()

    def test_a_torn_temporary_snapshot_is_ignored_and_replaced(self, tmp_path):
        """A crash inside a checkpoint leaves ``snapshot.tmp`` half
        written beside the last good snapshot and the journal."""
        db = Database(path=tmp_path / "db", name="torn")
        db.create_table(_mixed_schema())
        for row in _mixed_rows(6):
            db.execute(Insert("mixed", dict(row)))
        db.checkpoint()
        db.execute(Insert("mixed", _mixed_rows(7)[6]))     # journal only
        rows = db.execute(Select("mixed", order_by=[("id", "asc")]))
        good = (tmp_path / "db" / "snapshot.json").read_bytes()
        db.close()
        (tmp_path / "db" / "snapshot.tmp").write_bytes(good[: len(good) // 2])
        reopened = Database(path=tmp_path / "db", name="torn")
        assert reopened.execute(Select("mixed", order_by=[("id", "asc")])) == rows
        reopened.checkpoint()
        assert not (tmp_path / "db" / "snapshot.tmp").exists()
        assert (tmp_path / "db" / "snapshot.json").read_text() \
            == _json_dump_snapshot(reopened, tmp_path / "oracle", generation=2)
        reopened.close()

    def test_a_failed_snapshot_fsync_keeps_the_old_snapshot_and_journal(
            self, tmp_path):
        db = Database(path=tmp_path / "db", name="fsync")
        db.create_table(_mixed_schema())
        db.execute(Insert("mixed", _mixed_rows(1)[0]))
        db.checkpoint()
        db.execute(Insert("mixed", _mixed_rows(2)[1]))
        before = {name: (tmp_path / "db" / name).read_bytes()
                  for name in ("snapshot.json", "journal.jsonl")}
        injector = FaultInjector(seed=1)
        injector.inject("metadb.wal.fsync", error=OSError("no space"))
        with use_injector(injector), pytest.raises(OSError, match="no space"):
            db.checkpoint()
        assert {name: (tmp_path / "db" / name).read_bytes()
                for name in before} == before
        db.close()


# -- what a snapshot covers ----------------------------------------------------

def _sample(index, note=None):
    return {"id": index, "note": note or f"row {index}", "payload": bytes([index])}


def _shipped(index):
    """The shipped batch inserting sample ``index``, as a follower gets it."""
    return [{"op": "insert", "table": "samples", "rowid": index + 1,
             "row": _sample(index)}]


class TestCheckpointCrash:
    """A crash after the checkpoint renamed its snapshot into place and
    before it truncated the journal leaves the snapshot beside a journal
    whose records it already holds."""

    @staticmethod
    def _crash_after_the_rename(db, directory):
        """Checkpoint, then put back the journal the truncate removed."""
        journal = directory / "journal.jsonl"
        stale = journal.read_bytes()
        db.checkpoint()
        db.close()
        journal.write_bytes(stale)

    def test_a_primary_reopens_without_replaying_what_its_snapshot_holds(
            self, tmp_path):
        db = Database(path=tmp_path / "db", name="p")
        db.create_table(_schema())
        for index in range(5):
            db.execute(Insert("samples", _sample(index)))
        db.checkpoint()
        db.execute(Insert("samples", _sample(5)))
        db.execute("UPDATE samples SET note = 'changed' WHERE id = 0")
        db.execute("DELETE FROM samples WHERE id = 1")
        rows = db.execute(Select("samples", order_by=[("id", "asc")]))
        self._crash_after_the_rename(db, tmp_path / "db")
        reopened = Database(path=tmp_path / "db", name="p")
        assert reopened.execute(Select("samples", order_by=[("id", "asc")])) == rows
        # The superseded journal is gone before anything is appended to it.
        assert (tmp_path / "db" / "journal.jsonl").read_bytes() == b""
        reopened.execute(Insert("samples", _sample(6)))
        reopened.close()
        again = Database(path=tmp_path / "db", name="p")
        assert len(again.execute(Select("samples"))) == len(rows) + 1
        again.close()

    def test_a_follower_reopens_at_the_offset_its_snapshot_holds(self, tmp_path):
        db = Database(path=tmp_path / "f", name="f")
        db.apply_redo([{"op": "__ddl__", "kind": "create_table",
                        "schema": _schema().to_dict()}], lsn=1)
        for index in range(5):
            db.apply_redo(_shipped(index), lsn=index + 2)
        db.checkpoint()
        db.apply_redo(_shipped(5), lsn=7)
        db.apply_redo([{"op": "update", "table": "samples", "rowid": 1,
                        "changes": {"note": "changed"}}], lsn=8)
        db.apply_redo([{"op": "delete", "table": "samples", "rowid": 2}], lsn=9)
        rows = db.execute(Select("samples", order_by=[("id", "asc")]))
        self._crash_after_the_rename(db, tmp_path / "f")
        reopened = Database(path=tmp_path / "f", name="f")
        assert reopened.execute(Select("samples", order_by=[("id", "asc")])) == rows
        assert reopened.replication_offset == 9
        reopened.close()

    def test_a_directory_without_generations_replays_its_journal(self, tmp_path):
        """A snapshot and journal that name no generation are generation
        0 both: the journal continues the snapshot, as it always did."""
        db = Database(path=tmp_path / "db", name="old")
        db.create_table(_schema())
        db.execute(Insert("samples", _sample(0)))
        db.checkpoint()
        db.execute(Insert("samples", _sample(1)))
        db.close()
        snapshot = tmp_path / "db" / "snapshot.json"
        payload = json.loads(snapshot.read_text())
        del payload["generation"], payload["replication_offset"]
        snapshot.write_text(json.dumps(payload))
        journal = tmp_path / "db" / "journal.jsonl"
        journal.write_text("".join(
            line + "\n" for line in journal.read_text().splitlines()
            if "generation" not in json.loads(line)))
        reopened = Database(path=tmp_path / "db", name="old")
        assert [row["id"] for row in reopened.execute(
            Select("samples", order_by=[("id", "asc")]))] == [0, 1]
        reopened.close()


class TestFollowerCheckpoint:
    def test_a_follower_snapshot_keeps_the_acked_offset(self, tmp_path):
        db = Database(path=tmp_path / "f", name="f")
        db.create_table(_schema())
        for index in range(3):
            db.apply_redo(_shipped(index), lsn=index + 1)
        db.checkpoint()
        db.close()
        reopened = Database(path=tmp_path / "f", name="f")
        assert reopened.replication_offset == 3
        assert reopened.stats.snapshot()["rows_written"] == 0
        reopened.close()

    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_rejoin_after_a_follower_checkpoint_replays_the_log(
            self, tmp_path, n_replicas):
        """With a second follower down the log still reaches back to the
        start, and a follower that forgot its offset would replay what
        its snapshot holds; alone, it would fall behind the log and be
        re-cloned."""
        group = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=n_replicas)
        if n_replicas == 2:
            group.kill_replica("g-r2")
        group.create_table(_schema())
        for index in range(5):
            group.execute(Insert("samples", _sample(index)))
        group.checkpoint()
        group.kill_replica("g-r1")
        group.execute(Insert("samples", _sample(5)))
        result = group.rejoin_replica("g-r1")
        assert result == {"mode": "log_replay", "replayed_records": 1,
                          "from_lsn": 6}
        assert group.verify() == {"g-r1": {}}
        group.close()


# -- recovery against the retired replay loop ----------------------------------

TABLES = ("left", "right")
KEYS = st.integers(min_value=0, max_value=5)
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(("insert",) * 3 + ("update",) * 2 + ("delete", "create", "drop",
                                                          "checkpoint", "reopen")),
    st.sampled_from(TABLES), KEYS), max_size=40)


def _statement(operation, table, key):
    if operation == "insert":
        return Insert(table, _sample(key))
    if operation == "update":
        return Update(table, {"note": f"moved {key}", "payload": None},
                      where=Comparison("id", "<=", key))
    return Delete(table, where=Comparison("id", "=", key))


def _held(tables) -> str:
    """Every row of every table with its rowid, types and all."""
    return repr({name: [(rowid, table.row(rowid)) for rowid in sorted(table.rowids())]
                 for name, table in sorted(tables.items())})


class _Pair:
    """A persistent primary and a persistent follower fed by
    ``apply_redo(..., lsn=)``: every committed batch and every DDL is
    one shipped batch."""

    def __init__(self, root):
        self.root, self.lsn = root, 0
        self.primary = Database(path=root / "p", name="p")
        self.follower = Database(path=root / "f", name="f")
        self.primary.add_commit_listener(lambda tx_id, redo: self.ship(redo, tx_id))
        for table in TABLES:
            self.run("create", table, 0)

    def ship(self, records, tx_id=0):
        self.lsn += 1
        assert self.follower.apply_redo(list(records), tx_id=tx_id, lsn=self.lsn)

    def run(self, operation, table, key):
        if operation == "create":
            self.primary.create_table(_schema(table))
            self.ship([{"op": "__ddl__", "kind": "create_table",
                        "schema": _schema(table).to_dict()}])
        elif operation == "drop":
            self.primary.drop_table(table)
            self.ship([{"op": "__ddl__", "kind": "drop_table", "table": table}])
        else:
            self.primary.execute(_statement(operation, table, key))

    def reopen(self):
        self.primary = self._reopened(self.primary, "p", 0)
        self.follower = self._reopened(self.follower, "f", self.lsn)
        self.primary.add_commit_listener(lambda tx_id, redo: self.ship(redo, tx_id))

    def _reopened(self, db, directory, offset):
        """Close ``db`` and open it again: the rows it held, the oracle's
        rows and the reopened ones agree, and so do the offsets."""
        held = _held(db._tables)
        db.close()
        tables, oracle_offset = oracle_recovery.recover(self.root / directory)
        reopened = Database(path=self.root / directory, name=directory)
        assert _held(reopened._tables) == _held(tables) == held
        assert reopened.replication_offset == oracle_offset == offset
        assert reopened.stats.snapshot() == DatabaseStats().snapshot()
        return reopened


@settings(max_examples=40, deadline=None)
@given(operations=OPERATIONS)
def test_reopening_recovers_what_the_retired_replay_loop_recovers(operations):
    with tempfile.TemporaryDirectory() as scratch:
        pair = _Pair(Path(scratch))
        for operation, table, key in operations:
            if operation == "checkpoint":
                pair.primary.checkpoint()
                pair.follower.checkpoint()
            elif operation == "reopen":
                pair.reopen()
            else:
                try:
                    pair.run(operation, table, key)
                except (SchemaError, IntegrityError):
                    pass        # refused by the primary: nothing shipped
        pair.reopen()
        assert _held(pair.follower._tables) == _held(pair.primary._tables)
        pair.primary.close()
        pair.follower.close()
