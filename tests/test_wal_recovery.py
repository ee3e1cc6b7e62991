"""WAL torn-tail recovery: crash-consistency of the journal itself.

A crash mid-append can cut the journal at *any* byte.  Recovery must
keep every complete record, discard the torn tail (physically — so the
next append cannot concatenate onto a partial line and corrupt two
records), report the discard, and leave the journal appendable.  These
tests cut the last record at every byte boundary and prove all of it.
"""

import json

import pytest

from repro.metadb import (
    Column, ColumnType, Database, Insert, Select, TableSchema, partitioned, wal,
)
from repro.metadb.wal import Journal
from repro.obs import Observability
from repro.resil import FaultInjector, use_injector

from .oracle_snapshot import checkpoint_with_json_dump


def _schema():
    return TableSchema("samples", [
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
    ], primary_key="id", indexes=[("rate",)], columnar=True,
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


def _json_dump_snapshot(db, directory) -> str:
    """The document the ``json.dump`` writer leaves for ``db``'s tables."""
    journal = Journal(directory)
    checkpoint_with_json_dump(journal, {"tables": {
        name: {"schema": table.schema.to_dict(),
               "rows": {rowid: table.row(rowid) for rowid in table.rowids()}}
        for name, table in db._tables.items()}})
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
        assert (schema.placement, schema.item_key, schema.columnar) \
            == (partitioned("at"), "note", True)
        assert reopened.table("samples").schema.placement.kind == "broadcast"
        reopened.close()

    def test_a_database_with_no_table_snapshots_as_json_dump_would(self, tmp_path):
        db = Database(path=tmp_path / "db", name="empty")
        db.checkpoint()
        assert (tmp_path / "db" / "snapshot.json").read_text() \
            == _json_dump_snapshot(db, tmp_path / "oracle") == '{"tables": {}}'
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
            == _json_dump_snapshot(reopened, tmp_path / "oracle")
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
