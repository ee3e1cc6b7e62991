"""The write path validates a row once, and says the same as it always did.

``TableSchema.normalize_row`` walks a plan the schema compiled and takes a
value of exactly the stored type as is; ``Database`` normalises an INSERT's
values and an UPDATE's changes once and hands the result on; the journal
and the snapshot leave their encoding to ``json.dumps``.  The retired
normaliser and value walk are the oracle (``tests/oracle_normalize.py``):
value, exception type and message, and bytes must agree.
"""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metadb import (
    Column, ColumnType, Comparison, Database, ForeignKey, Insert, Select,
    TableSchema, Update,
)
from repro.metadb.errors import IntegrityError
from repro.metadb.types import STORED_TYPE, coerce
from repro.repl import ReplicaGroup
from repro.repl.antientropy import _range_payload

from . import oracle_normalize as oracle

# -- what hypothesis draws -------------------------------------------------------

_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True), st.sampled_from([0.0, 1.0, 2.5, -0.0]),
    st.text(max_size=4), st.sampled_from(["7", "2.5", "2002-02-12T21:30:00", "x"]),
    st.binary(max_size=4), st.binary(max_size=3).map(bytearray),
    st.sampled_from([dt.datetime(2002, 2, 12, 21, 30),
                     dt.datetime(2003, 1, 1, tzinfo=dt.timezone.utc)]),
    st.sampled_from([(1,), [1], {"a": 1}]),
)
_DEFAULTS = st.one_of(
    st.none(), st.none(), _VALUES,
    st.sampled_from([lambda: 5, lambda: 1.5, lambda: "now", lambda: None]),
)
_COLUMN_NAMES = ["a", "b", "c", "d", "e", "f", "g"]


@st.composite
def _schemas(draw):
    names = draw(st.lists(st.sampled_from(_COLUMN_NAMES), min_size=1,
                          max_size=6, unique=True))
    return TableSchema("t", [
        Column(name, draw(st.sampled_from(list(ColumnType))),
               nullable=draw(st.sampled_from([True, True, False])),
               default=draw(_DEFAULTS))
        for name in names])


@st.composite
def _schema_and_values(draw):
    schema = draw(_schemas())
    keys = draw(st.lists(st.sampled_from(schema.column_order), unique=True))
    if draw(st.integers(0, 7)) == 0:
        keys.insert(draw(st.integers(0, len(keys))), "zz")
    return schema, {key: draw(_VALUES) for key in keys}


#: One of everything a caller has been seen to hand a column.
_SAMPLES = [
    None, True, False, 0, 1, -7, 2 ** 70, 0.0, 1.0, 2.5, -0.0, float("inf"),
    float("nan"), "", "7", " 7 ", "2.5", "x", "Zürich", "2002-02-12T21:30:00",
    "2002-02-12T21:30:00+01:00", b"", b"\x00\xff", bytearray(b"ab"), memoryview(b"ab"),
    dt.datetime(2002, 2, 12, 21, 30), dt.datetime(2003, 1, 1, tzinfo=dt.timezone.utc),
    dt.date(2002, 2, 12), (1,), [1], {"a": 1}, np.float64(2.5), np.int64(3), np.bool_(True),
]


def _outcome(call):
    """What a normaliser answered, exact types and NaNs included (a row's
    ``repr`` tells ``1`` from ``1.0`` from ``True`` and keeps key order)."""
    try:
        return "row", repr(call())
    except Exception as exc:
        return type(exc), str(exc)


class TestNormaliserAgainstOracle:
    @settings(max_examples=600, deadline=None)
    @given(_schema_and_values(), st.booleans())
    def test_equals_the_oracle(self, drawn, for_update):
        schema, values = drawn
        assert _outcome(lambda: schema.normalize_row(values, for_update=for_update)) \
            == _outcome(lambda: oracle.normalize_row(schema, values,
                                                     for_update=for_update))

    @settings(max_examples=300, deadline=None)
    @given(_schema_and_values(), st.booleans())
    def test_is_idempotent(self, drawn, for_update):
        schema, values = drawn
        try:
            once = schema.normalize_row(values, for_update=for_update)
        except Exception:
            return
        twice = schema.normalize_row(once, for_update=for_update)
        assert repr(twice) == repr(once)
        assert all(twice[key] is once[key] for key in once)

    @pytest.mark.parametrize("column_type", list(ColumnType))
    @pytest.mark.parametrize("nullable", [True, False])
    def test_every_sample_in_every_column_type(self, column_type, nullable):
        """The fast path is taken on the exact stored type and on nothing
        near it: ``True`` is not an INTEGER's ``1``, ``np.float64`` is not
        a ``float``."""
        schema = TableSchema("t", [Column("a", column_type, nullable=nullable)])
        for value in _SAMPLES:
            for for_update in (False, True):
                assert _outcome(lambda: schema.normalize_row(
                    {"a": value}, for_update=for_update)) \
                    == _outcome(lambda: oracle.normalize_row(
                        schema, {"a": value}, for_update=for_update)), (value, for_update)

    def test_unknown_column_is_reported_before_any_other_fault(self):
        schema = TableSchema("t", [Column("a", ColumnType.INTEGER, nullable=False)])
        values = {"a": "not a number", "zz": 1, "yy": 2}
        for for_update in (False, True):
            assert _outcome(lambda: schema.normalize_row(values, for_update=for_update)) \
                == _outcome(lambda: oracle.normalize_row(schema, values,
                                                         for_update=for_update))
        with pytest.raises(Exception, match="has no column 'zz'"):
            schema.normalize_row(values)

    @pytest.mark.parametrize("column_type", list(ColumnType))
    def test_coerce_returns_a_value_of_the_stored_type_itself(self, column_type):
        """What licenses the fast path: ``coerce`` is still the one
        definition of what converts, and on the exact type it converts
        nothing."""
        samples = {int: [0, -7, 2 ** 70], float: [0.0, -2.5, float("inf"), float("nan")],
                   str: ["", "Zürich"], bool: [True, False], bytes: [b"", b"\x00\xff"]}
        for value in samples[STORED_TYPE[column_type]]:
            assert coerce(value, column_type) is value

    def test_every_column_type_has_a_stored_type(self):
        assert set(STORED_TYPE) == set(ColumnType)


# -- one normalisation, one row object ----------------------------------------------

def _events_schema(default=None):
    return TableSchema("events", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("label", ColumnType.TEXT, nullable=False),
        Column("value", ColumnType.REAL),
        Column("ts", ColumnType.TIMESTAMP, default=default),
        Column("payload", ColumnType.BLOB),
        Column("flag", ColumnType.BOOLEAN),
        Column("parent", ColumnType.INTEGER),
    ], primary_key="id", indexes=[("value",)],
        foreign_keys=[ForeignKey("parent", "events", "id")])


def _mixed_rows(n):
    labels = ["plain", "Zürich – ☀ flare", 'quote " and \\ backslash', ""]
    return [{
        "id": index, "label": labels[index % len(labels)],
        "value": [0.1, None, -2.5e300, float("inf")][index % 4],
        "ts": 1_000_000.0 + index / 3,
        "payload": None if index % 3 == 0 else bytes(range(index % 7)),
        "flag": [True, False, None][index % 3],
    } for index in range(n)]


class TestOneRowObject:
    def test_checked_stored_logged_and_shipped_row_is_one_object(self):
        ticks = []
        db = Database(name="one")
        db.create_table(_events_schema(default=lambda: ticks.append(1) or 5.0))
        shipped = []
        db.add_commit_listener(lambda tx_id, redo: shipped.extend(redo))
        checked = []
        inner = db._check_fk_on_write
        db._check_fk_on_write = lambda table, row: checked.append(row) or inner(table, row)
        rowid = db.execute(Insert("events", {"id": 1, "label": "a"}))
        stored = db.table("events").row(rowid)
        assert checked[0] is stored and shipped[0]["row"] is stored
        assert stored["ts"] == 5.0 and len(ticks) == 1

    def test_update_logs_the_normalised_changes_once_for_every_row(self):
        db = Database(name="one")
        db.create_table(_events_schema())
        for row in _mixed_rows(4):
            db.execute(Insert("events", row))
        shipped = []
        db.add_commit_listener(lambda tx_id, redo: shipped.extend(redo))
        assert db.execute(Update("events", {"value": 3, "flag": 1})) == 4
        assert [record["changes"] for record in shipped] \
            == [{"value": 3.0, "flag": True}] * 4
        assert all(type(record["changes"]["value"]) is float
                   and record["changes"]["flag"] is True for record in shipped)

    def test_nulling_a_not_null_column_raises_as_before(self):
        db = Database(name="one")
        db.create_table(_events_schema())
        db.execute(Insert("events", {"id": 1, "label": "a"}))
        with pytest.raises(IntegrityError, match=r"^NOT NULL violation: events\.label$"):
            db.execute(Update("events", {"label": None}))
        table = db.table("events")
        with pytest.raises(IntegrityError,
                           match=r"^NOT NULL violation: events\.label$"):
            table.update_row(1, {"value": 1.0, "label": None})
        with pytest.raises(IntegrityError, match="primary key 'id'"):
            table.update_row(1, {"id": None})
        assert table.row(1)["label"] == "a"
        # The key's index still finds the row.
        assert db.execute(Select("events", where=Comparison("id", "=", 1))) == [table.row(1)]


# -- what reaches the journal, the snapshot and the followers ---------------------------

class TestDurableImages:
    def test_update_with_values_json_cannot_say_survives_commit_and_reopen(self, tmp_path):
        """``Update(t, {"ts": datetime(...)})`` used to change the row
        store, then fail at commit with ``TypeError: Object of type
        datetime is not JSON serializable``: nothing journaled, nothing
        shipped, the old value back after a reopen."""
        group = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=1)
        group.create_table(_events_schema())
        for row in _mixed_rows(3):
            group.execute(Insert("events", row))
        moment = dt.datetime(2002, 2, 12, 21, 30, tzinfo=dt.timezone.utc)
        assert group.execute(Update(
            "events", {"ts": moment, "payload": bytearray(b"\x00\x01\xfe")},
            where=Comparison("id", "=", 1))) == 1
        assert group.execute(Update("events", {"value": "2.5"},
                                    where=Comparison("id", "=", 2))) == 1
        in_memory = group.primary.execute(Select("events", order_by=[("id", "asc")]))
        assert in_memory[1]["ts"] == moment.timestamp()
        assert in_memory[1]["payload"] == b"\x00\x01\xfe"
        assert in_memory[2]["value"] == 2.5
        assert group.verify() == {"g-r1": {}}
        follower = group.replicas[0].db.execute(
            Select("events", order_by=[("id", "asc")]))
        assert repr(follower) == repr(in_memory)
        group.close()
        reopened = ReplicaGroup(name="g", path=tmp_path / "g", n_replicas=1)
        assert repr(reopened.primary.execute(
            Select("events", order_by=[("id", "asc")]))) == repr(in_memory)
        assert reopened.verify() == {"g-r1": {}}
        reopened.close()

    def test_apply_redo_takes_final_images_for_inserts_and_updates(self):
        """A follower validates nothing: the owning database did."""
        follower = Database(name="f")
        follower.create_table(_events_schema())
        calls = []
        schema = follower.table("events").schema
        schema.normalize_row = lambda *args, **kwargs: calls.append(args) or {}
        row = {"id": 1, "label": "a", "value": 1.0, "ts": None, "payload": None,
               "flag": None, "parent": None}
        follower.apply_redo([
            {"op": "insert", "table": "events", "rowid": 1, "row": row},
            {"op": "update", "table": "events", "rowid": 1,
             "changes": {"value": 2.0, "payload": b"\x01"}},
        ])
        assert calls == []
        assert follower.table("events").row(1) == {**row, "value": 2.0,
                                                   "payload": b"\x01"}

    def test_journal_bytes_are_what_the_value_walk_wrote(self, tmp_path):
        db = Database(path=tmp_path / "db", name="bytes")
        db.create_table(_events_schema())
        ddl = (tmp_path / "db" / "journal.jsonl").read_text(encoding="utf-8")
        batches = []
        db.add_commit_listener(lambda tx_id, redo: batches.append((tx_id, list(redo))))
        tx = db.begin()
        for row in _mixed_rows(9):
            db.execute(Insert("events", row), tx=tx)
        db.commit(tx)
        db.execute(Update("events", {"payload": b"\xff\x00", "label": "Zürich ☀",
                                     "flag": None, "value": 1},
                          where=Comparison("id", "<", 3)))
        db.execute("DELETE FROM events WHERE id = 4")
        db.apply_redo([{"op": "insert", "table": "events", "rowid": 40,
                        "row": {**_mixed_rows(2)[1], "id": 40}}], tx_id=7, lsn=3)
        expected = ddl + "".join(oracle.journal_line(tx_id, redo)
                                 for tx_id, redo in batches)
        expected += oracle.journal_line(7, [
            {"op": "insert", "table": "events", "rowid": 40,
             "row": {**_mixed_rows(2)[1], "id": 40}},
            {"op": "__repl_ack__", "lsn": 3}])
        assert len(batches) == 3
        assert (tmp_path / "db" / "journal.jsonl").read_bytes() == expected.encode("utf-8")
        rows = db.execute(Select("events", order_by=[("id", "asc")]))
        db.close()
        reopened = Database(path=tmp_path / "db", name="bytes")
        assert repr(reopened.execute(Select("events", order_by=[("id", "asc")]))) \
            == repr(rows)
        reopened.close()

    def test_range_checksum_payload_is_what_the_value_walk_wrote(self):
        db = Database(name="bytes")
        db.create_table(_events_schema())
        for row in _mixed_rows(9):
            db.execute(Insert("events", {**row, "value": 0.5}))
        table = db.table("events")
        rows = sorted((rowid, oracle._encode_row(table.row(rowid)))
                      for rowid in table.rowids())
        assert _range_payload(table, 1, None) == json.dumps(
            rows, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def test_the_journal_refuses_what_is_neither_json_nor_a_blob(self, tmp_path):
        """The hook the C encoder calls back encodes ``bytes`` only; a
        record nobody normalised fails as it did, before anything is
        written."""
        db = Database(path=tmp_path / "db", name="bytes")
        db.create_table(_events_schema())
        before = (tmp_path / "db" / "journal.jsonl").read_bytes()
        for value in (dt.datetime(2002, 1, 1), bytearray(b"x"), {1, 2}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                db._journal.append_transaction(1, [
                    {"op": "update", "table": "events", "rowid": 1,
                     "changes": {"ts": value}}])
        assert (tmp_path / "db" / "journal.jsonl").read_bytes() == before
        db.close()
