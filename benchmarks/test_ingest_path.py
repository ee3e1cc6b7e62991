"""Ingest guard: a row is validated once on its way in.

Counts that repeat exactly, and one timing against the retired
normaliser (``tests/oracle_normalize.py``), so no recorded numbers:

* a plain ``Database`` calls ``normalize_row`` once per INSERT (it was
  twice: once for the foreign-key check, once inside ``Table.insert``);
* a callable default runs once per row, also behind a ``ShardedDatabase``
  of two shards with two copies each, broadcast or placed, and every copy
  stores the value that one call returned;
* ``Journal.append_transaction`` makes the same number of Python-level
  calls for 10 records as for 1 000: the C encoder walks the values;
* loading 5 000 ``hle`` + ``loc_tuples`` rows (what
  ``bench/datagen.py::load_catalogue`` does) is at least 1.5x faster than
  the same load with the retired normaliser patched in (1.7x when it was
  written; that one also ran once per row, so this is the plan walk
  alone, not the dropped second pass).

Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

import sys
import time

from conftest import min_per_call
from repro.metadb import (
    BROADCAST, Column, ColumnType, Database, Insert, Select, TableSchema, partitioned,
)
from repro.metadb.wal import Journal
from repro.schema import install_all
from repro.shard import ShardedDatabase
from tests import oracle_normalize as oracle

MIN_LOAD_SPEEDUP = 1.5
N_EVENTS = 2_500


def _seeded_rows(n_events: int) -> list[tuple[str, dict]]:
    rows = []
    for hle_id in range(1, n_events + 1):
        start = hle_id * 17.25
        rows.append(("hle", {
            "hle_id": hle_id, "item_id": f"hle:{hle_id}", "owner_id": 1,
            "public": hle_id % 10 != 0, "kind": "flare",
            "title": f"flare {hle_id} on day {start / 86_400:.3f}",
            "start_time": start, "end_time": start + 60.0,
            "peak_rate": 10.0 + hle_id / 7, "total_counts": 1_000 + hle_id,
            "mean_energy_kev": 12.5, "significance": 7.5, "n_analyses": 0}))
        rows.append(("loc_tuples", {"tuple_ref": f"tuple:hle:{hle_id}",
                                    "item_id": f"hle:{hle_id}", "table_name": "hle"}))
    return rows


def _load(rows) -> Database:
    database = Database(name="ingest")
    install_all(database)
    database.execute(Insert("admin_users", {"user_id": 1, "login": "bench",
                                            "password_hash": "x"}))
    tx = database.begin()
    for table, row in rows:
        database.execute(Insert(table, row), tx=tx)
    database.commit(tx)
    return database


def test_one_normalisation_per_insert(monkeypatch):
    calls = []
    inner = TableSchema.normalize_row
    monkeypatch.setattr(
        TableSchema, "normalize_row",
        lambda self, values, **kwargs: calls.append(self.name) or inner(self, values, **kwargs))
    rows = _seeded_rows(100)
    database = _load(rows)
    assert len(calls) == 1 + len(rows)          # the user row, then one each
    assert len(database.table("hle")) == 100


def _ticking_schema(name, default, placement=BROADCAST):
    return TableSchema(name, [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("at", ColumnType.REAL, nullable=False),
        Column("made", ColumnType.TIMESTAMP, default=default),
    ], primary_key="id", placement=placement)


def test_one_default_evaluation_per_row_on_every_build(tmp_path, monkeypatch):
    ticks: list[int] = []

    def tick() -> float:
        ticks.append(1)
        return float(len(ticks))

    plain = Database(name="plain")
    plain.create_table(_ticking_schema("placed", tick))
    for index in range(20):
        plain.execute(Insert("placed", {"id": index, "at": float(index)}))
    assert len(ticks) == 20

    # A sharded catalog hands every copy a schema rebuilt from its stored
    # form, where a TIMESTAMP's callable default comes back as whatever
    # ``time.time`` is at that moment: the counting clock, while the
    # tables are created, and nobody else's afterwards.
    sharded = ShardedDatabase(boundaries=(10.0,), path=tmp_path / "db",
                              name="ticks", replicas_per_shard=2)
    with monkeypatch.context() as patched:
        patched.setattr(time, "time", tick)
        sharded.create_table(_ticking_schema("placed", time.time, partitioned("at")))
        sharded.create_table(_ticking_schema("everywhere", time.time))
    del ticks[:]
    for index in range(20):
        sharded.execute(Insert("placed", {"id": index, "at": float(index)}))
        sharded.execute(Insert("everywhere", {"id": index, "at": float(index)}))
    assert len(ticks) == 40
    made = set()
    for spec in sharded.shard_map:
        group = sharded.shard_db(spec.shard_id)
        assert group.primary.table("placed").schema.normalize_row(
            {"id": 1, "at": 1.0})["made"] == len(ticks)     # this copy's clock counts
        assert group.verify() == {replica.name: {} for replica in group.replicas}
        assert len(group.replicas) == 1
        assert len(group.execute(Select("everywhere"))) == 20
        for table in ("placed", "everywhere"):
            made |= {row["made"] for row in group.execute(Select(table))}
    # Forty calls, forty values, the same on every copy of a row.
    assert made == {float(n) for n in range(1, 41)}
    sharded.close()


def _python_calls(fn, *args) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_the_journal_walks_no_value_in_python(tmp_path):
    journal = Journal(tmp_path / "wal")
    journal.append_transaction(0, [])           # open the handle, warm the metric
    table, row = _seeded_rows(1)[0]
    batches = {n: [{"op": "insert", "table": table, "rowid": rowid, "row": row}
                   for rowid in range(n)] for n in (10, 1_000)}
    few, many = (_python_calls(journal.append_transaction, 1, batches[n])
                 for n in (10, 1_000))
    assert few == many
    blob = [{"op": "update", "table": "t", "rowid": 1, "changes": {"payload": b"\x00"}}]
    # A BLOB calls back: the hook, and the b64encode inside it.
    assert _python_calls(journal.append_transaction, 2, blob) == few + 2
    journal.close()
    lines = (tmp_path / "wal" / "journal.jsonl").read_text().splitlines()
    assert lines[1] == oracle.journal_line(1, batches[10]).rstrip("\n")
    assert lines[3] == oracle.journal_line(2, blob).rstrip("\n")


def _stored(database: Database) -> list[str]:
    """Every seeded row as stored, exact types included, but for the one
    column the clock fills."""
    return [repr({key: value for key, value in row.items() if key != "created_at"})
            for table in ("hle", "loc_tuples") for row in database.execute(Select(table))]


def test_load_is_one_and_a_half_times_the_oracle_normalisers(monkeypatch):
    rows = _seeded_rows(N_EVENTS)
    stored = _stored(_load(rows))
    plan_s = min_per_call(_load, rows, calls=1, repeats=7)
    monkeypatch.setattr(TableSchema, "normalize_row", oracle.normalize_row)
    assert _stored(_load(rows)) == stored
    oracle_s = min_per_call(_load, rows, calls=1, repeats=7)
    speedup = oracle_s / plan_s
    print(f"\nload of {len(rows)} rows: compiled plan {plan_s * 1e3:.1f} ms, "
          f"oracle normaliser {oracle_s * 1e3:.1f} ms ({speedup:.2f}x, "
          f"floor {MIN_LOAD_SPEEDUP}x)")
    assert speedup >= MIN_LOAD_SPEEDUP
