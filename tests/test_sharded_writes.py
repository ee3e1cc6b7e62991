"""The sharded write path: one routed write for INSERT, UPDATE and DELETE.

The retired per-kind bodies (``tests/oracle_writes.py``) are the
reference: over random sequences of writes to a table of every placement
kind, on one and four shards of one and two copies each, inside a
transaction and out, both must return the same values, raise the same
errors with the same messages, leave the same rows on the same shards
and move the same counters.  Then the one place they differ on purpose:
an UPDATE or DELETE whose key no shard holds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metadb import (
    LOCAL,
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    Delete,
    ForeignKey,
    Insert,
    Select,
    TableSchema,
    Update,
    follows,
    follows_item,
    partitioned,
)
from repro.shard import ShardedDatabase

from . import oracle_writes

SPAN = 40.0     # ``t`` runs over [0, SPAN); four shards cut it in quarters


def _schemas() -> list[TableSchema]:
    return [
        TableSchema("owners", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("t", ColumnType.REAL, nullable=False),
            Column("item", ColumnType.TEXT)],
            primary_key="id", indexes=[("t",)], item_key="item",
            placement=partitioned("t")),
        TableSchema("kids", [
            Column("kid_id", ColumnType.INTEGER, nullable=False),
            Column("owner_id", ColumnType.INTEGER),
            Column("note", ColumnType.TEXT)],
            primary_key="kid_id", indexes=[("owner_id",)],
            foreign_keys=[ForeignKey("owner_id", "owners", "id")],
            placement=follows("owner_id", "owners", "id")),
        TableSchema("files", [
            Column("file_id", ColumnType.INTEGER, nullable=False),
            Column("item", ColumnType.TEXT),
            Column("name", ColumnType.TEXT)],
            primary_key="file_id", indexes=[("item",)],
            placement=follows_item("item")),
        TableSchema("log", [
            Column("msg", ColumnType.TEXT),
            Column("n", ColumnType.INTEGER)],
            placement=LOCAL),
        TableSchema("tags", [
            Column("tag", ColumnType.TEXT, nullable=False),
            Column("n", ColumnType.INTEGER)],
            primary_key="tag"),
    ]


def _sharded(n_shards: int, copies: int) -> ShardedDatabase:
    step = SPAN / n_shards
    sharded = ShardedDatabase(
        boundaries=[step * index for index in range(1, n_shards)],
        name="w", replicas_per_shard=copies)
    for schema in _schemas():
        sharded.create_table(schema)
    return sharded


keys = st.integers(0, 6)
times = st.one_of(st.floats(0.0, SPAN - 1.0, allow_nan=False), st.integers(0, 39))
words = st.sampled_from(["a", "b", "c"])

writes = st.one_of(
    st.builds(lambda k, t: Insert("owners", {"id": k, "t": t, "item": f"i{k}"}),
              keys, times),
    st.builds(lambda j, k: Insert("kids", {"kid_id": j, "owner_id": k}),
              keys, st.one_of(st.none(), st.integers(0, 8))),
    st.builds(lambda j, k, w: Insert("files", {"file_id": j, "item": f"i{k}",
                                               "name": w}), keys, keys, words),
    st.builds(lambda w, n: Insert("log", {"msg": w, "n": n}), words, keys),
    st.builds(lambda w, n: Insert("tags", {"tag": w, "n": n}), words, keys),
    st.builds(lambda t, k: Update("owners", {"t": t}, Comparison("id", "=", k)),
              times, keys),
    st.builds(lambda k, w: Update("owners", {"item": w},
                                  Between("t", 0.0, float(k) * 6)), keys, words),
    st.builds(lambda k, j: Update("kids", {"owner_id": k},
                                  Comparison("kid_id", "=", j)), keys, keys),
    st.builds(lambda w, k: Update("kids", {"note": w},
                                  Comparison("owner_id", "=", k)), words, keys),
    st.builds(lambda w, k: Update("files", {"name": w},
                                  Comparison("item", "=", f"i{k}")), words, keys),
    st.builds(lambda n, w: Update("log", {"n": n}, Comparison("msg", "=", w)),
              keys, words),
    st.builds(lambda n, w: Update("tags", {"n": n}, Comparison("tag", "=", w)),
              keys, words),
    st.builds(lambda k: Delete("owners", Comparison("id", "=", k)), keys),
    st.builds(lambda k: Delete("kids", Comparison("owner_id", "=", k)), keys),
    st.builds(lambda k: Delete("files", Comparison("item", "=", f"i{k}")), keys),
    st.builds(lambda w: Delete("log", Comparison("msg", "=", w)), words),
    st.builds(lambda w: Delete("tags", Comparison("tag", "=", w)), words),
    st.builds(lambda: Delete("tags")),
)


def _run(statements, n_shards: int, copies: int, in_tx: bool):
    """What a stack answers to ``statements``, and what it is left as."""
    sharded = _sharded(n_shards, copies)
    tx = sharded.begin() if in_tx else None
    answers = []
    for statement in statements:
        try:
            answers.append(("ok", sharded.execute(statement, tx=tx)))
        except Exception as exc:  # the type and message are the answer
            answers.append((type(exc).__name__, str(exc)))
    if tx is not None:
        sharded.commit(tx)
    rows = {
        (spec.shard_id, schema.name): sorted(
            tuple(sorted(row.items())) for row in
            sharded.shard_db(spec.shard_id).execute(Select(schema.name)))
        for spec in sharded.shard_map for schema in _schemas()
    }
    return (answers, rows, dict(sharded.writes_by_shard),
            sharded.stats.snapshot())


@pytest.mark.parametrize("n_shards,copies", [(1, 1), (1, 2), (4, 1), (4, 2)])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(statements=st.lists(writes, min_size=1, max_size=30), in_tx=st.booleans())
def test_the_routed_write_is_the_retired_one(n_shards, copies, statements, in_tx):
    routed = _run(statements, n_shards, copies, in_tx)
    with oracle_writes.installed():
        retired = _run(statements, n_shards, copies, in_tx)
    assert routed == retired


def test_the_differential_sees_every_refusal_and_error():
    """The cases worth comparing, spelled out: a move and a re-parent
    refused, a duplicate key, an orphan and a restricted delete."""
    statements = [
        Insert("owners", {"id": 1, "t": 1.0, "item": "i1"}),
        Insert("owners", {"id": 2, "t": 35.0, "item": "i2"}),
        Insert("kids", {"kid_id": 1, "owner_id": 1}),
        Update("owners", {"t": 36.0}, Comparison("id", "=", 1)),
        Update("kids", {"owner_id": 2}, Comparison("kid_id", "=", 1)),
        Insert("owners", {"id": 1, "t": 2.0, "item": "i1"}),
        Insert("kids", {"kid_id": 2, "owner_id": 8}),
        Delete("owners", Comparison("id", "=", 1)),
    ]
    answers = _run(statements, 4, 2, False)[0]
    assert [kind for kind, _detail in answers] == [
        "ok", "ok", "ok", "ShardError", "ShardError", "IntegrityError",
        "IntegrityError", "IntegrityError"]
    assert answers[3][1] == ("update would move 'owners' rows out of shard 0 "
                             "[-inf, 10); cross-shard row migration requires "
                             "a split/rebalance")
    assert answers[4][1] == "update would re-parent 'kids' rows across shards"
    assert answers[6][1].startswith("foreign key violation: kids.owner_id=8")
    with oracle_writes.installed():
        assert _run(statements, 4, 2, False)[0] == answers


class TestAKeyNoShardHolds:
    """An UPDATE or DELETE whose key no shard holds affects 0 rows and
    reaches no shard; the retired path sent it to the first shard, which
    opened a write-free transaction part there."""

    def test_sends_nothing_and_opens_no_part(self):
        sharded = _sharded(4, 2)
        sharded.execute(Insert("owners", {"id": 1, "t": 25.0, "item": "i1"}))
        before = dict(sharded.writes_by_shard)
        tx = sharded.begin()
        assert sharded.execute(Delete("files", Comparison("item", "=", "i1")),
                               tx=tx) == 0
        assert sharded.execute(Update("kids", {"note": "x"},
                                      Comparison("owner_id", "=", 404)), tx=tx) == 0
        assert sharded.execute(Delete("owners", Comparison("id", "=", 404)),
                               tx=tx) == 0
        assert tx.parts == {}
        sharded.commit(tx)
        assert sharded.writes_by_shard == before
        assert sharded.stats.updates == 1 and sharded.stats.deletes == 2

    @pytest.mark.parametrize("changes", [{"nope": 1}, {"owner_id": "abc"},
                                         {"kid_id": None}])
    def test_an_update_is_still_checked_against_the_schema(self, changes):
        single = Database(name="one")
        for schema in _schemas():
            single.create_table(schema)
        statement = Update("kids", changes, Comparison("owner_id", "=", 404))
        with pytest.raises(Exception) as expected:
            single.execute(statement)
        with pytest.raises(type(expected.value)) as got:
            _sharded(4, 1).execute(statement)
        assert str(got.value) == str(expected.value)
