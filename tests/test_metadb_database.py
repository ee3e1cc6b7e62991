"""Tests for transactions, foreign keys, persistence and pooling."""

import threading

import pytest

from repro.metadb import (
    And,
    Between,
    ClosedError,
    Column,
    ColumnType,
    Comparison,
    ConnectionPool,
    Database,
    Delete,
    ForeignKey,
    In,
    Insert,
    IntegrityError,
    LockTimeout,
    PoolSet,
    Predicate,
    SchemaError,
    Select,
    TableSchema,
    Update,
)


def _parent_child(database: Database) -> None:
    database.create_table(
        TableSchema(
            "parent",
            [Column("parent_id", ColumnType.INTEGER, nullable=False),
             Column("name", ColumnType.TEXT)],
            primary_key="parent_id",
        )
    )
    database.create_table(
        TableSchema(
            "child",
            [Column("child_id", ColumnType.INTEGER, nullable=False),
             Column("parent_id", ColumnType.INTEGER)],
            primary_key="child_id",
            foreign_keys=[ForeignKey("parent_id", "parent", "parent_id")],
        )
    )


class TestDdl:
    def test_duplicate_table_rejected(self):
        database = Database()
        schema = TableSchema("t", [Column("a", ColumnType.INTEGER, nullable=False)],
                             primary_key="a")
        database.create_table(schema)
        with pytest.raises(SchemaError):
            database.create_table(schema)

    def test_fk_to_unknown_table_rejected(self):
        database = Database()
        with pytest.raises(SchemaError):
            database.create_table(
                TableSchema(
                    "child",
                    [Column("a", ColumnType.INTEGER, nullable=False)],
                    primary_key="a",
                    foreign_keys=[ForeignKey("a", "missing", "id")],
                )
            )

    def test_drop_referenced_table_rejected(self):
        database = Database()
        _parent_child(database)
        with pytest.raises(SchemaError):
            database.drop_table("parent")
        database.drop_table("child")
        database.drop_table("parent")
        assert database.table_names() == []

    def test_closed_database_refuses_work(self):
        database = Database()
        database.close()
        with pytest.raises(ClosedError):
            database.table_names()


class TestForeignKeys:
    def test_insert_requires_referenced_row(self):
        database = Database()
        _parent_child(database)
        with pytest.raises(IntegrityError):
            database.execute(Insert("child", {"child_id": 1, "parent_id": 99}))
        database.execute(Insert("parent", {"parent_id": 99}))
        database.execute(Insert("child", {"child_id": 1, "parent_id": 99}))

    def test_null_fk_allowed(self):
        database = Database()
        _parent_child(database)
        database.execute(Insert("child", {"child_id": 1, "parent_id": None}))

    def test_delete_restricted_while_referenced(self):
        database = Database()
        _parent_child(database)
        database.execute(Insert("parent", {"parent_id": 1}))
        database.execute(Insert("child", {"child_id": 1, "parent_id": 1}))
        with pytest.raises(IntegrityError):
            database.execute(Delete("parent", Comparison("parent_id", "=", 1)))
        database.execute(Delete("child"))
        database.execute(Delete("parent", Comparison("parent_id", "=", 1)))

    def test_update_to_dangling_fk_rejected(self):
        database = Database()
        _parent_child(database)
        database.execute(Insert("parent", {"parent_id": 1}))
        database.execute(Insert("child", {"child_id": 1, "parent_id": 1}))
        with pytest.raises(IntegrityError):
            database.execute(
                Update("child", {"parent_id": 42}, Comparison("child_id", "=", 1))
            )


class TestTransactions:
    def test_rollback_undoes_insert_update_delete(self):
        database = Database()
        _parent_child(database)
        database.execute(Insert("parent", {"parent_id": 1, "name": "before"}))
        tx = database.begin()
        database.execute(Insert("parent", {"parent_id": 2}), tx=tx)
        database.execute(
            Update("parent", {"name": "after"}, Comparison("parent_id", "=", 1)), tx=tx
        )
        database.execute(Delete("parent", Comparison("parent_id", "=", 2)), tx=tx)
        database.rollback(tx)
        rows = database.execute(Select("parent"))
        assert len(rows) == 1
        assert rows[0]["name"] == "before"

    def test_commit_makes_changes_durable_in_memory(self):
        database = Database()
        _parent_child(database)
        tx = database.begin()
        database.execute(Insert("parent", {"parent_id": 1}), tx=tx)
        database.commit(tx)
        assert len(database.execute(Select("parent"))) == 1

    def test_autocommit_failure_leaves_no_partial_state(self):
        database = Database()
        database.create_table(
            TableSchema(
                "t",
                [Column("a", ColumnType.INTEGER, nullable=False),
                 Column("b", ColumnType.INTEGER, nullable=False)],
                primary_key="a",
            )
        )
        with pytest.raises(IntegrityError):
            database.execute(Insert("t", {"a": 1, "b": None}))
        assert database.execute(Select("t")) == []
        assert database.stats.transactions_rolled_back == 1

    def test_committed_transaction_cannot_be_reused(self):
        from repro.metadb import TransactionError

        database = Database()
        _parent_child(database)
        tx = database.begin()
        database.commit(tx)
        with pytest.raises(TransactionError):
            database.execute(Insert("parent", {"parent_id": 1}), tx=tx)

    def test_unique_violation_rolls_back_insert_atomically(self):
        database = Database()
        database.create_table(
            TableSchema(
                "t",
                [Column("a", ColumnType.INTEGER, nullable=False),
                 Column("u", ColumnType.TEXT)],
                primary_key="a",
                unique=[("u",)],
            )
        )
        database.execute(Insert("t", {"a": 1, "u": "x"}))
        with pytest.raises(IntegrityError):
            database.execute(Insert("t", {"a": 2, "u": "x"}))
        # Index state intact: a new distinct value still inserts fine.
        database.execute(Insert("t", {"a": 2, "u": "y"}))
        assert len(database.execute(Select("t"))) == 2

    def test_stats_counters(self):
        database = Database()
        _parent_child(database)
        database.stats.reset()
        database.execute(Insert("parent", {"parent_id": 1}))
        database.execute(Select("parent"))
        database.execute(Update("parent", {"name": "n"}))
        database.execute(Delete("parent"))
        snapshot = database.stats.snapshot()
        assert snapshot["queries"] == 4
        assert snapshot["inserts"] == 1
        assert snapshot["updates"] == 1
        assert snapshot["deletes"] == 1


class _Counting(Predicate):
    """Matches every row and counts the rows it was shown; mentions no
    column, so the planner can hang no index on it."""

    def __init__(self) -> None:
        self.calls = 0

    def columns(self) -> set:
        return set()

    def compile(self):
        def match(row: dict) -> bool:
            self.calls += 1
            return True
        return match


def _big_table(n_rows: int = 5_000) -> Database:
    database = Database()
    database.create_table(TableSchema(
        "t",
        [Column("k", ColumnType.INTEGER, nullable=False),
         Column("v", ColumnType.INTEGER),
         Column("tag", ColumnType.TEXT)],
        primary_key="k",
        indexes=[("v",)],
    ))
    tx = database.begin()
    for key in range(n_rows):
        database.execute(Insert("t", {"k": key, "v": key % 97, "tag": f"t{key % 5}"}), tx=tx)
    database.commit(tx)
    # Out of rowid order, as after any rolled-back delete: row-store order
    # is what the redo log follows, not rowid order.
    tx = database.begin()
    database.execute(Delete("t", In("k", [40, 11, 4_000])), tx=tx)
    database.rollback(tx)
    return database


class TestMutationAccessPath:
    """UPDATE and DELETE find their rows through the index the planner
    would pick for the same WHERE, in the order the scan visits them."""

    def test_pk_equality_evaluates_the_predicate_on_one_row(self):
        database = _big_table()
        counting = _Counting()
        assert database.execute(
            Update("t", {"tag": "x"}, And([Comparison("k", "=", 1234), counting]))) == 1
        assert counting.calls == 1
        assert database.execute(
            Delete("t", And([Comparison("k", "=", 1234), counting]))) == 1
        assert counting.calls == 2
        assert database.execute(
            Delete("t", And([Comparison("k", "=", 1234), counting]))) == 0
        assert counting.calls == 2
        # Several candidates: still only the candidates are evaluated.
        assert database.execute(
            Update("t", {"tag": "y"}, And([In("k", [7, 9, 11]), counting]))) == 3
        assert counting.calls == 5
        assert database.execute(
            Delete("t", And([Comparison("v", "=", 5), counting]))) == 52
        assert counting.calls == 57
        # No index to go by: the full walk, as before.
        assert database.execute(Update("t", {"tag": "z"}, counting)) == 4_999 - 52
        assert counting.calls == 57 + 4_999 - 52

    @pytest.mark.parametrize("statement", [
        Update("t", {"tag": "x"}, Comparison("k", "=", 40)),
        Delete("t", Comparison("k", "=", 4_000)),
        Delete("t", Comparison("k", "=", 99_999)),
        Update("t", {"v": 3}, In("k", [4_000, 11, 12, 40, 4_999])),
        Delete("t", In("k", [4_000, 11, 12, 40, 4_999]) & Comparison("tag", "=", "t0")),
        Update("t", {"tag": "x"}, Between("v", 10, 12)),
        Delete("t", Comparison("v", ">=", 90) & Comparison("k", "<", 500)),
        Update("t", {"k": 11}, Between("v", 11, 12)),         # unique violation mid-way
        Update("t", {"tag": "x"}, Comparison("v", ">", "abc")),   # keys do not compare
        Delete("t", Comparison("k", "=", "40")),
        Update("t", {"tag": "x"}, Comparison("tag", "=", "t1")),  # no index
        Delete("t", None),
    ], ids=lambda statement: type(statement).__name__)
    def test_results_redo_and_rollback_match_the_scan(self, statement, monkeypatch):
        from repro.metadb import database as database_module

        def run(database: Database):
            tx = database.begin()
            try:
                result = database.execute(statement, tx=tx)
            except IntegrityError as exc:
                result = str(exc)
            redo = list(tx.redo)
            inside = database.execute(Select("t"))
            database.rollback(tx)
            return result, redo, inside, database.execute(Select("t"))

        indexed = run(_big_table())
        monkeypatch.setattr(database_module, "index_rowids", lambda table, where: None)
        scanned = run(_big_table())
        assert indexed == scanned


class TestPersistence:
    def _make(self, path) -> Database:
        database = Database(path)
        if not database.has_table("t"):
            database.create_table(
                TableSchema(
                    "t",
                    [Column("a", ColumnType.INTEGER, nullable=False),
                     Column("payload", ColumnType.BLOB),
                     Column("note", ColumnType.TEXT)],
                    primary_key="a",
                )
            )
        return database

    def test_journal_replay_restores_rows(self, tmp_path):
        database = self._make(tmp_path / "db")
        database.execute(Insert("t", {"a": 1, "note": "hello", "payload": b"\x01\x02"}))
        database.execute(Insert("t", {"a": 2, "note": "world"}))
        database.execute(Update("t", {"note": "updated"}, Comparison("a", "=", 1)))
        database.execute(Delete("t", Comparison("a", "=", 2)))
        database.close()

        reopened = Database(tmp_path / "db")
        rows = reopened.execute(Select("t"))
        assert len(rows) == 1
        assert rows[0]["note"] == "updated"
        assert rows[0]["payload"] == b"\x01\x02"

    def test_rolled_back_transaction_not_replayed(self, tmp_path):
        database = self._make(tmp_path / "db")
        tx = database.begin()
        database.execute(Insert("t", {"a": 5}), tx=tx)
        database.rollback(tx)
        database.close()
        reopened = Database(tmp_path / "db")
        assert reopened.execute(Select("t")) == []

    def test_checkpoint_then_more_changes(self, tmp_path):
        database = self._make(tmp_path / "db")
        database.execute(Insert("t", {"a": 1, "note": "snap"}))
        database.checkpoint()
        database.execute(Insert("t", {"a": 2, "note": "post-snap"}))
        database.close()
        reopened = Database(tmp_path / "db")
        notes = {row["a"]: row["note"] for row in reopened.execute(Select("t"))}
        assert notes == {1: "snap", 2: "post-snap"}

    def test_torn_journal_tail_ignored(self, tmp_path):
        database = self._make(tmp_path / "db")
        database.execute(Insert("t", {"a": 1}))
        database.close()
        journal = tmp_path / "db" / "journal.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"tx": 99, "records": [{"op": "insert", "table":')
        reopened = Database(tmp_path / "db")
        assert len(reopened.execute(Select("t"))) == 1

    def test_ddl_replayed(self, tmp_path):
        database = self._make(tmp_path / "db")
        database.close()
        reopened = Database(tmp_path / "db")
        assert reopened.has_table("t")

    def test_rowids_continue_after_recovery(self, tmp_path):
        database = self._make(tmp_path / "db")
        database.execute(Insert("t", {"a": 1}))
        database.close()
        reopened = Database(tmp_path / "db")
        reopened.execute(Insert("t", {"a": 2}))
        assert len(reopened.execute(Select("t"))) == 2


class TestConnectionPool:
    def test_acquire_release_reuses_connections(self):
        database = Database()
        pool = ConnectionPool(database, size=2)
        first = pool.acquire()
        pool.release(first)
        second = pool.acquire()
        assert second is first

    def test_pool_blocks_and_times_out_when_exhausted(self):
        database = Database()
        pool = ConnectionPool(database, size=1)
        pool.acquire()
        with pytest.raises(LockTimeout):
            pool.acquire(timeout=0.05)

    def test_release_unblocks_waiter(self):
        database = Database()
        pool = ConnectionPool(database, size=1)
        held = pool.acquire()
        got = []

        def waiter():
            got.append(pool.acquire(timeout=2.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        pool.release(held)
        thread.join(timeout=2.0)
        assert got and got[0] is held

    def test_context_manager(self):
        database = Database()
        _parent_child(database)
        pool = ConnectionPool(database, size=1)
        with pool as connection:
            connection.execute(Insert("parent", {"parent_id": 1}))
        assert pool.idle_count == 1

    def test_closed_pool_refuses(self):
        database = Database()
        pool = ConnectionPool(database, size=1)
        pool.close()
        with pytest.raises(ClosedError):
            pool.acquire()

    def test_poolset_has_three_pools(self):
        database = Database()
        pools = PoolSet(database)
        assert pools.queries.name == "queries"
        assert pools.updates.name == "updates"
        assert pools.auth.name == "auth"
        pools.close()

    def test_concurrent_executions_are_safe(self):
        database = Database()
        _parent_child(database)
        pool = ConnectionPool(database, size=4)
        errors = []

        def worker(base: int):
            try:
                for index in range(25):
                    connection = pool.acquire()
                    connection.execute(Insert("parent", {"parent_id": base + index}))
                    pool.release(connection)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(base * 1000,)) for base in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(database.execute(Select("parent"))) == 100
