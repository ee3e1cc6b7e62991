"""The embedded database facade.

:class:`Database` binds schemas, storage, the query engine, transactions
and WAL persistence together and is what the DM's database adapter talks
to.  It is thread-safe (one big lock — adequate for the embedded setting)
and keeps the operation counters the evaluation harness reports
("120 HEDC database queries per second", paper §7.3).
"""

from __future__ import annotations

import threading
import time
from itertools import compress
from pathlib import Path
from typing import Any, Optional, Union

from ..obs import Observability, resolve as resolve_obs
from ..resil.faults import fire as fire_fault
from .errors import ClosedError, IntegrityError, SchemaError, TransactionError
from .predicate import Predicate
from .query import (
    Delete,
    Explain,
    Insert,
    Plan,
    Select,
    Update,
    execute_select,
    index_rowids,
    plan_select,
    reusable_plan,
    split_where,
)
from .schema import TableSchema
from .sql import Batch, Statement, parse, predicate_sql, to_sql
from .storage import Table
from .transactions import Transaction, TxState
from .wal import Journal

#: Plans kept by statement shape; past this many the cache starts over.
PLAN_CACHE_SHAPES = 512


def _ddl_record(kind: str, **detail: Any) -> dict[str, Any]:
    """A schema change as a redo record: what the WAL journals, the
    commit listeners are told, and a replay or a follower applies."""
    return {"op": "__ddl__", "kind": kind, **detail}


class DatabaseStats:
    """Operation counters, reset-able between measurement windows."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.selects = 0
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.transactions_committed = 0
        self.transactions_rolled_back = 0
        self.rows_read = 0
        self.rows_written = 0

    def count(self, statement: Statement, result: Any) -> None:
        """One executed statement: a SELECT reads ``len(result)`` rows, an
        INSERT writes one, an UPDATE or DELETE ``result``; EXPLAIN
        counts nothing.  A batch of n SELECTs is this rule n times."""
        if isinstance(statement, Select):
            self.selects += 1
            self.rows_read += len(result)
        elif isinstance(statement, Insert):
            self.inserts += 1
            self.rows_written += 1
        elif isinstance(statement, Update):
            self.updates += 1
            self.rows_written += result
        elif isinstance(statement, Delete):
            self.deletes += 1
            self.rows_written += result

    @property
    def queries(self) -> int:
        """Total statements executed (the paper's 'database queries')."""
        return self.selects + self.inserts + self.updates + self.deletes

    def snapshot(self) -> dict[str, int]:
        return {
            "selects": self.selects,
            "inserts": self.inserts,
            "updates": self.updates,
            "deletes": self.deletes,
            "queries": self.queries,
            "transactions_committed": self.transactions_committed,
            "transactions_rolled_back": self.transactions_rolled_back,
            "rows_read": self.rows_read,
            "rows_written": self.rows_written,
        }


class Database:
    """An embedded relational database instance.

    ``path=None`` gives a volatile in-memory database; a path enables WAL
    persistence with snapshot/journal recovery on open.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, name: str = "metadb",
                 obs: Optional[Observability] = None, fault_scope: Optional[str] = None):
        self.name = name
        self._lock = threading.RLock()
        self._tables: dict[str, Table] = {}
        self._closed = False
        self._next_tx_id = 1
        self._sequences: dict[tuple[str, str], int] = {}
        self.stats = DatabaseStats()
        self.obs = resolve_obs(obs)
        # Per-access-path hit counters, cached so the hot SELECT path pays
        # one dict lookup instead of a registry lookup with fresh labels.
        self._plan_counters: dict[str, Any] = {}
        #: Select shape -> (table statistics, plan), for the plans no
        #: binding of the shape could change (``query.reusable_plan``).
        self._plans: dict[Any, tuple[Any, Plan]] = {}
        # Replication: listeners fired after each durable commit (the
        # log-shipping hook) and the highest LSN this copy has applied as
        # a follower.  The offset is recovered from the snapshot and the
        # ``__repl_ack__`` journal records so a crashed follower knows
        # where to resume.
        self._commit_listeners: list[Any] = []
        self.replication_offset = 0
        self._journal: Optional[Journal] = None
        if path is not None:
            self._journal = Journal(Path(path), obs=self.obs, fault_scope=fault_scope)
            self._recover()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise ClosedError(f"database {self.name!r} is closed")

    def _recover(self) -> None:
        """The snapshot, then the journal's records through the applier
        a follower uses (a superseded journal yields none)."""
        snapshot = self._journal.load_snapshot()
        if snapshot is not None:
            for table_data in snapshot["tables"].values():
                schema = TableSchema.from_dict(table_data["schema"])
                table = Table(schema)
                for rowid, row in sorted(table_data["rows"].items()):
                    table.restore(rowid, row)
                self._tables[schema.name] = table
            self.replication_offset = snapshot["replication_offset"]
        replayed = 0
        for record in self._journal.replay():
            replayed += 1
            self._apply_redo_record(record)
        # Recovery is not traffic: the counters start at zero.
        self.stats.reset()
        if snapshot is not None or replayed:
            self.obs.event(
                "info", "metadb", "wal.recovered",
                f"database {self.name!r} recovered from WAL",
                db=self.name, snapshot=snapshot is not None,
                records_replayed=replayed, tables=len(self._tables),
            )

    def checkpoint(self) -> None:
        """Write a snapshot, with the follower offset and the journal
        generation it starts, and truncate the journal."""
        with self._lock:
            self._require_open()
            if self._journal is None:
                return
            snapshot = {
                "tables": {
                    name: {
                        "schema": table.schema.to_dict(),
                        "rows": {rowid: table.row(rowid) for rowid in table.rowids()},
                    }
                    for name, table in self._tables.items()
                },
                "generation": self._journal.generation + 1,
                "replication_offset": self.replication_offset,
            }
            self._journal.checkpoint(snapshot)

    # -- DDL --------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            self._require_open()
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            for fk in schema.foreign_keys:
                if fk.ref_table != schema.name and fk.ref_table not in self._tables:
                    raise SchemaError(
                        f"foreign key references unknown table {fk.ref_table!r}"
                    )
            self._tables[schema.name] = Table(schema)
            self._publish(0, [_ddl_record("create_table", schema=schema.to_dict())])

    def drop_table(self, name: str) -> None:
        with self._lock:
            self._require_open()
            if name not in self._tables:
                raise SchemaError(f"unknown table {name!r}")
            for other in self._tables.values():
                if other.name == name:
                    continue
                for fk in other.schema.foreign_keys:
                    if fk.ref_table == name:
                        raise SchemaError(
                            f"cannot drop {name!r}: referenced by {other.name!r}"
                        )
            del self._tables[name]
            self._publish(0, [_ddl_record("drop_table", table=name)])

    def table(self, name: str) -> Table:
        with self._lock:
            self._require_open()
            if name not in self._tables:
                raise SchemaError(f"unknown table {name!r}")
            return self._tables[name]

    def table_names(self) -> list[str]:
        with self._lock:
            self._require_open()
            return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def holds(self, table: str, column: str, value: Any) -> bool:
        """True when some row of ``table`` has ``column == value``, read
        under the statement lock: a caller outside a statement (the shard
        router locating a key) never sees a row mid-update, while its
        index entries are removed and not yet re-inserted."""
        with self._lock:
            found = None if self._closed else self._tables.get(table)
            if found is None:
                self._require_open()
                raise SchemaError(f"unknown table {table!r}")
            return found.exists_value(column, value)

    # -- id allocation --------------------------------------------------------------

    def allocate_id(self, table: str, column: str) -> int:
        """Atomically allocate the next integer id for ``table.column``.

        Safe across every component sharing this database instance (the
        multi-DM-node configuration of §7.3): the counter is seeded from
        the column maximum once, then incremented under the database
        lock.
        """
        with self._lock:
            self._require_open()
            key = (table, column)
            if key not in self._sequences:
                current_max = 0
                for row in self.table(table).rows():
                    value = row.get(column)
                    if isinstance(value, int) and value > current_max:
                        current_max = value
                self._sequences[key] = current_max
            self._sequences[key] += 1
            return self._sequences[key]

    # -- transactions -------------------------------------------------------------

    def begin(self) -> Transaction:
        with self._lock:
            self._require_open()
            tx = Transaction(self._next_tx_id)
            self._next_tx_id += 1
            return tx

    def commit(self, tx: Transaction) -> None:
        with self._lock:
            self._require_open()
            tx.mark_committed()
            if tx.redo:
                self._publish(tx.tx_id, tx.redo)
            self.stats.transactions_committed += 1

    def _publish(self, tx_id: int, records: list[dict[str, Any]]) -> None:
        """Journal a committed batch (a schema change is one of its own,
        tx 0, as a follower journals it), then tell the commit listeners."""
        if self._journal is not None:
            self._journal.append_transaction(tx_id, records)
        for listener in self._commit_listeners:
            listener(tx_id, records)

    def add_commit_listener(self, listener: Any) -> None:
        """Register ``fn(tx_id, redo_records)`` called after each durable
        commit with a non-empty redo and after each CREATE or DROP TABLE
        (``tx_id`` 0) — the replication log-shipping hook.

        Fired under the database lock, after the WAL append: what the
        listener sees is exactly what recovery would replay.
        """
        with self._lock:
            self._commit_listeners.append(listener)

    # -- replication (follower side) ---------------------------------------------

    def apply_redo(self, records: list[dict[str, Any]], tx_id: int = 0,
                   lsn: Optional[int] = None) -> bool:
        """Apply shipped redo records — a replication follower's write path.

        Rows and changes arrive as final images carrying their
        primary-side rowids, so application bypasses normalization and FK
        checks (the primary already enforced both).  With ``lsn`` the
        batch is idempotent: a batch at or below
        :attr:`replication_offset` is a duplicate ship (a lost ack) and is
        skipped, and the offset advance is an ``__repl_ack__`` record
        journaled in the same WAL line as the batch, so a crash can never
        leave the ack ahead of the data or the data ahead of the ack.
        Returns ``True`` if the batch was applied, ``False`` if
        deduplicated.  An ``__repl_ack__`` record applied without ``lsn``
        forces the offset: a re-synced copy's is the log head.
        """
        with self._lock:
            self._require_open()
            if lsn is not None:
                if lsn <= self.replication_offset:
                    return False
                records = [*records, {"op": "__repl_ack__", "lsn": lsn}]
            for record in records:
                self._apply_redo_record(record)
            if self._journal is not None and records:
                self._journal.append_transaction(tx_id, records)
            return True

    def _apply_redo_record(self, record: dict[str, Any]) -> None:
        """Apply one committed record: what recovery replays, a follower
        is shipped and a repair clones all pass here."""
        operation = record["op"]
        if operation == "__repl_ack__":
            self.replication_offset = record["lsn"]
            return
        if operation == "__ddl__":
            if record["kind"] == "create_table":
                schema = TableSchema.from_dict(record["schema"])
                if schema.name not in self._tables:
                    self._tables[schema.name] = Table(schema)
            elif record["kind"] == "drop_table":
                self._tables.pop(record["table"], None)
            return
        table = self._tables[record["table"]]
        if operation == "insert":
            table.restore(record["rowid"], dict(record["row"]))
            self.stats.rows_written += 1
        elif operation == "update":
            table.update_row(record["rowid"], record["changes"])
            self.stats.rows_written += 1
        elif operation == "delete":
            table.delete(record["rowid"])
            self.stats.rows_written += 1
        else:
            raise SchemaError(f"cannot apply redo record {record!r}")

    def rollback(self, tx: Transaction) -> None:
        with self._lock:
            self._require_open()
            for entry in tx.undo_operations():
                operation, table_name = entry[0], entry[1]
                table = self._tables[table_name]
                if operation == "insert":
                    table.delete(entry[2])
                elif operation == "update":
                    rowid, old_row = entry[2], entry[3]
                    table.delete(rowid)
                    table.restore(rowid, old_row)
                elif operation == "delete":
                    table.restore(entry[2], entry[3])
            tx.mark_rolled_back()
            self.stats.transactions_rolled_back += 1

    # -- FK enforcement ------------------------------------------------------------

    def _check_fk_on_write(self, table: Table, row: dict[str, Any]) -> None:
        for fk in table.schema.foreign_keys:
            value = row.get(fk.column)
            if value is None:
                continue
            ref_table = self._tables.get(fk.ref_table)
            if ref_table is None or not ref_table.exists_value(fk.ref_column, value):
                raise IntegrityError(
                    f"foreign key violation: {table.name}.{fk.column}={value!r} "
                    f"has no match in {fk.ref_table}.{fk.ref_column}"
                )

    def _check_fk_on_delete(self, table: Table, row: dict[str, Any]) -> None:
        for other in self._tables.values():
            for fk in other.schema.foreign_keys:
                if fk.ref_table != table.name:
                    continue
                value = row.get(fk.ref_column)
                if value is None:
                    continue
                if other.exists_value(fk.column, value):
                    raise IntegrityError(
                        f"restrict violation: {other.name}.{fk.column} still "
                        f"references {table.name}.{fk.ref_column}={value!r}"
                    )

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        statement: Union[Statement, str],
        tx: Optional[Transaction] = None,
    ) -> Any:
        """Execute a collection-object statement or SQL text.

        SELECT returns a list of read-only row mappings (a ``SELECT *``
        row is a view of the stored row).  INSERT returns the new rowid.
        UPDATE/DELETE return the affected row count, EXPLAIN
        ``[explain_plan(...)]``.  Without ``tx`` the statement
        autocommits.
        """
        if isinstance(statement, str):
            statement = parse(statement)
        run = self._explain if isinstance(statement, Explain) else self._execute_statement
        obs = self.obs
        slow_threshold = obs.slowlog.threshold_for("metadb.execute")
        if not obs.enabled and slow_threshold is None:
            fire_fault("metadb.statement")
            return run(statement, tx)
        op = type(statement).__name__.lower()
        # The clock starts before fire_fault so injected stalls show up in
        # the slow log like any other slow statement would.
        started = time.perf_counter()
        with obs.span("metadb.execute", db=self.name, op=op, table=statement.table):
            fire_fault("metadb.statement")
            result = run(statement, tx)
            elapsed = time.perf_counter() - started
            if obs.enabled:
                obs.observe("metadb.query_s", elapsed, db=self.name, op=op)
            if slow_threshold is not None and elapsed >= slow_threshold:
                self._record_slow(statement, op, elapsed, slow_threshold)
        return result

    def execute_batch(
        self,
        statements: list[Union[Statement, str]],
        tx: Optional[Transaction] = None,
    ) -> list[Any]:
        """Execute several statements in one client round trip.

        The batch entry point the DM's page fetch uses (paper §7.2's
        seven-query page as one round trip): one lock acquisition covers
        the whole batch, so the results are a consistent snapshot, and a
        remote deployment pays one network round trip instead of
        ``len(statements)``.  Results come back in statement order, with
        each entry exactly what :meth:`execute` would have returned; a
        statement holding a :class:`~repro.metadb.predicate.Ref` is bound
        under that lock, in statement order, and is ``[]`` unexecuted
        when the row it names is not there.
        """
        if not statements:
            return []
        batch = Batch.of(statements)
        with self._lock:
            results = batch.run(lambda statement: self.execute(statement, tx=tx))
        obs = self.obs
        if obs.enabled:
            obs.count("metadb.batch.round_trips", db=self.name)
            obs.count("metadb.batch.statements", len(batch), db=self.name)
        return results

    def _record_slow(self, statement: Statement, op: str, elapsed_s: float,
                     threshold_s: float) -> None:
        """Attach the statement text — and, for SELECTs, the chosen access
        plan — to a slow-log entry so the operator sees *why* it was slow."""
        detail: dict[str, Any] = {"db": self.name, "op": op}
        try:
            detail["statement"] = to_sql(statement)
        except Exception:
            detail["statement"] = repr(statement)
        if isinstance(statement, (Select, Explain)):
            try:
                detail["plan"] = self.explain_plan(statement)
            except Exception:
                pass
        where = getattr(statement, "where", None)
        if where is not None:
            detail["predicate"] = str(where)
        self.obs.slow_op("metadb.execute", elapsed_s, threshold_s, **detail)

    def _count_access_path(self, plan: Plan) -> None:
        counter = self._plan_counters.get(plan.access)
        if counter is None:
            counter = self.obs.counter(
                "metadb.access_path", db=self.name, access=plan.access
            )
            self._plan_counters[plan.access] = counter
        counter.inc()

    def _execute_statement(self, statement: Statement, tx: Optional[Transaction]) -> Any:
        with self._lock:
            self._require_open()
            if tx is not None and tx.state is not TxState.ACTIVE:
                raise TransactionError("transaction is not active")
            if isinstance(statement, Select):
                table = self._tables.get(statement.table)
                if table is None:
                    raise SchemaError(f"unknown table {statement.table!r}")
                plan = self._cached_plan(table, statement)
                if plan is None:
                    plan = plan_select(table, statement)
                    if statement.shape is not None and reusable_plan(table, statement, plan):
                        if len(self._plans) >= PLAN_CACHE_SHAPES:
                            self._plans.clear()
                        self._plans[statement.shape] = (table.stats(), plan)
                self._count_access_path(plan)
                rows = execute_select(self._tables, statement, plan=plan)
                self.stats.count(statement, rows)
                return rows
            autocommit = tx is None
            local_tx = tx or self.begin()
            try:
                result = self._execute_mutation(statement, local_tx)
            except Exception:
                if autocommit:
                    self.rollback(local_tx)
                raise
            self.stats.count(statement, result)
            if autocommit:
                self.commit(local_tx)
            return result

    def _explain(self, statement: Explain, tx: Optional[Transaction]) -> list[dict[str, Any]]:
        return [self.explain_plan(statement)]

    @staticmethod
    def _target_rowids(table: Table, where: Optional[Predicate]) -> list[int]:
        """The rows an UPDATE or DELETE affects, in row-store order (the
        order the redo and undo logs record them in)."""
        if where is None:
            return list(table.rowids())
        found = index_rowids(table, where)
        if found is None:
            rowids = list(table.rowids())
        else:
            candidates, where = found
            # Only the row store knows its order; the walk costs a set
            # probe per row where the matcher would cost a row evaluation.
            rowids = [rowid for rowid in table.rowids() if rowid in candidates] \
                if len(candidates) > 1 else list(candidates)
        return list(compress(rowids, map(where.compile(), table.fetch(rowids))))

    def _execute_mutation(self, statement: Statement, tx: Transaction) -> Any:
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            row = table.schema.normalize_row(statement.values)
            self._check_fk_on_write(table, row)
            rowid = table.insert_row(row)
            tx.log_insert(table.name, rowid, row)
            return rowid
        if isinstance(statement, Update):
            table = self.table(statement.table)
            target_rowids = self._target_rowids(table, statement.where)
            changes = table.schema.normalize_row(statement.changes, for_update=True)
            for rowid in target_rowids:
                merged = {**table.row(rowid), **changes}
                self._check_fk_on_write(table, merged)
                old_row = table.update_row(rowid, changes)
                tx.log_update(table.name, rowid, old_row, changes)
            return len(target_rowids)
        if isinstance(statement, Delete):
            table = self.table(statement.table)
            target_rowids = self._target_rowids(table, statement.where)
            for rowid in target_rowids:
                self._check_fk_on_delete(table, table.row(rowid))
                old_row = table.delete(rowid)
                tx.log_delete(table.name, rowid, old_row)
            return len(target_rowids)
        raise SchemaError(f"cannot execute {statement!r}")

    def _cached_plan(self, table: Table, select: Select) -> Optional[Plan]:
        """The plan kept for ``select``'s shape while the table's statistics
        are the ones it was costed with (they refresh after ``max(1,
        rows/20)`` mutations; a table created again has new ones)."""
        cached = None if select.shape is None else self._plans.get(select.shape)
        return cached[1] if cached is not None and cached[0] is table.stats() else None

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]:
        """Full EXPLAIN output: access path, cardinality estimate against
        current table statistics, executor strategy flags
        (``limit_pushdown``, ``topn``), the conjuncts the access path
        enforces (``index_cond``) and those the filter still tests
        (``filter``), and whether the plan is one kept for the statement's
        shape (``cached_plan``)."""
        if isinstance(select, str):
            select = parse(select)
        if isinstance(select, Explain):
            select = select.select
        if not isinstance(select, Select):
            raise SchemaError("explain only applies to SELECT")
        with self._lock:
            table = self.table(select.table)
            cached = self._cached_plan(table, select)
            plan = cached or plan_select(table, select)
            _rowids, enforced, residual = split_where(table, select, plan)
            return {"table": select.table, **plan.to_dict(),
                    "index_cond": list(map(predicate_sql, enforced)),
                    "filter": list(map(predicate_sql, residual)),
                    "cached_plan": cached is not None}

    def describe(self) -> dict[str, Any]:
        """The data tier's report (see :class:`~repro.metadb.api.DatabaseApi`):
        one plain database has neither a shard nor a replication layer."""
        return {
            "kind": "database",
            "name": self.name,
            "stats": self.stats.snapshot(),
            "shard": None,
            "replication": None,
        }
