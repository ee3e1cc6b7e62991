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
)
from .schema import TableSchema
from .sql import Statement, parse, to_sql
from .storage import Table
from .transactions import Transaction, TxState
from .wal import Journal


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
        # metadb.columnar.* counters (segments scanned/pruned, rows
        # matched/gathered, rebuilds), same caching rationale.
        self._columnar_counters: dict[str, Any] = {}
        # Replication: listeners fired after each durable commit (the
        # log-shipping hook) and the highest LSN this copy has applied as
        # a follower.  The offset is recovered from ``__repl_ack__``
        # journal records so a crashed follower knows where to resume.
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
        snapshot = self._journal.load_snapshot()
        if snapshot is not None:
            for table_data in snapshot["tables"].values():
                schema = TableSchema.from_dict(table_data["schema"])
                table = Table(schema)
                for rowid, row in sorted(table_data["rows"].items()):
                    table.restore(rowid, row)
                self._tables[schema.name] = table
        replayed = 0
        for record in self._journal.replay():
            replayed += 1
            operation = record["op"]
            if operation == "__ddl__":
                if record["kind"] == "create_table":
                    schema = TableSchema.from_dict(record["schema"])
                    self._tables[schema.name] = Table(schema)
                elif record["kind"] == "drop_table":
                    self._tables.pop(record["table"], None)
                continue
            if operation == "__repl_ack__":
                # Follower bookkeeping: the batch journaled on this line
                # was shipped replication traffic; the ack is atomic with
                # the data it acknowledges.
                self.replication_offset = int(record.get("lsn", 0))
                continue
            table = self._tables[record["table"]]
            if operation == "insert":
                table.restore(record["rowid"], record["row"])
            elif operation == "update":
                # Normalising: a journal written before changes were logged
                # normalised carries the statement's raw ones.
                table.update(record["rowid"], record["changes"])
            elif operation == "delete":
                table.delete(record["rowid"])
        if snapshot is not None or replayed:
            self.obs.event(
                "info", "metadb", "wal.recovered",
                f"database {self.name!r} recovered from WAL",
                db=self.name, snapshot=snapshot is not None,
                records_replayed=replayed, tables=len(self._tables),
            )

    def checkpoint(self) -> None:
        """Write a snapshot and truncate the journal."""
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
                }
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
            if self._journal is not None:
                self._journal.append_ddl(
                    {"kind": "create_table", "schema": schema.to_dict()}
                )

    def declare_table(self, schema: TableSchema) -> None:
        with self._lock:
            table = self._tables.get(schema.name)
            if table is None:
                self.create_table(schema)
            else:
                table.schema.adopt_placement(schema)

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
            if self._journal is not None:
                self._journal.append_ddl({"kind": "drop_table", "table": name})

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
            return self.table(table).exists_value(column, value)

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
            if self._journal is not None and tx.redo:
                self._journal.append_transaction(tx.tx_id, tx.redo)
            self.stats.transactions_committed += 1
            if tx.redo and self._commit_listeners:
                for listener in self._commit_listeners:
                    listener(tx.tx_id, tx.redo)

    def add_commit_listener(self, listener: Any) -> None:
        """Register ``fn(tx_id, redo_records)`` called after each durable
        commit with a non-empty redo — the replication log-shipping hook.

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
        skipped, and the offset advance is journaled
        in the same WAL line as the batch, so a crash can never leave the
        ack ahead of the data or the data ahead of the ack.  Returns
        ``True`` if the batch was applied, ``False`` if deduplicated.
        """
        with self._lock:
            self._require_open()
            if lsn is not None and lsn <= self.replication_offset:
                return False
            for record in records:
                self._apply_redo_record(record)
            if lsn is not None:
                self.replication_offset = lsn
            if self._journal is not None:
                journaled = list(records)
                if lsn is not None:
                    journaled.append({"op": "__repl_ack__", "lsn": lsn})
                if journaled:
                    self._journal.append_transaction(tx_id, journaled)
            return True

    def set_replication_offset(self, lsn: int) -> None:
        """Force the follower offset (used when a copy is re-synced out of
        band, e.g. after anti-entropy repair or a cross-restart bootstrap,
        where the shipped-log LSNs restart)."""
        with self._lock:
            self._require_open()
            self.replication_offset = lsn
            if self._journal is not None:
                self._journal.append_transaction(0, [{"op": "__repl_ack__", "lsn": lsn}])

    def _apply_redo_record(self, record: dict[str, Any]) -> None:
        operation = record["op"]
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

        SELECT returns a list of row dicts.  INSERT returns the new rowid.
        UPDATE/DELETE return the affected row count.  Without ``tx`` the
        statement autocommits.
        """
        if isinstance(statement, str):
            statement = parse(statement)
        obs = self.obs
        slow_threshold = obs.slowlog.threshold_for("metadb.execute")
        if not obs.enabled and slow_threshold is None:
            fire_fault("metadb.statement")
            return self._execute_statement(statement, tx)
        op = type(statement).__name__.lower()
        # The clock starts before fire_fault so injected stalls show up in
        # the slow log like any other slow statement would.
        started = time.perf_counter()
        with obs.span("metadb.execute", db=self.name, op=op, table=statement.table):
            fire_fault("metadb.statement")
            result = self._execute_statement(statement, tx)
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
        seven-query page collapsed into grouped round trips): one lock
        acquisition covers the whole batch, so the results are a
        consistent snapshot, and a remote deployment pays one network
        round trip instead of ``len(statements)``.  Results come back in
        statement order, with each entry exactly what :meth:`execute`
        would have returned.
        """
        if not statements:
            return []
        with self._lock:
            results = [self.execute(statement, tx=tx) for statement in statements]
        obs = self.obs
        if obs.enabled:
            obs.count("metadb.batch.round_trips", db=self.name)
            obs.count("metadb.batch.statements", len(statements), db=self.name)
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

    def _count_columnar_scan(self, table: Table) -> None:
        """Publish the columnar store's last-scan statistics as
        ``metadb.columnar.*`` counters."""
        store = table._columnar_store
        last = store.last_scan if store is not None else None
        if last is None:
            return
        amounts = {
            "metadb.columnar.segments_scanned": last["segments_scanned"],
            "metadb.columnar.segments_pruned": last["segments_pruned"],
            "metadb.columnar.rows_matched": last["rows_matched"],
            "metadb.columnar.rows_gathered": last["rows_gathered"],
            "metadb.columnar.rebuilds": 1 if last["rebuilt"] else 0,
        }
        for name, amount in amounts.items():
            if not amount:
                continue
            counter = self._columnar_counters.get(name)
            if counter is None:
                counter = self.obs.counter(name, db=self.name)
                self._columnar_counters[name] = counter
            counter.inc(amount)

    def _execute_statement(self, statement: Statement, tx: Optional[Transaction]) -> Any:
        with self._lock:
            self._require_open()
            if tx is not None and tx.state is not TxState.ACTIVE:
                raise TransactionError("transaction is not active")
            if isinstance(statement, Explain):
                select = statement.select
                if select.table not in self._tables:
                    raise SchemaError(f"unknown table {select.table!r}")
                plan = plan_select(self._tables[select.table], select)
                return [{"table": select.table, **plan.to_dict()}]
            if isinstance(statement, Select):
                table = self._tables.get(statement.table)
                if table is None:
                    raise SchemaError(f"unknown table {statement.table!r}")
                plan = plan_select(table, statement)
                self._count_access_path(plan)
                rows = execute_select(self._tables, statement, plan=plan)
                if plan.access == "columnar_scan":
                    self._count_columnar_scan(table)
                self.stats.selects += 1
                self.stats.rows_read += len(rows)
                return rows
            autocommit = tx is None
            local_tx = tx or self.begin()
            try:
                result = self._execute_mutation(statement, local_tx)
            except Exception:
                if autocommit:
                    self.rollback(local_tx)
                raise
            if autocommit:
                self.commit(local_tx)
            return result

    @staticmethod
    def _target_rowids(table: Table, where: Optional[Predicate]) -> list[int]:
        """The rows an UPDATE or DELETE affects, in row-store order (the
        order the redo and undo logs record them in)."""
        if where is None:
            return list(table.rowids())
        candidates = index_rowids(table, where)
        if candidates is None:
            rowids = table.rowids()
        elif len(candidates) > 1:
            # Only the row store knows its order; the walk costs a set
            # probe per row where the matcher would cost a row evaluation.
            rowids = [rowid for rowid in table.rowids() if rowid in candidates]
        else:
            rowids = candidates
        matcher = where.compile()
        return [rowid for rowid in rowids if matcher(table.row(rowid))]

    def _execute_mutation(self, statement: Statement, tx: Transaction) -> Any:
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            row = table.schema.normalize_row(statement.values)
            self._check_fk_on_write(table, row)
            rowid = table.insert_row(row)
            tx.log_insert(table.name, rowid, row)
            self.stats.inserts += 1
            self.stats.rows_written += 1
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
            self.stats.updates += 1
            self.stats.rows_written += len(target_rowids)
            return len(target_rowids)
        if isinstance(statement, Delete):
            table = self.table(statement.table)
            target_rowids = self._target_rowids(table, statement.where)
            for rowid in target_rowids:
                self._check_fk_on_delete(table, table.row(rowid))
                old_row = table.delete(rowid)
                tx.log_delete(table.name, rowid, old_row)
            self.stats.deletes += 1
            self.stats.rows_written += len(target_rowids)
            return len(target_rowids)
        raise SchemaError(f"cannot execute {statement!r}")

    def explain(self, select: Union[Select, str]) -> str:
        """EXPLAIN: describe the access path the planner would choose."""
        return self.explain_plan(select)["description"]

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]:
        """Full EXPLAIN output: access path, cardinality estimate against
        current table statistics, and executor strategy flags
        (``limit_pushdown``, ``topn``)."""
        if isinstance(select, str):
            select = parse(select)
        if isinstance(select, Explain):
            select = select.select
        if not isinstance(select, Select):
            raise SchemaError("explain only applies to SELECT")
        with self._lock:
            table = self.table(select.table)
            return {"table": select.table, **plan_select(table, select).to_dict()}

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
