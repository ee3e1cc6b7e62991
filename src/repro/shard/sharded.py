"""A partitioned catalog behind the single-database contract.

:class:`ShardedDatabase` owns one independent :class:`~repro.metadb.Database`
per time range (each with its own WAL when persistent), routes statements
through :mod:`repro.shard.router`, merges scatter-gather reads through
:mod:`repro.shard.merge`, and wraps every shard in the same
circuit-breaker/failover machinery :class:`~repro.repl.ReplicaGroup`
uses per copy — so a dead shard degrades *one time range* instead of the
whole catalog.  Because it satisfies
:class:`~repro.metadb.api.DatabaseApi`, the DM's I/O layer, pools and
semantic layers sit on top of it unchanged.

Degradation semantics: reads over a dead shard's range return a
:class:`PartialResult` (a ``list`` subclass carrying the missing ranges)
when ``degraded_reads`` is on; writes never degrade — a failed shard
write raises and the cross-shard transaction rolls back everywhere.

Concurrency: reads are never blocked.  Writes and ``begin()`` pass a
gate that an online split closes briefly during cutover
(:mod:`repro.shard.split`); topology is an immutable snapshot swapped
atomically, so in-flight readers keep a consistent view throughout.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..obs import Observability, resolve as resolve_obs
from ..resil.breaker import BreakerOpen, CircuitBreaker
from ..resil.faults import fire as fire_fault
from ..resil.policies import TRANSIENT_ERRORS
from ..metadb.database import Database, DatabaseStats
from ..metadb.errors import TransactionError
from ..metadb.query import (
    Aggregate, Delete, Explain, Insert, Select, Update,
)
from ..metadb.schema import TableSchema
from ..metadb.sql import Statement, parse
from .merge import prepare_scatter
from .partition import (
    HEDC_SHARD_CONFIG, ShardConfig, ShardError, ShardMap, ShardSpec,
    ShardUnavailable,
)
from .router import BROADCAST, PRUNED, RouteDecision, route_partitioned, scatter_all

TOPOLOGY_FILE = "topology.json"


class PartialResult(list):
    """A degraded read: rows from the shards that answered.

    Behaves as a plain result list; ``missing_shards`` names the time
    ranges the answer does *not* cover (aggregates are partial too).
    """

    def __init__(self, rows: Sequence[dict], missing: Sequence[ShardSpec]):
        super().__init__(rows)
        self.missing_shards = [
            {"shard_id": spec.shard_id, "low": spec.low, "high": spec.high}
            for spec in missing
        ]

    @property
    def complete(self) -> bool:
        return not self.missing_shards


class _Topology:
    """Immutable (map, databases) pair; swapped as one reference."""

    __slots__ = ("shard_map", "dbs")

    def __init__(self, shard_map: ShardMap, dbs: dict[int, Database]):
        self.shard_map = shard_map
        self.dbs = dbs

    def db(self, shard_id: int) -> Database:
        return self.dbs[shard_id]

    def first_db(self) -> Database:
        return self.dbs[self.shard_map.specs[0].shard_id]


class _ShardedTransaction:
    """One logical transaction fanned out as one part per shard."""

    def __init__(self, topology: _Topology, parts: dict[int, tuple]):
        self.topology = topology
        self.parts = parts  # shard_id -> (Database, Transaction)

    @property
    def state(self):
        return next(iter(self.parts.values()))[1].state


class ShardedDatabase:
    """Time-partitioned shards behind the standard database interface."""

    def __init__(
        self,
        boundaries: Sequence[float] = (),
        path: Optional[Union[str, Path]] = None,
        name: str = "metadb",
        obs: Optional[Observability] = None,
        config: Optional[ShardConfig] = None,
        breaker_cooldown_s: float = 5.0,
        degraded_reads: bool = True,
        replicas_per_shard: int = 1,
        replica_max_lag: int = 0,
    ):
        self.name = name
        self.obs = resolve_obs(obs)
        self._config = config if config is not None else HEDC_SHARD_CONFIG
        self._path = Path(path) if path is not None else None
        self.breaker_cooldown_s = breaker_cooldown_s
        self.degraded_reads = degraded_reads
        if replicas_per_shard < 1:
            raise ShardError("replicas_per_shard must be >= 1")
        self.replicas_per_shard = replicas_per_shard
        self.replica_max_lag = replica_max_lag
        self.stats = DatabaseStats()
        self.breakers: dict[int, CircuitBreaker] = {}
        # Write/begin gate an online split closes briefly during cutover.
        self._gate = threading.Condition(threading.Lock())
        self._stalled = False
        self._open_txs = 0
        self._autocommit_writes = 0
        self._split_lock = threading.Lock()
        self._seq_lock = threading.Lock()
        self._sequences: dict[tuple[str, str], int] = {}
        self._report_lock = threading.Lock()
        self._read_cursor = 0
        self.route_counts = {"pruned": 0, "scatter": 0, "broadcast": 0}
        self.reads_by_shard: dict[int, int] = {}
        self.writes_by_shard: dict[int, int] = {}
        self.degraded_count = 0
        self.splits = 0
        self._route_counters: dict[str, Any] = {}
        specs = self._load_or_create_specs(boundaries)
        dbs = {spec.shard_id: self._new_shard_db(spec.shard_id) for spec in specs}
        self._topology = _Topology(ShardMap(specs), dbs)
        self._persist_topology()
        self.obs.set_gauge("metadb.shard.count", len(specs), db=self.name)

    # -- topology -------------------------------------------------------------

    def _load_or_create_specs(self, boundaries: Sequence[float]) -> list[ShardSpec]:
        if self._path is not None:
            topo_path = self._path / TOPOLOGY_FILE
            if topo_path.exists():
                with open(topo_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                # The replica count is part of the persisted topology, so a
                # reopened catalog rebuilds the same replica groups.
                self.replicas_per_shard = payload.get(
                    "replicas_per_shard", self.replicas_per_shard
                )
                return [
                    ShardSpec(entry["id"], entry["low"], entry["high"])
                    for entry in payload["shards"]
                ]
        return list(ShardMap.from_boundaries(boundaries).specs)

    def _new_shard_db(self, shard_id: int) -> Database:
        shard_path = self._path / f"shard-{shard_id}" if self._path else None
        if self.replicas_per_shard > 1:
            # Local import: repro.repl must stay importable without the
            # shard tier (it is also used standalone), so the dependency
            # points this way only.
            from ..repl import ReplicaGroup

            return ReplicaGroup(
                path=shard_path,
                name=f"{self.name}-s{shard_id}",
                n_replicas=self.replicas_per_shard - 1,
                obs=self.obs,
                max_lag=self.replica_max_lag,
                breaker_cooldown_s=self.breaker_cooldown_s,
                fault_scope=f"metadb.shard.{shard_id}",
            )
        return Database(
            path=shard_path,
            name=f"{self.name}-s{shard_id}",
            obs=self.obs,
            fault_scope=f"metadb.shard.{shard_id}",
        )

    def _persist_topology(self) -> None:
        if self._path is None:
            return
        self._path.mkdir(parents=True, exist_ok=True)
        payload = {
            "shards": [
                {"id": spec.shard_id, "low": spec.low, "high": spec.high,
                 "dir": f"shard-{spec.shard_id}"}
                for spec in self._topology.shard_map
            ],
            "replicas_per_shard": self.replicas_per_shard,
        }
        tmp_path = self._path / (TOPOLOGY_FILE + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, self._path / TOPOLOGY_FILE)

    @property
    def n_shards(self) -> int:
        return len(self._topology.shard_map)

    @property
    def shard_map(self) -> ShardMap:
        return self._topology.shard_map

    def shard_db(self, shard_id: int) -> Database:
        """The shard's underlying database (tests and the split protocol)."""
        return self._topology.db(shard_id)

    def _breaker_for(self, shard_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(shard_id)
        if breaker is None:
            breaker = CircuitBreaker(
                name=f"metadb.shard.{self.name}-s{shard_id}",
                window=10,
                min_calls=3,
                failure_rate=0.5,
                cooldown_s=self.breaker_cooldown_s,
                obs=self.obs,
            )
            self.breakers[shard_id] = breaker
        return breaker

    # -- write/begin gate (closed briefly by an online split) -------------------

    @contextmanager
    def _write_permit(self):
        with self._gate:
            while self._stalled:
                self._gate.wait()
            self._autocommit_writes += 1
        try:
            yield
        finally:
            with self._gate:
                self._autocommit_writes -= 1
                self._gate.notify_all()

    # -- the DatabaseApi surface ---------------------------------------------------

    def has_table(self, name: str) -> bool:
        return self._topology.first_db().has_table(name)

    def table_names(self) -> list[str]:
        return self._topology.first_db().table_names()

    def table(self, name: str):
        """Direct table access — broadcast tables only.

        Partitioned/co-partitioned tables have no single local ``Table``;
        query them through ``execute()``.
        """
        if self._config.kind(name) != "broadcast":
            raise ShardError(
                f"table {name!r} is {self._config.kind(name)}; "
                "query it through execute()"
            )
        return self._topology.first_db().table(name)

    def create_table(self, schema: TableSchema) -> None:
        with self._write_permit():
            for spec in self._topology.shard_map:
                self._topology.db(spec.shard_id).create_table(
                    TableSchema.from_dict(schema.to_dict())
                )

    def drop_table(self, name: str) -> None:
        with self._write_permit():
            for spec in self._topology.shard_map:
                self._topology.db(spec.shard_id).drop_table(name)

    def allocate_id(self, table: str, column: str) -> int:
        """Globally unique ids: the counter seeds from the maximum across
        every shard, then increments under one lock."""
        with self._seq_lock:
            key = (table, column)
            if key not in self._sequences:
                topology = self._topology
                current_max = 0
                for spec in topology.shard_map:
                    for row in topology.db(spec.shard_id).table(table).rows():
                        value = row.get(column)
                        if isinstance(value, int) and value > current_max:
                            current_max = value
                self._sequences[key] = current_max
            self._sequences[key] += 1
            return self._sequences[key]

    def checkpoint(self) -> None:
        topology = self._topology
        for spec in topology.shard_map:
            topology.db(spec.shard_id).checkpoint()

    def close(self) -> None:
        topology = self._topology
        for spec in topology.shard_map:
            topology.db(spec.shard_id).close()

    # -- transactions -------------------------------------------------------------

    def begin(self) -> _ShardedTransaction:
        with self._gate:
            while self._stalled:
                self._gate.wait()
            self._open_txs += 1
        topology = self._topology
        return _ShardedTransaction(topology, self._make_parts(topology))

    def _make_parts(self, topology: _Topology) -> dict[int, tuple]:
        return {
            spec.shard_id: (topology.db(spec.shard_id),
                            topology.db(spec.shard_id).begin())
            for spec in topology.shard_map
        }

    def commit(self, tx: _ShardedTransaction) -> None:
        try:
            for db, part in tx.parts.values():
                db.commit(part)
            self.stats.transactions_committed += 1
        finally:
            with self._gate:
                self._open_txs -= 1
                self._gate.notify_all()

    def rollback(self, tx: _ShardedTransaction) -> None:
        try:
            for db, part in tx.parts.values():
                db.rollback(part)
            self.stats.transactions_rolled_back += 1
        finally:
            with self._gate:
                self._open_txs -= 1
                self._gate.notify_all()

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        statement: Union[Statement, str],
        tx: Optional[_ShardedTransaction] = None,
    ) -> Any:
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Explain):
            return [self.explain_plan(statement.select)]
        if tx is not None and not isinstance(tx, _ShardedTransaction):
            raise TransactionError(
                "a sharded database needs transactions from its own begin()"
            )
        if isinstance(statement, Select):
            return self._execute_select(statement, tx)
        if tx is not None:
            return self._execute_mutation(statement, tx)
        with self._write_permit():
            topology = self._topology
            local_tx = _ShardedTransaction(topology, self._make_parts(topology))
            try:
                result = self._execute_mutation(statement, local_tx)
            except Exception:
                for db, part in local_tx.parts.values():
                    db.rollback(part)
                self.stats.transactions_rolled_back += 1
                raise
            for db, part in local_tx.parts.values():
                db.commit(part)
            self.stats.transactions_committed += 1
            return result

    def execute_batch(
        self,
        statements: Sequence[Union[Statement, str]],
        tx: Optional[_ShardedTransaction] = None,
    ) -> list[Any]:
        """Statement by statement through :meth:`execute`: each one is
        routed, pruned and merged on its own."""
        return [self.execute(statement, tx=tx) for statement in statements]

    # -- reads ---------------------------------------------------------------------

    def _execute_select(self, select: Select,
                        tx: Optional[_ShardedTransaction]) -> list[dict[str, Any]]:
        """Route one read.  Inside a transaction every shard is handed
        its own part of ``tx``, so the read sees the transaction's
        uncommitted writes wherever they landed."""
        topology = tx.topology if tx is not None else self._topology
        config = self._config
        kind = config.kind(select.table)
        if select.join is not None:
            if not config.joinable(select.table, select.join.table):
                raise ShardError(
                    f"cannot join {select.table!r} with {select.join.table!r}: "
                    "tables are not co-located under the shard config"
                )
            if kind == "broadcast" and config.kind(select.join.table) != "broadcast":
                # Every shard holds the full broadcast side; the join's
                # partitioned side is disjoint across shards, so a scatter
                # concatenation is exactly the single-node join.
                return self._scatter_read(select, scatter_all(topology.shard_map),
                                          topology, tx)
        if kind == "broadcast":
            return self._broadcast_read(select, topology, tx)
        if kind == "partitioned":
            decision = route_partitioned(
                select.where, config.partition_column(select.table),
                topology.shard_map,
            )
        else:
            decision = scatter_all(topology.shard_map)
        return self._scatter_read(select, decision, topology, tx)

    def _broadcast_read(self, select: Select, topology: _Topology,
                        tx: Optional[_ShardedTransaction]) -> list[dict]:
        """Round-robin a broadcast-table read across shards with failover
        — broadcast tables multiply read capacity like replicas do."""
        specs = topology.shard_map.specs
        with self._report_lock:
            start = self._read_cursor
            self._read_cursor += 1
        self._count_route(BROADCAST, 1, len(specs))
        last_transient: Optional[BaseException] = None
        for offset in range(len(specs)):
            spec = specs[(start + offset) % len(specs)]
            breaker = self._breaker_for(spec.shard_id)
            if not breaker.allow():
                continue
            try:
                fire_fault(f"metadb.shard.{spec.shard_id}.statement")
                rows = topology.db(spec.shard_id).execute(
                    select,
                    tx=tx.parts[spec.shard_id][1] if tx is not None else None)
            except TRANSIENT_ERRORS as exc:
                breaker.record_failure()
                last_transient = exc
                self.obs.count("metadb.shard.failovers", db=self.name,
                               shard=str(spec.shard_id))
                continue
            breaker.record_success()
            with self._report_lock:
                self.stats.selects += 1
                self.stats.rows_read += len(rows)
                self.reads_by_shard[spec.shard_id] = (
                    self.reads_by_shard.get(spec.shard_id, 0) + 1
                )
            return rows
        if last_transient is not None:
            raise last_transient
        raise BreakerOpen(
            f"metadb.shard.{self.name}.reads",
            min(b.retry_after_s() for b in self.breakers.values()),
        )

    def _scatter_read(self, select: Select, decision: RouteDecision,
                      topology: _Topology,
                      tx: Optional[_ShardedTransaction]) -> list[dict]:
        self._count_route(decision.kind, len(decision.specs),
                          len(topology.shard_map))
        shard_select, merge = prepare_scatter(select)
        gathered: list[list[dict]] = []
        missing: list[ShardSpec] = []
        for spec in decision.specs:
            shard_id = spec.shard_id
            breaker = self._breaker_for(shard_id)
            if not breaker.allow():
                missing.append(spec)
                continue
            try:
                fire_fault(f"metadb.shard.{shard_id}.statement")
                rows = topology.db(shard_id).execute(
                    shard_select,
                    tx=tx.parts[shard_id][1] if tx is not None else None)
            except TRANSIENT_ERRORS:
                breaker.record_failure()
                missing.append(spec)
                self.obs.count("metadb.shard.failures", db=self.name,
                               shard=str(shard_id))
                continue
            breaker.record_success()
            gathered.append(rows)
            with self._report_lock:
                self.reads_by_shard[shard_id] = (
                    self.reads_by_shard.get(shard_id, 0) + 1
                )
        rows = merge(gathered)
        with self._report_lock:
            self.stats.selects += 1
            self.stats.rows_read += len(rows)
        if not missing:
            return rows
        if not self.degraded_reads:
            raise ShardUnavailable(
                f"{len(missing)} of {len(decision.specs)} targeted shards "
                f"unavailable for {select.table!r}",
                shard_ids=[spec.shard_id for spec in missing],
            )
        with self._report_lock:
            self.degraded_count += 1
        self.obs.count("metadb.shard.degraded", db=self.name)
        return PartialResult(rows, missing)

    def _count_route(self, kind: str, n_touched: int, n_total: int) -> None:
        with self._report_lock:
            self.route_counts[kind] = self.route_counts.get(kind, 0) + 1
        counter = self._route_counters.get(kind)
        if counter is None:
            counter = self.obs.counter("metadb.shard.route", db=self.name,
                                       route=kind)
            self._route_counters[kind] = counter
        counter.inc()
        self.obs.count("metadb.shard.shards_touched", n_touched, db=self.name)

    # -- writes --------------------------------------------------------------------

    def _execute_mutation(self, statement: Statement, tx: _ShardedTransaction) -> Any:
        if isinstance(statement, Insert):
            return self._execute_insert(statement, tx)
        if isinstance(statement, Update):
            return self._execute_update(statement, tx)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, tx)
        raise ShardError(f"cannot execute {statement!r}")

    def _exec_on_shard(self, tx: _ShardedTransaction, shard_id: int,
                       statement: Statement) -> Any:
        db, part = tx.parts[shard_id]
        fire_fault(f"metadb.shard.{shard_id}.statement")
        result = db.execute(statement, tx=part)
        with self._report_lock:
            self.writes_by_shard[shard_id] = (
                self.writes_by_shard.get(shard_id, 0) + 1
            )
        return result

    def _normalized_row(self, tx: _ShardedTransaction, table: str,
                        values: dict[str, Any]) -> dict[str, Any]:
        # Materialise callable defaults (e.g. created_at) ONCE so broadcast
        # copies store identical rows and routing sees the final values.
        schema = tx.topology.first_db().table(table).schema
        return schema.normalize_row(values)

    def _parent_shard(self, tx: _ShardedTransaction, parent_table: str,
                      parent_column: str, value: Any) -> int:
        topology = tx.topology
        for spec in topology.shard_map:
            table = topology.db(spec.shard_id).table(parent_table)
            if table.exists_value(parent_column, value):
                return spec.shard_id
        # No parent anywhere: route to the first shard so the per-shard
        # foreign-key check raises the normal IntegrityError.
        return topology.shard_map.specs[0].shard_id

    def _execute_insert(self, statement: Insert, tx: _ShardedTransaction) -> int:
        table = statement.table
        kind = self._config.kind(table)
        row = self._normalized_row(tx, table, statement.values)
        routed = Insert(table, row)
        if kind == "broadcast":
            result = None
            for spec in tx.topology.shard_map:
                rowid = self._exec_on_shard(tx, spec.shard_id, routed)
                result = rowid if result is None else result
            self.stats.inserts += 1
            self.stats.rows_written += 1
            return result
        if kind == "partitioned":
            column = self._config.partition_column(table)
            value = row.get(column)
            if value is None:
                # NOT NULL will reject it with the proper IntegrityError.
                shard_id = tx.topology.shard_map.specs[0].shard_id
            else:
                shard_id = tx.topology.shard_map.spec_for_value(value).shard_id
        else:
            co = self._config.co_partitioned[table]
            shard_id = self._parent_shard(
                tx, co.parent_table, co.parent_column, row.get(co.fk_column)
            )
        result = self._exec_on_shard(tx, shard_id, routed)
        self.stats.inserts += 1
        self.stats.rows_written += 1
        return result

    def _count_matching(self, tx: _ShardedTransaction, shard_id: int,
                        table: str, where) -> int:
        db, part = tx.parts[shard_id]
        rows = db.execute(Select(table, where=where,
                                 aggregates=[Aggregate("count", "*", "n")]),
                          tx=part)
        return rows[0]["n"]

    def _execute_update(self, statement: Update, tx: _ShardedTransaction) -> int:
        table = statement.table
        kind = self._config.kind(table)
        topology = tx.topology
        if kind == "broadcast":
            result = None
            for spec in topology.shard_map:
                count = self._exec_on_shard(tx, spec.shard_id, statement)
                result = count if result is None else result
            self.stats.updates += 1
            self.stats.rows_written += int(result or 0)
            return int(result or 0)
        if kind == "partitioned":
            column = self._config.partition_column(table)
            decision = route_partitioned(statement.where, column,
                                         topology.shard_map)
            new_value = statement.changes.get(column)
            total = 0
            for spec in decision.specs:
                if column in statement.changes and not spec.covers(new_value):
                    if self._count_matching(tx, spec.shard_id, table,
                                            statement.where):
                        raise ShardError(
                            f"update would move {table!r} rows out of "
                            f"{spec.describe()}; cross-shard row migration "
                            "requires a split/rebalance"
                        )
                    continue
                total += self._exec_on_shard(tx, spec.shard_id, statement)
            self.stats.updates += 1
            self.stats.rows_written += total
            return total
        co = self._config.co_partitioned[table]
        if co.fk_column in statement.changes:
            home = self._parent_shard(tx, co.parent_table, co.parent_column,
                                      statement.changes[co.fk_column])
            total = 0
            for spec in topology.shard_map:
                if spec.shard_id == home:
                    total += self._exec_on_shard(tx, spec.shard_id, statement)
                elif self._count_matching(tx, spec.shard_id, table,
                                          statement.where):
                    raise ShardError(
                        f"update would re-parent {table!r} rows across shards"
                    )
            self.stats.updates += 1
            self.stats.rows_written += total
            return total
        total = 0
        for spec in topology.shard_map:
            total += self._exec_on_shard(tx, spec.shard_id, statement)
        self.stats.updates += 1
        self.stats.rows_written += total
        return total

    def _execute_delete(self, statement: Delete, tx: _ShardedTransaction) -> int:
        table = statement.table
        kind = self._config.kind(table)
        topology = tx.topology
        if kind == "broadcast":
            result = None
            for spec in topology.shard_map:
                count = self._exec_on_shard(tx, spec.shard_id, statement)
                result = count if result is None else result
            self.stats.deletes += 1
            self.stats.rows_written += int(result or 0)
            return int(result or 0)
        if kind == "partitioned":
            column = self._config.partition_column(table)
            decision = route_partitioned(statement.where, column,
                                         topology.shard_map)
            specs = decision.specs
        else:
            specs = topology.shard_map.specs
        total = 0
        for spec in specs:
            total += self._exec_on_shard(tx, spec.shard_id, statement)
        self.stats.deletes += 1
        self.stats.rows_written += total
        return total

    # -- EXPLAIN -------------------------------------------------------------------

    def explain(self, select) -> str:
        plan = self.explain_plan(select)
        route = plan["shard_route"]
        return (
            f"{plan['description']} over {len(route['shards'])}/"
            f"{route['n_shards']} shards ({route['kind']})"
        )

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]:
        """Single-node EXPLAIN of the per-shard plan plus a ``shard_route``
        section: which shards the router would touch and why."""
        if isinstance(select, str):
            select = parse(select)
        if isinstance(select, Explain):
            select = select.select
        topology = self._topology
        config = self._config
        kind = config.kind(select.table)
        if kind == "broadcast" and (
            select.join is None or config.kind(select.join.table) == "broadcast"
        ):
            decision = RouteDecision(BROADCAST, topology.shard_map.specs[:1])
            shard_select = select
        else:
            if kind == "partitioned":
                decision = route_partitioned(
                    select.where, config.partition_column(select.table),
                    topology.shard_map,
                )
            else:
                decision = scatter_all(topology.shard_map)
            shard_select, _merge = prepare_scatter(select)
        if decision.specs:
            representative = topology.db(decision.specs[0].shard_id)
        else:
            representative = topology.first_db()
        plan = representative.explain_plan(shard_select)
        plan["shard_route"] = {
            "kind": decision.kind,
            "shards": list(decision.shard_ids),
            "n_shards": len(topology.shard_map),
            "pruned": decision.kind == PRUNED,
        }
        return plan

    # -- topology changes ----------------------------------------------------------

    def split(self, shard_id: int, at: float) -> tuple[int, int]:
        """Online split: see :func:`repro.shard.split.split_shard`."""
        from .split import split_shard

        return split_shard(self, shard_id, at)

    def rebalance(self, table: Optional[str] = None) -> Optional[tuple[int, int]]:
        """Split the most loaded shard at its median partition value."""
        from .split import rebalance

        return rebalance(self, table)

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        shard = self.shard_report()
        return {
            "kind": "sharded",
            "name": self.name,
            "stats": self.stats.snapshot(),
            "shard": shard,
            "replication": self._replication_of(shard),
        }

    def shard_report(self) -> dict[str, Any]:
        """Topology, placement config, routing and per-shard health —
        the ``shard`` section of :meth:`describe`."""
        topology = self._topology
        data_tables = sorted(
            list(self._config.partitioned) + list(self._config.co_partitioned)
        )
        shards = []
        for spec in topology.shard_map:
            db = topology.db(spec.shard_id)
            rows = {
                table: len(db.table(table))
                for table in data_tables if db.has_table(table)
            }
            breaker = self.breakers.get(spec.shard_id)
            entry = {
                "shard_id": spec.shard_id,
                "low": spec.low,
                "high": spec.high,
                "db": db.name,
                "rows": rows,
                "total_rows": sum(rows.values()),
                "breaker": breaker.state.value if breaker is not None else "closed",
                "reads": self.reads_by_shard.get(spec.shard_id, 0),
                "writes": self.writes_by_shard.get(spec.shard_id, 0),
            }
            replication = db.describe()["replication"]
            if replication is not None:
                entry["replicas"] = replication
            shards.append(entry)
        return {
            "n_shards": len(topology.shard_map),
            "replicas_per_shard": self.replicas_per_shard,
            "partitioned": dict(self._config.partitioned),
            "co_partitioned": {
                child: co.parent_table
                for child, co in self._config.co_partitioned.items()
            },
            "routes": dict(self.route_counts),
            "degraded_reads": self.degraded_count,
            "splits": self.splits,
            "shards": shards,
        }

    def repl_report(self) -> Optional[dict[str, Any]]:
        """Per-shard replica topology when ``replicas_per_shard > 1`` —
        the ``replication`` section of :meth:`describe`."""
        return self._replication_of(self.shard_report())

    def _replication_of(self, shard: dict[str, Any]) -> Optional[dict[str, Any]]:
        """The ``replication`` section, placed from the replica reports a
        shard report already carries: each group reports once."""
        if self.replicas_per_shard <= 1:
            return None
        return {
            "replicas_per_shard": self.replicas_per_shard,
            "max_lag": self.replica_max_lag,
            "per_shard": {
                entry["shard_id"]: entry["replicas"] for entry in shard["shards"]
            },
        }
