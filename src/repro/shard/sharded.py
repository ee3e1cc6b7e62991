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

Placement: where a table's rows go is declared on its
:class:`~repro.metadb.schema.TableSchema` and read from the schemas
``create_table`` is handed, which every shard stores; a directory
reopened with no schema handed over routes from those.

Routing: one function (:meth:`ShardedDatabase._route`) names the shards
a statement touches, by partition column, by key or by item, and reads,
writes and EXPLAIN all act on its decision.  A statement that names one
shard is handed to it as written; a transaction opens a shard's part
when it first runs a statement there.

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
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..obs import Observability, resolve as resolve_obs
from ..resil.breaker import BreakerOpen, BreakerState, CircuitBreaker
from ..resil.faults import fire as fire_fault
from ..resil.policies import TRANSIENT_ERRORS
from ..metadb.database import Database, DatabaseStats
from ..metadb.errors import TransactionError
from ..metadb.predicate import Comparison, Predicate, conjuncts
from ..metadb.query import (
    Aggregate, Delete, Explain, Insert, Join, Select, Update,
)
from ..metadb.schema import BROADCAST as EVERYWHERE, TableSchema
from ..metadb.sql import Statement, parse
from ..metadb.transactions import Transaction, TxState
from ..metadb.wal import counted_fsync, replace_durably
from .merge import prepare_scatter
from .partition import (
    ShardError, ShardMap, ShardSpec, ShardUnavailable, joinable,
)
from .router import (
    BROADCAST, BY_ITEM, BY_KEY, BY_LOCAL, BY_OWNER, PRUNED, RouteDecision,
    key_values, route_keyed, route_partitioned, scatter_all,
)

TOPOLOGY_FILE = "topology.json"

#: What ``topology.json`` says about where rows are: 1 when every table's
#: rows sit where its stored placement puts them.  A directory without it
#: was written when placement was compiled in and every table it did not
#: name was broadcast; see :meth:`ShardedDatabase._upgrade_placement`.
PLACEMENT_VERSION = 1


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
    """One logical transaction over the shards it touches.

    A shard's part opens when a statement first runs there, so commit
    and rollback walk only the shards the transaction used.  The state
    is the transaction's own: with no part open there is nowhere else
    to read it from.  ``last_written`` is the shard its latest write
    went to: where a row that may live anywhere is put, and the first
    shard asked when a row's item is looked for.
    """

    __slots__ = ("topology", "parts", "state", "last_written")

    def __init__(self, topology: _Topology):
        self.topology = topology
        self.parts: dict[int, tuple[Database, Transaction]] = {}
        self.state = TxState.ACTIVE
        self.last_written: Optional[int] = None

    def part(self, shard_id: int) -> tuple[Database, Transaction]:
        """The shard's database and this transaction's part on it."""
        entry = self.parts.get(shard_id)
        if entry is None:
            db = self.topology.db(shard_id)
            entry = self.parts[shard_id] = (db, db.begin())
        return entry

    def require_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionError(f"transaction is {self.state.value}")

    def commit(self) -> None:
        self.require_active()
        self.state = TxState.COMMITTED
        for db, part in self.parts.values():
            db.commit(part)

    def rollback(self) -> None:
        self.require_active()
        self.state = TxState.ROLLED_BACK
        for db, part in self.parts.values():
            db.rollback(part)


class _Read:
    """One statement of a read batch: the shards it targets (a broadcast
    read: the shards in the order it would try them) and, per shard read
    that answered, the rows and the shard."""

    __slots__ = ("select", "kind", "specs", "shard_select", "merge", "runs",
                 "answered", "missing")

    def __init__(self, select: Select, kind: str,
                 specs: tuple[ShardSpec, ...], shard_select: Select, merge):
        self.select, self.kind, self.specs = select, kind, specs
        self.shard_select, self.merge = shard_select, merge
        self.runs: list[list[dict]] = []
        self.answered: list[int] = []
        self.missing: list[ShardSpec] = []


class ShardedDatabase:
    """Time-partitioned shards behind the standard database interface."""

    #: Staleness contract of every shard's replica group, in committed
    #: transactions: 0 is read-your-writes from whichever copy answers.
    REPLICA_MAX_LAG = 0

    def __init__(
        self,
        boundaries: Sequence[float] = (),
        path: Optional[Union[str, Path]] = None,
        name: str = "metadb",
        obs: Optional[Observability] = None,
        breaker_cooldown_s: float = 5.0,
        degraded_reads: bool = True,
        replicas_per_shard: int = 1,
    ):
        self.name = name
        self.obs = resolve_obs(obs)
        self._path = Path(path) if path is not None else None
        self.breaker_cooldown_s = breaker_cooldown_s
        self.degraded_reads = degraded_reads
        if replicas_per_shard < 1:
            raise ShardError("replicas_per_shard must be >= 1")
        self.replicas_per_shard = replicas_per_shard
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
        self._held_last: Optional[int] = None
        self.route_counts = {"pruned": 0, "scatter": 0, "broadcast": 0}
        self.reads_by_shard: dict[int, int] = {}
        self.writes_by_shard: dict[int, int] = {}
        self.degraded_count = 0
        self.splits = 0
        self._route_counters: dict[str, Any] = {}
        self._placement_version = PLACEMENT_VERSION
        self._upgrade_due = False
        specs = self._load_or_create_specs(boundaries)
        dbs = {spec.shard_id: self._new_shard_db(spec.shard_id) for spec in specs}
        self._topology = _Topology(ShardMap(specs), dbs)
        self._read_schemas()
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
                self._placement_version = payload.get("placement_version", 0)
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
                max_lag=self.REPLICA_MAX_LAG,
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
            "placement_version": self._placement_version,
        }
        replace_durably(self._path / TOPOLOGY_FILE, [json.dumps(payload)],
                        lambda handle: counted_fsync(handle, self.obs))

    def _read_schemas(self) -> None:
        """Placement is read from the schemas the shards hold (every
        shard holds them all): what ``create_table`` was handed, or what
        a reopened directory persisted."""
        first = self._topology.first_db()
        self._schemas: dict[str, TableSchema] = {
            name: first.table(name).schema for name in first.table_names()}
        #: (table, column) of every table that declares the items it owns.
        self._item_owners = tuple(
            (name, schema.item_key) for name, schema in self._schemas.items()
            if schema.item_key is not None)

    def _placement(self, table: str):
        schema = self._schemas.get(table)
        return EVERYWHERE if schema is None else schema.placement

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

    @contextmanager
    def _writes_stalled(self):
        """Close the gate and wait for in-flight writes and open
        transactions to drain: what a topology change holds while it
        moves rows.  Reads keep flowing."""
        with self._gate:
            self._stalled = True
            while self._open_txs or self._autocommit_writes:
                self._gate.wait()
        try:
            yield
        finally:
            with self._gate:
                self._stalled = False
                self._gate.notify_all()

    # -- the DatabaseApi surface ---------------------------------------------------

    def has_table(self, name: str) -> bool:
        return self._topology.first_db().has_table(name)

    def table_names(self) -> list[str]:
        return self._topology.first_db().table_names()

    def table(self, name: str):
        """Direct table access — broadcast tables only.

        No one shard holds any other table whole; query those through
        ``execute()``.
        """
        placement = self._placement(name)
        if placement != EVERYWHERE:
            raise ShardError(
                f"table {name!r} is {placement.describe()}; "
                "query it through execute()"
            )
        return self._topology.first_db().table(name)

    def create_table(self, schema: TableSchema) -> None:
        self._ddl(lambda db: db.create_table(
            TableSchema.from_dict(schema.to_dict())))

    def declare_table(self, schema: TableSchema) -> None:
        """Create the table unless it exists.  In a directory written
        before placement was stored, a table that exists takes the
        declared placement on every copy, and the rows the old layout
        put on every shard are thinned out before the next statement
        (:meth:`_upgrade_placement`)."""
        if not self.has_table(schema.name):
            self.create_table(schema)
        elif self._placement_version < PLACEMENT_VERSION:
            self._ddl(lambda db: db.declare_table(schema))
            self._upgrade_due = True

    def drop_table(self, name: str) -> None:
        self._ddl(lambda db: db.drop_table(name))

    def _ddl(self, change) -> None:
        """One schema change on every shard, then placement re-read."""
        with self._write_permit():
            for spec in self._topology.shard_map:
                change(self._topology.db(spec.shard_id))
            self._read_schemas()

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
        if self._upgrade_due:
            self._upgrade_placement()
        with self._gate:
            while self._stalled:
                self._gate.wait()
            self._open_txs += 1
        return _ShardedTransaction(self._topology)

    def commit(self, tx: _ShardedTransaction) -> None:
        # Checked before the gate: a finished transaction has left it.
        tx.require_active()
        try:
            self._commit_parts(tx)
        finally:
            self._leave_gate()

    def rollback(self, tx: _ShardedTransaction) -> None:
        tx.require_active()
        try:
            self._rollback_parts(tx)
        finally:
            self._leave_gate()

    def _leave_gate(self) -> None:
        with self._gate:
            self._open_txs -= 1
            self._gate.notify_all()

    def _commit_parts(self, tx: _ShardedTransaction) -> None:
        tx.commit()
        self.stats.transactions_committed += 1

    def _rollback_parts(self, tx: _ShardedTransaction) -> None:
        tx.rollback()
        self.stats.transactions_rolled_back += 1

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        statement: Union[Statement, str],
        tx: Optional[_ShardedTransaction] = None,
    ) -> Any:
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Select):
            if tx is not None or self._upgrade_due:     # else nothing to check
                self._admit(tx)
            return self._read_batch((statement,), tx)[0]
        if isinstance(statement, Explain):
            return [self.explain_plan(statement.select)]
        self._admit(tx)
        if tx is not None:
            return self._execute_mutation(statement, tx)
        with self._write_permit():
            local_tx = _ShardedTransaction(self._topology)
            try:
                result = self._execute_mutation(statement, local_tx)
            except Exception:
                self._rollback_parts(local_tx)
                raise
            self._commit_parts(local_tx)
            return result

    def _admit(self, tx: Optional[_ShardedTransaction]) -> None:
        if self._upgrade_due and tx is None:
            self._upgrade_placement()
        if tx is not None:
            if not isinstance(tx, _ShardedTransaction):
                raise TransactionError(
                    "a sharded database needs transactions from its own begin()"
                )
            # No shard would notice: a part opens on demand.
            tx.require_active()

    def execute_batch(
        self,
        statements: Sequence[Union[Statement, str]],
        tx: Optional[_ShardedTransaction] = None,
    ) -> list[Any]:
        """A batch of reads is routed against one topology and reaches
        each shard it targets as one sub-batch (:meth:`_read_batch`).  A
        batch with a mutation in it runs in statement order, because
        order is what it means."""
        statements = [parse(statement) if isinstance(statement, str)
                      else statement for statement in statements]
        if not all(isinstance(statement, Select) for statement in statements):
            return [self.execute(statement, tx=tx) for statement in statements]
        self._admit(tx)
        return self._read_batch(statements, tx)

    # -- routing -------------------------------------------------------------------

    def _route(self, topology: _Topology, table: str,
               where: Optional[Predicate], join: Optional[Join] = None,
               writing: bool = False,
               placing: Optional[_ShardedTransaction] = None,
               probes: Optional[dict] = None) -> RouteDecision:
        """The shards a statement over ``table`` must touch: the one
        decision SELECT, UPDATE, DELETE, INSERT and EXPLAIN all act on.
        ``placing`` is the transaction of an INSERT (or of an UPDATE that
        rewrites the placing column), whose ``where`` pins that column to
        the row's value: the decision then names the one shard the row
        belongs on.

        A partitioned table prunes on its partition column, else on an
        equality or IN over its primary key; a table that follows a
        parent on the parent's key.  A table that follows its item is
        asked for on its own item column, on every shard that holds rows
        of the item, and placed where an item-owning table holds the
        item, the shard the transaction last wrote being asked first.
        Keys are located by probing the shards' own indexes, against the
        topology snapshot the statement holds.  A read does not probe a
        shard whose breaker is open; a write probes them all, because it
        must name every holder.  ``probes`` is what a batch of reads has
        been answered so far (same holder, same key: one answer); a read
        asks first the shard that held the key found last, a hint that
        is wrong at the cost of one more probe.
        """
        shard_map = topology.shard_map
        schema = self._schemas.get(table)
        placement = EVERYWHERE if schema is None else schema.placement
        kind = placement.kind
        other = self._schemas.get(join.table) if join is not None else None
        if other is not None and schema is not None \
                and not joinable(schema, other):
            raise ShardError(
                f"cannot join {table!r} with {join.table!r}: "
                "tables are not co-located under their placements"
            )
        if kind == "broadcast":
            if other is not None and other.placement != EVERYWHERE:
                # Every shard holds the full broadcast side; the join's
                # other side is disjoint across shards, so a scatter
                # concatenation is exactly the single-node join.  Not
                # the outer one: every shard would add the left rows
                # that have no match *there*.
                if join.outer:
                    raise ShardError(
                        f"cannot left-outer join broadcast {table!r} "
                        f"with {join.table!r}, which is spread over shards"
                    )
                return scatter_all(shard_map)
            return scatter_all(shard_map, BROADCAST)
        first = placing.last_written if placing is not None \
            else None if writing else self._held_last
        if kind == "local":
            if placing is None:
                return scatter_all(shard_map)
            return RouteDecision(
                PRUNED, (shard_map.specs[0] if first is None
                         else shard_map.spec(first),), BY_LOCAL)
        if len(shard_map) == 1:
            return scatter_all(shard_map)
        parts = conjuncts(where)
        by, every_holder = BY_KEY, False
        if kind == "partitioned":
            decision = route_partitioned(parts, placement.column, shard_map)
            if decision.kind == PRUNED:
                return decision
            # A partitioned table holds its own keys ...
            column = schema.primary_key
            holders = ((table, column),)
        elif kind == "follows":
            # ... a child lives where its parent's key does ...
            column = placement.column
            holders = ((placement.parent_table, placement.parent_column),)
        elif placing is not None:
            # ... a row of an item is put where the item's owner is ...
            column, holders, by = placement.column, self._item_owners, BY_OWNER
        else:
            # ... and looked for wherever rows of the item are.
            column = placement.column
            holders, by, every_holder = ((table, column),), BY_ITEM, True
        values = key_values(parts, column) if column is not None else None
        if values is None:
            return scatter_all(shard_map)

        dbs = topology.dbs

        def holds(spec: ShardSpec, value: Any) -> bool:
            db = dbs[spec.shard_id]
            return any(db.holds(holder, key, value) for holder, key in holders)

        if probes is not None:
            probe = holds

            def holds(spec: ShardSpec, value: Any) -> bool:
                asked = (holders, spec.shard_id, value)
                answer = probes.get(asked)
                if answer is None:
                    answer = probes[asked] = probe(spec, value)
                if answer:
                    self._held_last = spec.shard_id
                return answer

        return route_keyed(values, shard_map, holds,
                           () if writing else self._open_shards(),
                           by, every_holder, first)

    def _open_shards(self) -> list[int]:
        """Shards whose breaker rejects calls right now.  Reading the
        state takes the breaker's lock; one that never tripped is spared it."""
        return [shard_id for shard_id, breaker in list(self.breakers.items())
                if breaker.trips and breaker.state is BreakerState.OPEN]

    # -- reads ---------------------------------------------------------------------

    def _read_batch(self, selects: Sequence[Select],
                    tx: Optional[_ShardedTransaction]) -> list[list[dict]]:
        """Every read's path, the single ``execute`` as a batch of one.

        The batch is routed against one topology snapshot (inside a
        transaction, the transaction's), each shard it targets is sent
        its statements as one sub-batch, under its own part of ``tx`` if
        there is one, and each statement is then merged and accounted as
        if it had travelled alone.  A shard that cannot answer is missing
        from every statement that targeted it and from no other.  A
        broadcast read is any one shard's to answer: it joins the
        sub-batch of the shard the round-robin picks and moves on to the
        next if that one cannot.  There is no snapshot across shards.
        """
        topology = tx.topology if tx is not None else self._topology
        shard_map = topology.shard_map
        transient: list[BaseException] = []
        probes: dict = {}
        reads: list[_Read] = []
        asked: dict[int, list[_Read]] = {}
        for select in selects:
            decision = self._route(topology, select.table, select.where,
                                   select.join, probes=probes)
            kind, specs = decision.kind, decision.specs
            shard_select, merge, targets = select, None, specs
            if kind == BROADCAST:
                with self._report_lock:
                    start = self._read_cursor % len(specs)
                    self._read_cursor += 1
                specs = specs[start:] + specs[:start]
                targets = specs[:1]
            elif len(specs) > 1:
                shard_select, merge = prepare_scatter(select, len(specs))
            read = _Read(select, kind, specs, shard_select, merge)
            reads.append(read)
            for spec in targets:
                asked.setdefault(spec.shard_id, []).append(read)
        for spec in shard_map.specs:    # a statement's runs arrive in shard order
            group = asked.get(spec.shard_id)
            if group is None:
                continue
            runs = self._ask(topology, tx, spec, [
                read.shard_select for read in group], transient)
            if runs is None:
                for read in group:
                    read.missing.append(spec)
            else:
                for read, rows in zip(group, runs):
                    read.runs.append(rows)
                    read.answered.append(spec.shard_id)

        results = []
        shard_reads = self.reads_by_shard
        for read in reads:
            kind, runs, touched = read.kind, read.runs, len(read.specs)
            if kind == BROADCAST:
                for spec in read.specs[1:]:
                    if runs:
                        break
                    self.obs.count("metadb.shard.failovers", db=self.name,
                                   shard=str(spec.shard_id))
                    runs = self._ask(topology, tx, spec, [read.select], transient)
                    read.answered = [spec.shard_id]
                if not runs:
                    raise transient[-1] if transient else BreakerOpen(
                        f"metadb.shard.{self.name}.reads",
                        min(breaker.retry_after_s()
                            for breaker in self.breakers.values()))
                read.missing = ()
                rows, touched = runs[0], 1
            elif read.merge is None and runs:
                # One target that answers is the answer: the caller's
                # statement went to it as written and its rows come back
                # as they are.
                rows = runs[0]
            else:

                def ask_rest(index: int, rest: Select, read=read) -> list[dict]:
                    """A top-up is one more read of its shard; one that
                    fails leaves the shard missing from this statement."""
                    spec = shard_map.spec(read.answered[index])
                    more = self._ask(topology, tx, spec, [rest], transient)
                    if more is None:
                        read.missing.append(spec)
                        return []
                    read.answered.append(spec.shard_id)
                    return more[0]

                # The merge of nothing keeps the statement's shape (an
                # aggregate is one row).
                merge = read.merge or prepare_scatter(read.select)[1]
                rows = merge(runs, ask_rest)
            with self._report_lock:
                self.route_counts[kind] += 1
                for shard_id in read.answered:
                    shard_reads[shard_id] = shard_reads.get(shard_id, 0) + 1
                self.stats.selects += 1
                self.stats.rows_read += len(rows)
            self._count_route(kind, touched)
            missing = read.missing
            if missing:
                if not self.degraded_reads:
                    raise ShardUnavailable(
                        f"{len(missing)} of {len(read.specs)} targeted shards "
                        f"unavailable for {read.select.table!r}",
                        shard_ids=[spec.shard_id for spec in missing],
                    )
                with self._report_lock:
                    self.degraded_count += 1
                self.obs.count("metadb.shard.degraded", db=self.name)
                rows = PartialResult(rows, missing)
            results.append(rows)
        return results

    def _ask(self, topology: _Topology, tx: Optional[_ShardedTransaction],
             spec: ShardSpec, statements: list[Select],
             transient: list[BaseException]) -> Optional[list[list[dict]]]:
        """One sub-batch to one shard, behind its breaker: its result
        lists, or None when the shard cannot answer (a transient error
        is kept in ``transient``)."""
        shard_id = spec.shard_id
        breaker = self._breaker_for(shard_id)
        if not breaker.allow():
            return None
        try:
            for _statement in statements:
                fire_fault(f"metadb.shard.{shard_id}.statement")
            if tx is None:
                db, part = topology.dbs[shard_id], None
            else:
                db, part = tx.part(shard_id)
            if len(statements) == 1:
                runs = [db.execute(statements[0], part)]
            else:
                runs = db.execute_batch(statements, part)
        except TRANSIENT_ERRORS as exc:
            breaker.record_failure()
            transient.append(exc)
            self.obs.count("metadb.shard.failures", len(statements),
                           db=self.name, shard=str(shard_id))
            return None
        breaker.record_success()
        return runs

    def _count_route(self, kind: str, n_touched: int) -> None:
        """The obs side of one routed read (``route_counts`` moves under
        the lock the read takes anyway); both handles resolved once."""
        counters = self._route_counters.get(kind)
        if counters is None:
            counters = self._route_counters[kind] = (
                self.obs.counter("metadb.shard.route", db=self.name, route=kind),
                self.obs.counter("metadb.shard.shards_touched", db=self.name),
            )
        counters[0].inc()
        counters[1].inc(n_touched)

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
        db, part = tx.part(shard_id)
        fire_fault(f"metadb.shard.{shard_id}.statement")
        result = db.execute(statement, tx=part)
        tx.last_written = shard_id
        with self._report_lock:
            self.writes_by_shard[shard_id] = (
                self.writes_by_shard.get(shard_id, 0) + 1
            )
        return result

    def _home(self, tx: _ShardedTransaction, table: str, value: Any) -> int:
        """The one shard a row of a table that is not placed by a shard
        range lives on, given the value of its placing column (a local
        table has none).  A NULL or unknown parent or item lands on the
        first shard, whose own foreign-key check answers as a single
        node would."""
        column = self._placement(table).column
        where = None if column is None else Comparison(column, "=", value)
        return self._route(tx.topology, table, where, writing=True,
                           placing=tx).specs[0].shard_id

    def _execute_insert(self, statement: Insert, tx: _ShardedTransaction) -> int:
        table = statement.table
        shard_map = tx.topology.shard_map
        placement = self._placement(table)
        # Normalised here, before the shard that owns the row does it again
        # (a walk over values already of their stored types): routing needs
        # the placing column's final value, and the copies of a broadcast
        # row must share what a callable default (created_at) returned.
        schema = self._schemas.get(table)
        row = statement.values if schema is None \
            else schema.normalize_row(statement.values)
        routed = Insert(table, row)
        if placement.kind == "broadcast":
            result = None
            for spec in shard_map:
                rowid = self._exec_on_shard(tx, spec.shard_id, routed)
                result = rowid if result is None else result
        else:
            value = row.get(placement.column)
            if placement.kind != "partitioned":
                shard_id = self._home(tx, table, value)
            elif value is None:
                # NOT NULL will reject it with the proper IntegrityError.
                shard_id = shard_map.specs[0].shard_id
            else:
                shard_id = shard_map.spec_for_value(value).shard_id
            result = self._exec_on_shard(tx, shard_id, routed)
        self.stats.inserts += 1
        self.stats.rows_written += 1
        return result

    def _count_matching(self, tx: _ShardedTransaction, shard_id: int,
                        table: str, where) -> int:
        db, part = tx.part(shard_id)
        rows = db.execute(Select(table, where=where,
                                 aggregates=[Aggregate("count", "*", "n")]),
                          tx=part)
        return rows[0]["n"]

    def _execute_update(self, statement: Update, tx: _ShardedTransaction) -> int:
        table = statement.table
        changes = statement.changes
        topology = tx.topology
        decision = self._route(topology, table, statement.where, writing=True)
        # An update may not carry rows to another shard: when it rewrites
        # the column that places them, only the shard the new value
        # belongs on (``home``) may run it.
        home = refusal = None
        placement = self._placement(table)
        if placement.column in changes:
            value = changes[placement.column]
            if placement.kind == "partitioned":
                home = next((spec.shard_id for spec in topology.shard_map
                             if spec.covers(value)), None)
                refusal = ("update would move {table!r} rows out of {shard}; "
                           "cross-shard row migration requires a "
                           "split/rebalance")
            else:
                home = self._home(tx, table, value)
                refusal = "update would re-parent {table!r} rows across shards"
        counts = []
        for spec in decision.specs:
            if refusal is not None and spec.shard_id != home:
                if self._count_matching(tx, spec.shard_id, table,
                                        statement.where):
                    raise ShardError(
                        refusal.format(table=table, shard=spec.describe()))
                continue
            counts.append(self._exec_on_shard(tx, spec.shard_id, statement))
        total = self._rows_affected(decision, counts)
        self.stats.updates += 1
        self.stats.rows_written += total
        return total

    def _execute_delete(self, statement: Delete, tx: _ShardedTransaction) -> int:
        decision = self._route(tx.topology, statement.table, statement.where,
                               writing=True)
        total = self._rows_affected(decision, [
            self._exec_on_shard(tx, spec.shard_id, statement)
            for spec in decision.specs
        ])
        self.stats.deletes += 1
        self.stats.rows_written += total
        return total

    @staticmethod
    def _rows_affected(decision: RouteDecision, counts: list[int]) -> int:
        """Every copy of a broadcast table changes the same rows, so one
        copy's count is the statement's; disjoint shards add up."""
        if decision.kind == BROADCAST:
            return int(counts[0] or 0)
        return sum(counts)

    # -- EXPLAIN -------------------------------------------------------------------

    def explain(self, select) -> str:
        plan = self.explain_plan(select)
        route = plan["shard_route"]
        by = f" by {route['by']}" if route["by"] else ""
        return (
            f"{plan['description']} over {len(route['shards'])}/"
            f"{route['n_shards']} shards ({route['kind']}){by}"
        )

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]:
        """Single-node EXPLAIN of the per-shard plan plus a ``shard_route``
        section: which shards executing the statement now would touch,
        and what they were pruned by (from the same :meth:`_route`)."""
        if isinstance(select, str):
            select = parse(select)
        if isinstance(select, Explain):
            select = select.select
        topology = self._topology
        decision = self._route(topology, select.table, select.where, select.join)
        specs = decision.specs
        if decision.kind == BROADCAST:
            specs = specs[:1]
        # What a shard is handed: the statement as written when one shard
        # is asked, its scatter rewrite when several are.
        shard_select = select if len(specs) == 1 \
            else prepare_scatter(select, len(specs))[0]
        representative = topology.db(specs[0].shard_id) if specs \
            else topology.first_db()
        plan = representative.explain_plan(shard_select)
        plan["shard_route"] = {
            "kind": decision.kind,
            "shards": [spec.shard_id for spec in specs],
            "n_shards": len(topology.shard_map),
            "pruned": decision.kind == PRUNED,
            "by": decision.by,
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

    def _upgrade_placement(self) -> None:
        """Thin out what the pre-placement layout wrote to every shard:
        see :func:`repro.shard.split.upgrade_placement`."""
        from .split import upgrade_placement

        upgrade_placement(self)

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
        """Topology, each table's placement, routing and per-shard
        health with the rows of every non-broadcast table a shard holds
        — the ``shard`` section of :meth:`describe`."""
        topology = self._topology
        placements = {name: schema.placement
                      for name, schema in sorted(self._schemas.items())}
        data_tables = [name for name, placement in placements.items()
                       if placement != EVERYWHERE]
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
            "placement": {name: placement.describe()
                          for name, placement in placements.items()},
            "placement_version": self._placement_version,
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
            "max_lag": self.REPLICA_MAX_LAG,
            "per_shard": {
                entry["shard_id"]: entry["replicas"] for entry in shard["shards"]
            },
        }
