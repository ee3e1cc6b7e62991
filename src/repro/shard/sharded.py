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
writes and EXPLAIN all act on its decision: the statement's values read
through its route rule, which a prepared SELECT keeps per shape until the
schemas are re-read.  A statement that names one shard is handed to it
as written; a transaction opens a shard's part when it first runs a
statement there.

Degradation semantics: reads over a dead shard's range return a
:class:`PartialResult` (a ``list`` subclass carrying the missing ranges)
when ``degraded_reads`` is on; writes never degrade — a failed shard
write raises and the cross-shard transaction rolls back everywhere.

Concurrency: reads are never blocked.  Every write passes one gate and
is counted in flight while it runs: a transaction from ``begin()`` to its
commit or rollback, an autocommit write or a DDL change for the one
call.  An online split (:mod:`repro.shard.split`) closes the gate
briefly during cutover and waits for that count to drain; topology is an
immutable snapshot swapped atomically, so in-flight readers keep a
consistent view throughout.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence, Union

from ..obs import Observability, resolve as resolve_obs
from ..resil.breaker import BreakerOpen, CircuitBreaker
from ..resil.faults import fire as fire_fault
from ..resil.policies import TRANSIENT_ERRORS
from ..metadb.database import PLAN_CACHE_SHAPES, Database, DatabaseStats
from ..metadb.errors import TransactionError
from ..metadb.predicate import And, Comparison, In, Predicate, conjuncts
from ..metadb.query import Aggregate, Delete, Explain, Insert, Join, Select, Update
from ..metadb.schema import BROADCAST as EVERYWHERE, TableSchema
from ..metadb.sql import Batch, Statement, parse
from ..metadb.transactions import Transaction, TxState
from ..metadb.wal import counted_fsync, replace_durably
from .merge import prepare_scatter
from .partition import (
    ShardError, ShardMap, ShardSpec, ShardUnavailable, joinable,
)
from .router import (
    BROADCAST, BY_ITEM, BY_KEY, BY_LOCAL, BY_OWNER, PRUNED, SCATTER,
    RouteDecision, route_keyed, route_partitioned, scatter_all,
)

TOPOLOGY_FILE = "topology.json"

#: What ``topology.json`` says about where rows are: 1 when every table's
#: rows sit where its stored placement puts them.  A directory without it
#: was written when placement was compiled in, and is not opened.
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

    def commit(self, stats: DatabaseStats) -> None:
        self.require_active()
        self.state = TxState.COMMITTED
        for db, part in self.parts.values():
            db.commit(part)
        stats.transactions_committed += 1

    def rollback(self, stats: DatabaseStats) -> None:
        self.require_active()
        self.state = TxState.ROLLED_BACK
        for db, part in self.parts.values():
            db.rollback(part)
        stats.transactions_rolled_back += 1


class _RouteRule(NamedTuple):
    """What placement and a WHERE's shape decide of a route: no shard, breaker or hint."""

    whole: Optional[str]            # the kind of a route to every shard
    flat: bool = False              # the WHERE's operands are its conjuncts
    partition: Optional[str] = None     # the partition column, if pinned
    keys: tuple = ()                # (first =, first IN, holders) per key
    by: str = BY_KEY


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
        # The write gate an online split closes briefly during cutover,
        # and the writes in flight through it.
        self._gate = threading.Condition(threading.Lock())
        self._stalled = False
        self._in_flight = 0
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
        specs = self._load_or_create_specs(boundaries)
        dbs = {spec.shard_id: self._new_shard_db(spec.shard_id,
                                                 self.replicas_per_shard - 1)
               for spec in specs}
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
                if payload.get("placement_version") != PLACEMENT_VERSION:
                    raise ShardError(
                        f"{self._path} predates stored placement ({TOPOLOGY_FILE} "
                        "has no placement_version); this version cannot open it")
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

    def _new_shard_db(self, shard_id: int, followers: int) -> Database:
        shard_path = self._path / f"shard-{shard_id}" if self._path else None
        if self.replicas_per_shard > 1:
            # Local import: repro.repl must stay importable without the
            # shard tier (it is also used standalone), so the dependency
            # points this way only.
            from ..repl import ReplicaGroup

            return ReplicaGroup(
                path=shard_path,
                name=f"{self.name}-s{shard_id}",
                n_replicas=followers,
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
            "placement_version": PLACEMENT_VERSION,
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
        #: What a prepared SELECT's shape decides, read from these schemas:
        #: its route rule, and per number of shards asked its scatter.
        self._by_shape: dict[Any, Any] = {}

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
            breaker = self.breakers[shard_id] = CircuitBreaker.for_copy(
                f"metadb.shard.{self.name}-s{shard_id}", self.breaker_cooldown_s, self.obs)
        return breaker

    # -- the write gate (closed briefly by an online split) ----------------------

    def _enter_gate(self) -> None:
        """One more write in flight, once no split holds the gate."""
        with self._gate:
            while self._stalled:
                self._gate.wait()
            self._in_flight += 1

    def _leave_gate(self) -> None:
        with self._gate:
            self._in_flight -= 1
            self._gate.notify_all()

    @contextmanager
    def _writes_stalled(self):
        """Close the gate and wait for the writes in flight to drain:
        what a topology change holds while it moves rows.  Reads keep
        flowing."""
        with self._gate:
            self._stalled = True
            while self._in_flight:
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

    def drop_table(self, name: str) -> None:
        self._ddl(lambda db: db.drop_table(name))

    def _ddl(self, change) -> None:
        """One schema change on every shard, then placement re-read."""
        self._enter_gate()
        try:
            for spec in self._topology.shard_map:
                change(self._topology.db(spec.shard_id))
            self._read_schemas()
        finally:
            self._leave_gate()

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
        self._enter_gate()
        return _ShardedTransaction(self._topology)

    def commit(self, tx: _ShardedTransaction) -> None:
        # Checked before the gate: a finished transaction has left it.
        tx.require_active()
        try:
            tx.commit(self.stats)
        finally:
            self._leave_gate()

    def rollback(self, tx: _ShardedTransaction) -> None:
        tx.require_active()
        try:
            tx.rollback(self.stats)
        finally:
            self._leave_gate()

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        statement: Union[Statement, str],
        tx: Optional[_ShardedTransaction] = None,
    ) -> Any:
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Select):
            if tx is not None:
                self._admit(tx)
            return self._read_batch((statement,), tx)[0]
        if isinstance(statement, Explain):
            return [self.explain_plan(statement.select)]
        self._admit(tx)
        if tx is not None:
            return self._write(statement, tx)
        self._enter_gate()
        local_tx = _ShardedTransaction(self._topology)
        try:
            result = self._write(statement, local_tx)
        except Exception:
            local_tx.rollback(self.stats)
            raise
        else:
            local_tx.commit(self.stats)
        finally:
            self._leave_gate()
        return result

    def _admit(self, tx: Optional[_ShardedTransaction]) -> None:
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
        each shard it targets as one sub-batch (:meth:`_read_batch`).
        With references in it, it goes in waves against that topology:
        first the statements that hold none, then each statement once
        the statements it names have answered, bound to their rows.  A
        batch with a mutation in it runs in statement order, because
        order is what it means."""
        batch = Batch.of(statements)
        if not all(isinstance(statement, Select) for statement in batch):
            return batch.run(lambda statement: self.execute(statement, tx=tx))
        self._admit(tx)
        if batch.binds is None:
            return self._read_batch(batch, tx)
        topology = tx.topology if tx is not None else self._topology
        probes: dict = {}
        results: list[Any] = [[] for _statement in batch]
        for wave in batch.waves:
            ready = [index for index in wave if batch.bound(index, results) is not None]
            answers = self._read_batch([batch[index] for index in ready],
                                       tx, topology, probes)
            for index, rows in zip(ready, answers):
                results[index] = rows
        batch.settle()
        return results

    # -- routing -------------------------------------------------------------------

    def _route(self, topology: _Topology, table: str,
               where: Optional[Predicate], join: Optional[Join] = None,
               writing: bool = False,
               placing: Optional[_ShardedTransaction] = None,
               probes: Optional[dict] = None, shape: Any = None) -> RouteDecision:
        """The shards a statement over ``table`` must touch: the one
        decision SELECT, UPDATE, DELETE, INSERT and EXPLAIN all act on.
        ``placing`` is the transaction a row is placed under
        (:meth:`_place`), whose ``where`` pins the placing column to the
        row's value: the decision then names the one shard the row
        belongs on.  The rule (:meth:`_rule`) is the one kept for
        ``shape``, else compiled here.

        A table that follows its item is asked for on every shard that
        holds rows of the item, and placed where an item-owning table
        holds the item, the shard the transaction last wrote asked first.
        Keys are located by probing the shards' own indexes, against the
        topology snapshot the statement holds.  A read does not probe a
        shard whose breaker is open; a write probes them all, because it
        must name every holder (an UPDATE or DELETE whose key no shard
        holds names none).  ``probes`` is what a batch of reads has
        been answered so far (same holder, same key: one answer); a read
        asks first the shard that held the key found last, a hint that
        is wrong at the cost of one more probe.
        """
        rule = None if shape is None else self._by_shape.get(shape)
        if rule is None:
            rule = self._rule(table, where, join, placing is not None)
            if shape is not None:
                self._keep(shape, rule)
        shard_map = topology.shard_map
        if rule.whole is not None:
            return scatter_all(shard_map, rule.whole)
        first = placing.last_written if placing is not None \
            else None if writing else self._held_last
        if rule.by == BY_LOCAL:
            return RouteDecision(
                PRUNED, (shard_map.specs[0] if first is None
                         else shard_map.spec(first),), BY_LOCAL)
        if len(shard_map.specs) == 1:
            return scatter_all(shard_map)
        parts = where.operands if rule.flat else conjuncts(where)
        if rule.partition is not None:
            decision = route_partitioned(parts, rule.partition, shard_map)
            if decision.kind == PRUNED:
                return decision
        for equal, listed, holders in rule.keys:
            # The first ``=``'s value unless it is NULL, else the first IN's.
            value = None if equal is None else parts[equal].value
            values = (value,) if value is not None \
                else None if listed is None else parts[listed].values
            if values is not None:
                break
        else:
            return scatter_all(shard_map)
        dbs = topology.dbs
        memo = {} if probes is None else probes

        def holds(spec: ShardSpec, value: Any) -> bool:
            asked = (holders, spec.shard_id, value)
            answer = memo.get(asked)
            if answer is None:
                db = dbs[spec.shard_id]
                answer = memo[asked] = any(
                    db.holds(holder, key, value) for holder, key in holders)
            if answer and probes is not None:
                self._held_last = spec.shard_id
            return answer

        decision = route_keyed(values, shard_map, holds,
                               () if writing else self._open_shards(),
                               rule.by, rule.by == BY_ITEM, first)
        if decision.specs or (writing and placing is None):
            return decision
        # Nobody holds the key: the first shard gives a read or an insert
        # its single-node answer (no rows, a zero count, the foreign-key
        # error); an UPDATE or DELETE has nothing to change anywhere.
        return RouteDecision(PRUNED, shard_map.specs[:1], rule.by)

    def _rule(self, table: str, where: Optional[Predicate],
              join: Optional[Join], placing: bool) -> _RouteRule:
        """The route rule of a statement over ``table`` (``placing``: of
        a row being placed): the WHERE's shape fixes which conjunct pins
        a column, its values what it pins."""
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
                return _RouteRule(SCATTER)
            return _RouteRule(BROADCAST)
        if kind == "local":
            return _RouteRule(None if placing else SCATTER, by=BY_LOCAL)
        parts = conjuncts(where)
        equal: dict[str, int] = {}      # column -> position of its first =
        listed: dict[str, int] = {}     # ... and of its first IN
        for at, part in enumerate(parts):
            if isinstance(part, In):
                listed.setdefault(part.column, at)
            elif isinstance(part, Comparison) and part.op == "=":
                equal.setdefault(part.column, at)
        own = ((table, schema.primary_key),)
        by = BY_KEY
        if kind == "partitioned":
            # A partitioned table prunes on its partition column, else its key ...
            keys = [(schema.primary_key, own)]
        elif kind == "follows":
            # ... a child lives where its parent's key does, else by its own ...
            keys = [(placement.column,
                     ((placement.parent_table, placement.parent_column),)),
                    (schema.primary_key, own)]
        elif placing:
            # ... a row of an item is put where the item's owner is ...
            keys, by = [(placement.column, self._item_owners)], BY_OWNER
        else:
            # ... and looked for wherever rows of the item are.
            keys = [(placement.column, ((table, placement.column),))]
            by = BY_ITEM
        keys = tuple((equal.get(column), listed.get(column), holders)
                     for column, holders in keys
                     if column in equal or column in listed)
        partition = placement.column if kind == "partitioned" and any(
            getattr(part, "column", None) == placement.column for part in parts) else None
        return _RouteRule(None, type(where) is And and parts == where.operands,
                          partition, keys, by)

    def _place(self, tx: _ShardedTransaction, table: str,
               row: dict[str, Any]) -> tuple[ShardSpec, ...]:
        """The shards a row of ``table`` goes to under ``tx``'s topology:
        every shard for a broadcast table, else the one its placing value
        names.  An INSERT's row, an UPDATE's new placing value and the
        rows a split copies are all placed here."""
        column = self._placement(table).column
        where = None if column is None else Comparison(column, "=", row.get(column))
        # The row's own WHERE, one shape per table: its rule is kept.
        decision = self._route(tx.topology, table, where, writing=True,
                               placing=tx, shape=(Insert, table))
        return decision.specs if decision.kind == BROADCAST else decision.specs[:1]

    def _open_shards(self) -> list[int]:
        """Shards whose breaker rejects calls right now."""
        return [shard_id for shard_id, breaker in list(self.breakers.items())
                if breaker.is_open()]

    # -- reads ---------------------------------------------------------------------

    def _read_batch(self, selects: Sequence[Select],
                    tx: Optional[_ShardedTransaction],
                    topology: Optional[_Topology] = None,
                    probes: Optional[dict] = None) -> list[list[dict]]:
        """Every read's path, the single ``execute`` as a batch of one.

        The batch is routed against one topology snapshot (inside a
        transaction, the transaction's; each wave of a batch with
        references is handed the batch's, and the owner probes answered
        so far), each shard it targets is sent its statements as one
        sub-batch, under its own part of ``tx`` if there is one, each
        statement is merged, and the batch is accounted in one pass.  A
        shard that cannot answer is missing from every statement that
        targeted it and from no other.  A broadcast read is any one
        shard's to answer: it joins the sub-batch of the shard the
        round-robin picks, and the next if that one cannot.  There is no
        snapshot across shards.
        """
        if topology is None:
            topology = tx.topology if tx is not None else self._topology
        shard_map = topology.shard_map
        transient: list[BaseException] = []
        probes = {} if probes is None else probes
        reads: list[_Read] = []
        asked: dict[int, list[_Read]] = {}
        for select in selects:
            decision = self._route(topology, select.table, select.where,
                                   select.join, probes=probes, shape=select.shape)
            kind, specs = decision.kind, decision.specs
            shard_select, merge, targets = select, None, specs
            if kind == BROADCAST:
                start = self._read_cursor % len(specs)    # unlocked, as a group's
                self._read_cursor += 1
                specs = specs[start:] + specs[:start]
                targets = specs[:1]
            elif len(specs) > 1:
                shard_select, merge = self._scatter(select, len(specs))
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
        degraded = 0
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
                    more = self._ask(topology, tx, spec,
                                     [rest.with_where(read.select.where)], transient)
                    if more is None:
                        read.missing.append(spec)
                        return []
                    read.answered.append(spec.shard_id)
                    return more[0]

                # The merge of nothing keeps the statement's shape (an
                # aggregate is one row).
                merge = read.merge or self._scatter(read.select, 1)[1]
                rows = merge(runs, ask_rest)
            self._count_route(kind, touched)
            missing = read.missing
            if missing:
                if not self.degraded_reads:
                    raise ShardUnavailable(
                        f"{len(missing)} of {len(read.specs)} targeted shards "
                        f"unavailable for {read.select.table!r}",
                        shard_ids=[spec.shard_id for spec in missing],
                    )
                degraded += 1
                self.obs.count("metadb.shard.degraded", db=self.name)
                rows = PartialResult(rows, missing)
            results.append(rows)
        with self._report_lock:     # the batch's accounting, in one pass
            for read in reads:
                self.route_counts[read.kind] += 1
                for shard_id in read.answered:
                    self.reads_by_shard[shard_id] = self.reads_by_shard.get(shard_id, 0) + 1
            self.stats.selects += len(reads)
            self.stats.rows_read += sum(map(len, results))
            self.degraded_count += degraded
        return results

    def _scatter(self, select: Select, n_shards: int) -> tuple[Select, Any]:
        """:func:`prepare_scatter`, kept per (shape, shards asked)."""
        if select.shape is None:
            return prepare_scatter(select, n_shards)
        key = (select.shape, n_shards)
        kept = self._by_shape.get(key) or self._keep(key, prepare_scatter(select, n_shards))
        return kept[0].with_where(select.where), kept[1]

    def _keep(self, key: Any, value: Any) -> Any:
        """What a shape decides, kept; past the plan cache's bound, anew."""
        if len(self._by_shape) >= PLAN_CACHE_SHAPES:
            self._by_shape.clear()
        self._by_shape[key] = value
        return value

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
            else:       # bound already: a batch without references
                runs = db.execute_batch(Batch(statements), part)
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
        the lock the batch takes anyway); both handles resolved once."""
        counters = self._route_counters.get(kind)
        if counters is None:
            counters = self._route_counters[kind] = (
                self.obs.counter("metadb.shard.route", db=self.name, route=kind),
                self.obs.counter("metadb.shard.shards_touched", db=self.name),
            )
        counters[0].inc()
        counters[1].inc(n_touched)

    # -- writes --------------------------------------------------------------------

    def _write(self, statement: Statement, tx: _ShardedTransaction) -> Any:
        """Every INSERT, UPDATE and DELETE: placed by :meth:`_place` or
        routed by :meth:`_route`, run on each shard named, counted once.

        Values are normalised here, before the shard that owns the row does
        it again (a walk over values already of their stored types):
        routing needs the placing column's final value, the copies of a
        broadcast row must share what a callable default (created_at)
        returned, and an UPDATE no shard runs still raises what a single
        database raises for a bad column or type.  An INSERT goes to the
        one shard its row belongs on (every shard, broadcast); an UPDATE or
        DELETE to every shard that may hold rows it matches, and to none
        when no shard holds its key.  An update may not carry rows to
        another shard: when it rewrites the column that places them, only
        the shard the new value belongs on (``home``) may run it.
        """
        table = statement.table
        schema = self._schemas.get(table)
        home = refusal = None
        if isinstance(statement, Insert):
            if schema is not None:
                statement = Insert(table, schema.normalize_row(statement.values))
            specs, first_answers = self._place(tx, table, statement.values), True
        elif isinstance(statement, (Update, Delete)):
            where = statement.where
            decision = self._route(tx.topology, table, where, writing=True)
            specs, first_answers = decision.specs, decision.kind == BROADCAST
            if isinstance(statement, Update) and schema is not None:
                changes = schema.normalize_row(statement.changes, for_update=True)
                statement = Update(table, changes, where)
                if schema.placement.column in changes:
                    home = self._place(tx, table, changes)[0].shard_id
                    refusal = (
                        "update would move {table!r} rows out of {shard}; "
                        "cross-shard row migration requires a split/rebalance"
                        if schema.placement.kind == "partitioned"
                        else "update would re-parent {table!r} rows across shards")
        else:
            raise ShardError(f"cannot execute {statement!r}")
        results = []
        for spec in specs:
            shard_id = spec.shard_id
            db, part = tx.part(shard_id)
            if refusal is not None and shard_id != home:
                if db.execute(Select(table, where=where, aggregates=[
                        Aggregate("count", "*", "n")]), tx=part)[0]["n"]:
                    raise ShardError(refusal.format(table=table, shard=spec.describe()))
                continue
            fire_fault(f"metadb.shard.{shard_id}.statement")
            results.append(db.execute(statement, tx=part))
            tx.last_written = shard_id
            with self._report_lock:
                self.writes_by_shard[shard_id] = self.writes_by_shard.get(shard_id, 0) + 1
        # An INSERT returns the first copy's rowid.  Every copy of a
        # broadcast table changes the same rows, so one copy's count is
        # the statement's; disjoint shards add up.
        result = results[0] if first_answers else sum(results)
        self.stats.count(statement, result)
        return result

    # -- EXPLAIN -------------------------------------------------------------------

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]:
        """Single-node EXPLAIN of the per-shard plan plus a ``shard_route``
        section: which shards executing the statement now would touch,
        and what they were pruned by (from the same :meth:`_route`)."""
        if isinstance(select, str):
            select = parse(select)
        if isinstance(select, Explain):
            select = select.select
        topology = self._topology
        decision = self._route(topology, select.table, select.where, select.join,
                               shape=select.shape)
        specs = decision.specs
        if decision.kind == BROADCAST:
            specs = specs[:1]
        # What a shard is handed: the statement as written when one shard
        # is asked, its scatter rewrite when several are.
        shard_select = select if len(specs) == 1 \
            else self._scatter(select, len(specs))[0]
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
            "routes": dict(self.route_counts),
            "degraded_reads": self.degraded_count,
            "splits": self.splits,
            "shards": shards,
        }

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
