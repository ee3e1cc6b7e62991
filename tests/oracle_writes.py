"""Write oracle: the sharded write path before it was one routed write.

The eight methods ``ShardedDatabase`` retired, copied unchanged apart from
``self`` becoming a parameter: a dispatcher (:func:`execute_mutation`),
one body per statement kind, the placement lookup of a row that is not
placed by a shard range (:func:`home`), the per-shard statement
(:func:`exec_on_shard`), the move/re-parent probe (:func:`count_matching`)
and the row-count rule (:func:`rows_affected`).

They route through the live ``ShardedDatabase._route``, so an UPDATE or
DELETE whose key no shard holds is sent nowhere here too; what the
retired path did not do there is validate an UPDATE's changes, which it
left to the shard that ran it.  :func:`installed` runs any stack on
them: inside the ``with`` every sharded INSERT, UPDATE and DELETE takes
the old path.  ``tests/test_sharded_writes.py`` requires the routed
write to return the same values, leave the same rows on the same shards
and move the same counters.  Not imported by ``src``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.metadb import Aggregate, Comparison, Delete, Insert, Select, Update
from repro.resil.faults import fire as fire_fault
from repro.shard import ShardedDatabase, ShardError
from repro.shard.router import BROADCAST, RouteDecision


def execute_mutation(self: ShardedDatabase, statement, tx) -> Any:
    if isinstance(statement, Insert):
        return execute_insert(self, statement, tx)
    if isinstance(statement, Update):
        return execute_update(self, statement, tx)
    if isinstance(statement, Delete):
        return execute_delete(self, statement, tx)
    raise ShardError(f"cannot execute {statement!r}")


def exec_on_shard(self: ShardedDatabase, tx, shard_id: int, statement) -> Any:
    db, part = tx.part(shard_id)
    fire_fault(f"metadb.shard.{shard_id}.statement")
    result = db.execute(statement, tx=part)
    tx.last_written = shard_id
    with self._report_lock:
        self.writes_by_shard[shard_id] = (
            self.writes_by_shard.get(shard_id, 0) + 1
        )
    return result


def home(self: ShardedDatabase, tx, table: str, value: Any) -> int:
    """The one shard a row of a table that is not placed by a shard
    range lives on, given the value of its placing column (a local
    table has none).  A NULL or unknown parent or item lands on the
    first shard, whose own foreign-key check answers as a single
    node would."""
    column = self._placement(table).column
    where = None if column is None else Comparison(column, "=", value)
    return self._route(tx.topology, table, where, writing=True,
                       placing=tx).specs[0].shard_id


def execute_insert(self: ShardedDatabase, statement: Insert, tx) -> int:
    table = statement.table
    shard_map = tx.topology.shard_map
    placement = self._placement(table)
    schema = self._schemas.get(table)
    row = statement.values if schema is None \
        else schema.normalize_row(statement.values)
    routed = Insert(table, row)
    if placement.kind == "broadcast":
        result = None
        for spec in shard_map:
            rowid = exec_on_shard(self, tx, spec.shard_id, routed)
            result = rowid if result is None else result
    else:
        value = row.get(placement.column)
        if placement.kind != "partitioned":
            shard_id = home(self, tx, table, value)
        elif value is None:
            # NOT NULL will reject it with the proper IntegrityError.
            shard_id = shard_map.specs[0].shard_id
        else:
            shard_id = shard_map.spec_for_value(value).shard_id
        result = exec_on_shard(self, tx, shard_id, routed)
    self.stats.inserts += 1
    self.stats.rows_written += 1
    return result


def count_matching(self: ShardedDatabase, tx, shard_id: int, table: str,
                   where) -> int:
    db, part = tx.part(shard_id)
    rows = db.execute(Select(table, where=where,
                             aggregates=[Aggregate("count", "*", "n")]),
                      tx=part)
    return rows[0]["n"]


def execute_update(self: ShardedDatabase, statement: Update, tx) -> int:
    table = statement.table
    changes = statement.changes
    topology = tx.topology
    decision = self._route(topology, table, statement.where, writing=True)
    home_id = refusal = None
    placement = self._placement(table)
    if placement.column in changes:
        value = changes[placement.column]
        if placement.kind == "partitioned":
            home_id = next((spec.shard_id for spec in topology.shard_map
                            if spec.covers(value)), None)
            refusal = ("update would move {table!r} rows out of {shard}; "
                       "cross-shard row migration requires a "
                       "split/rebalance")
        else:
            home_id = home(self, tx, table, value)
            refusal = "update would re-parent {table!r} rows across shards"
    counts = []
    for spec in decision.specs:
        if refusal is not None and spec.shard_id != home_id:
            if count_matching(self, tx, spec.shard_id, table, statement.where):
                raise ShardError(
                    refusal.format(table=table, shard=spec.describe()))
            continue
        counts.append(exec_on_shard(self, tx, spec.shard_id, statement))
    total = rows_affected(decision, counts)
    self.stats.updates += 1
    self.stats.rows_written += total
    return total


def execute_delete(self: ShardedDatabase, statement: Delete, tx) -> int:
    decision = self._route(tx.topology, statement.table, statement.where,
                           writing=True)
    total = rows_affected(decision, [
        exec_on_shard(self, tx, spec.shard_id, statement)
        for spec in decision.specs
    ])
    self.stats.deletes += 1
    self.stats.rows_written += total
    return total


def rows_affected(decision: RouteDecision, counts: list[int]) -> int:
    """Every copy of a broadcast table changes the same rows, so one
    copy's count is the statement's; disjoint shards add up."""
    if decision.kind == BROADCAST:
        return int(counts[0] or 0)
    return sum(counts)


@contextmanager
def installed():
    """Every ``ShardedDatabase`` write takes the retired path while the
    block runs."""
    saved = ShardedDatabase._write
    ShardedDatabase._write = execute_mutation
    try:
        yield
    finally:
        ShardedDatabase._write = saved
