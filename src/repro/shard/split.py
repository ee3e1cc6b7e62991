"""Online shard split: copy-then-cutover under a short write stall.

A split replaces one shard with two fresh databases covering the lower
and upper halves of its time range.  The protocol keeps the catalog
readable throughout and loses/duplicates nothing:

1. **Build** — two empty databases are created with the shard's schema
   (foreign-key dependency order).
2. **Warm copy** — every row is copied (``restore`` preserves rowids and
   bypasses per-shard FK checks) while reads *and writes* keep flowing
   to the old shard.  Each copied row's snapshot and placement are
   remembered for the reconcile step.
3. **Cutover** — the write gate closes: new transactions and autocommit
   writes block, in-flight ones drain.  The delta since the warm copy
   (inserts, updates, deletes, and rows whose *placement* changed, e.g.
   a child whose parent moved) is reconciled, the immutable topology
   reference is swapped, and the gate reopens.  Reads are never blocked:
   a reader holds either the old topology (old shard is complete) or
   the new one (both halves are complete).

The old database object is left open and unreferenced — a reader that
snapshotted the old topology mid-scatter may still finish against it.

Placement, as an INSERT would place it: :meth:`ShardedDatabase._route`
decides for every row against a two-shard topology over the new
databases (parents and item owners are copied first).  A row whose
placing value is NULL or found on neither side, like a row of a local
table, goes to the low half.  The new shards start without followers
and grow them with ``add_replica`` once the cutover has settled.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from ..metadb.database import Database
from ..metadb.errors import SchemaError
from ..metadb.predicate import Comparison
from ..metadb.schema import TableSchema
from .partition import ShardError, ShardMap, ShardSpec
from .router import BROADCAST
from .sharded import ShardedDatabase, _ShardedTransaction, _Topology


def _dependency_order(sharded: ShardedDatabase) -> list[str]:
    """Table names ordered so that foreign-key parents, the parent a
    table follows and (for a table that follows its item) every
    item-owning table precede the tables that are placed by them."""
    ordered: list[str] = []
    schemas = sharded._schemas
    owners = {owner for owner, _column in sharded._item_owners}
    pending = sorted(schemas)
    while pending:
        progressed = False
        for name in list(pending):
            schema = schemas[name]
            targets = {fk.ref_table for fk in schema.foreign_keys}
            if schema.placement.kind == "follows":
                targets.add(schema.placement.parent_table)
            elif schema.placement.kind == "follows_item":
                targets |= owners
            targets.discard(name)
            if all(target in ordered for target in targets):
                ordered.append(name)
                pending.remove(name)
                progressed = True
        if not progressed:
            raise SchemaError(f"circular placement or foreign keys among {pending}")
    return ordered


def _create_schema(source: Database, targets: list[Database],
                   tables: list[str]) -> None:
    for name in tables:
        schema = source.table(name).schema
        for target in targets:
            target.create_table(TableSchema.from_dict(schema.to_dict()))


def _sides_for(sharded: ShardedDatabase, placing: _ShardedTransaction,
               table: str, row: dict[str, Any]) -> tuple:
    """The new databases an INSERT of ``row`` would write, ``placing``
    being a transaction over the two-shard topology of the split."""
    column = sharded._placement(table).column
    where = None if column is None else Comparison(column, "=", row.get(column))
    topology = placing.topology
    decision = sharded._route(topology, table, where, writing=True,
                              placing=placing)
    specs = decision.specs if decision.kind == BROADCAST else decision.specs[:1]
    return tuple(topology.db(spec.shard_id) for spec in specs)


def split_shard(sharded: ShardedDatabase, shard_id: int, at: float) -> tuple[int, int]:
    """Split ``shard_id`` at partition value ``at``; returns the two new ids."""
    with sharded._split_lock:
        topology = sharded._topology
        spec = topology.shard_map.spec(shard_id)
        if (spec.low is not None and at <= spec.low) or (
            spec.high is not None and at >= spec.high
        ):
            raise ShardError(f"split point {at!r} outside {spec.describe()}")
        old_db = topology.db(shard_id)
        low_id = topology.shard_map.next_shard_id()
        high_id = low_id + 1
        low_spec = ShardSpec(low_id, spec.low, at)
        high_spec = ShardSpec(high_id, at, spec.high)
        # The warm copy writes straight into the primary tables below,
        # bypassing log shipping: followers join after the cutover.
        low_db = sharded._new_shard_db(low_id, followers=0)
        high_db = sharded._new_shard_db(high_id, followers=0)
        placing = _ShardedTransaction(_Topology(
            ShardMap([ShardSpec(low_id, None, at), ShardSpec(high_id, at, None)]),
            {low_id: low_db, high_id: high_db}))
        tables = _dependency_order(sharded)
        _create_schema(old_db, [low_db, high_db], tables)

        # Warm copy: reads and writes keep flowing to the old shard.
        copied: dict[str, dict[int, tuple]] = {}
        for name in tables:
            table = old_db.table(name)
            snapshot: dict[int, tuple] = {}
            for rowid in list(table.rowids()):
                try:
                    row = dict(table.row(rowid))
                except KeyError:
                    continue  # deleted mid-scan; reconcile handles it
                sides = _sides_for(sharded, placing, name, row)
                for side in sides:
                    side.table(name).restore(rowid, dict(row))
                snapshot[rowid] = (sides, row)
            copied[name] = snapshot

        # Cutover: close the write gate, drain in-flight writes and open
        # transactions, reconcile the delta, swap the topology reference.
        stall_started = time.perf_counter()
        with sharded._writes_stalled():
            for name in tables:
                table = old_db.table(name)
                snapshot = copied[name]
                current_ids = set(table.rowids())
                # Two passes: all deletions first, then restores, so a
                # unique value that moved between rows mid-copy cannot
                # collide with its own stale copy.
                to_restore: list[tuple[int, dict, tuple]] = []
                for rowid in current_ids:
                    row = dict(table.row(rowid))
                    sides = _sides_for(sharded, placing, name, row)
                    previous = snapshot.get(rowid)
                    if previous is not None and previous[1] == row \
                            and previous[0] == sides:
                        continue
                    if previous is not None:
                        for side in previous[0]:
                            try:
                                side.table(name).delete(rowid)
                            except KeyError:
                                pass
                    to_restore.append((rowid, row, sides))
                for rowid, (sides, _row) in snapshot.items():
                    if rowid not in current_ids:
                        for side in sides:
                            try:
                                side.table(name).delete(rowid)
                            except KeyError:
                                pass
                for rowid, row, sides in to_restore:
                    for side in sides:
                        side.table(name).restore(rowid, dict(row))
            new_map = topology.shard_map.replace(shard_id, [low_spec, high_spec])
            new_dbs = dict(topology.dbs)
            del new_dbs[shard_id]
            new_dbs[low_id] = low_db
            new_dbs[high_id] = high_db
            sharded._topology = _Topology(new_map, new_dbs)
        stall_s = time.perf_counter() - stall_started

        sharded.splits += 1
        sharded.breakers.pop(shard_id, None)
        sharded._persist_topology()
        # Reads on the new shards are served by their primaries until
        # each follower has been cloned from its primary.
        for new_db in (low_db, high_db):
            for _ in range(sharded.replicas_per_shard - 1):
                new_db.add_replica()
        if sharded._path is not None:
            low_db.checkpoint()
            high_db.checkpoint()
        sharded.obs.observe("metadb.shard.split_stall_s", stall_s,
                            db=sharded.name)
        sharded.obs.count("metadb.shard.splits", db=sharded.name)
        sharded.obs.set_gauge("metadb.shard.count", len(sharded._topology.shard_map),
                              db=sharded.name)
        sharded.obs.event(
            "info", "shard", "split",
            f"shard {shard_id} split at {at:g} into "
            f"{low_spec.describe()} and {high_spec.describe()}",
            db=sharded.name, shard_id=shard_id, at=at,
            low_id=low_id, high_id=high_id, stall_s=stall_s,
        )
        return low_id, high_id


def rebalance(sharded: ShardedDatabase,
              table: Optional[str] = None) -> Optional[tuple[int, int]]:
    """Split the shard holding the most rows of ``table`` at its median
    partition value; returns the new shard ids, or None when no shard
    has enough value spread to split."""
    if table is None:
        partitioned = sorted(
            name for name, schema in sharded._schemas.items()
            if schema.placement.kind == "partitioned")
        if not partitioned:
            return None
        table = partitioned[0]
    column = sharded._placement(table).column
    topology = sharded._topology
    heaviest = None
    heaviest_rows = 0
    for spec in topology.shard_map:
        count = len(topology.db(spec.shard_id).table(table))
        if count > heaviest_rows:
            heaviest, heaviest_rows = spec, count
    if heaviest is None or heaviest_rows < 2:
        return None
    values = sorted(
        row[column]
        for row in topology.db(heaviest.shard_id).table(table).rows()
        if row.get(column) is not None
    )
    at = values[len(values) // 2]
    if at <= values[0]:
        # Degenerate: everything at/below the median is one value; try the
        # first strictly greater value instead.
        greater = [value for value in values if value > values[0]]
        if not greater:
            return None
        at = greater[0]
    if (heaviest.low is not None and at <= heaviest.low) or (
        heaviest.high is not None and at >= heaviest.high
    ):
        return None
    return split_shard(sharded, heaviest.shard_id, at)
