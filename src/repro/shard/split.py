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

Placement, as an INSERT would place it: :meth:`ShardedDatabase._place`
decides for every row against a two-shard topology over the new
databases (parents and item owners are copied first).  A row whose
placing value is NULL or found on neither side, like a row of a local
table, goes to the low half.  The new shards start without followers
and grow them with ``add_replica`` once the cutover has settled.
"""

from __future__ import annotations

import time
from typing import Optional

from ..metadb.errors import SchemaError
from ..metadb.schema import TableSchema
from .partition import ShardError, ShardMap, ShardSpec
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
        # Rows are placed as an INSERT under this transaction would place
        # them: over the two new databases, the old range cut at ``at``.
        sides = {low_id: low_db, high_id: high_db}
        placing = _ShardedTransaction(_Topology(
            ShardMap([ShardSpec(low_id, None, at), ShardSpec(high_id, at, None)]), sides))
        tables = _dependency_order(sharded)
        for name in tables:
            schema = old_db.table(name).schema
            for side in sides.values():
                side.create_table(TableSchema.from_dict(schema.to_dict()))

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
                homes = sharded._place(placing, name, row)
                for home in homes:
                    sides[home.shard_id].table(name).restore(rowid, dict(row))
                snapshot[rowid] = (homes, row)
            copied[name] = snapshot

        # Cutover: close the write gate, drain in-flight writes and open
        # transactions, reconcile the delta, swap the topology reference.
        stall_started = time.perf_counter()
        with sharded._writes_stalled():
            for name in tables:
                table = old_db.table(name)
                snapshot = copied[name]
                current: dict[int, tuple] = {}
                for rowid in table.rowids():
                    row = dict(table.row(rowid))
                    current[rowid] = (sharded._place(placing, name, row), row)
                # Every stale copy (a row changed, moved or gone) goes
                # before any restore, so a unique value that moved between
                # rows mid-copy cannot collide with its own stale copy.
                for rowid, (homes, row) in snapshot.items():
                    if current.get(rowid) != (homes, row):
                        for home in homes:
                            sides[home.shard_id].table(name).delete(rowid)
                for rowid, (homes, row) in current.items():
                    if snapshot.get(rowid) != (homes, row):
                        for home in homes:
                            sides[home.shard_id].table(name).restore(rowid, dict(row))
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
