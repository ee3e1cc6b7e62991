"""Scatter oracle: the composed stack's read path before a batch went
down it as a batch.

The bodies ``ShardedDatabase`` and ``ReplicaGroup`` retired, copied from
the parent commit unchanged apart from ``self`` becoming a parameter:
``execute_batch`` as ``[execute(s) for s in statements]``, one read
routed, failed over, merged and accounted on its own
(:func:`execute_select` and what it calls, :func:`read_with_failover`),
``LIMIT k`` pushed to every shard whole and the ordered merge as one
stable sort over the shard lists laid end to end
(:func:`prepare_scatter`, :class:`OrderedMerge`).

:func:`installed` runs any stack on them: inside the ``with`` every
sharded read and every group read takes the old path, statement by
statement.  ``tests/test_scatter_batch.py`` requires the batched path to
return the same rows and move the same counters;
``benchmarks/test_composed_page.py`` times the page against it.  Not
imported by ``src``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import chain
from typing import Any, Optional, Sequence

from repro.metadb import Select
from repro.metadb.query import _apply_order, _project
from repro.repl import ReplicaGroup
from repro.repl.group import ReplicaState
from repro.resil.breaker import BreakerOpen, BreakerState
from repro.resil.faults import fire as fire_fault
from repro.resil.policies import TRANSIENT_ERRORS
from repro.shard import PartialResult, ShardedDatabase, ShardUnavailable
from repro.shard import merge as merge_module
from repro.shard.router import BROADCAST


def execute_batch(db, statements, tx=None) -> list[Any]:
    """Both wrappers' retired ``execute_batch``."""
    return [db.execute(statement, tx=tx) for statement in statements]


# -- repro.shard.merge --------------------------------------------------------

def prepare_scatter(select: Select):
    """The ordered branch of the retired ``prepare_scatter``: every shard
    is asked for ``offset + limit`` rows.  Aggregates and plain scans are
    merged as they still are."""
    if select.aggregates or not select.order_by:
        return merge_module.prepare_scatter(select)
    stop = None if select.limit is None else select.offset + select.limit
    shard_select = replace(select, columns=None, limit=stop, offset=0)
    return shard_select, OrderedMerge(select)


class OrderedMerge:
    def __init__(self, select: Select):
        self._order_by = select.order_by
        self._offset = select.offset
        self._stop = None if select.limit is None else select.offset + select.limit
        self._columns = select.columns

    def __call__(self, shard_results):
        rows = _apply_order(list(chain.from_iterable(shard_results)), self._order_by)
        return [_project(row, self._columns)
                for row in rows[self._offset:self._stop]]


# -- repro.shard.sharded ------------------------------------------------------

def execute_select(self: ShardedDatabase, select: Select, tx) -> list[dict]:
    topology = tx.topology if tx is not None else self._topology
    decision = self._route(topology, select.table, select.where, select.join)
    if decision.kind == BROADCAST:
        return _broadcast_read(self, select, topology, tx)
    return _scatter_read(self, select, decision, topology, tx)


def _read_shard(self, topology, shard_id: int, select: Select, tx) -> list[dict]:
    fire_fault(f"metadb.shard.{shard_id}.statement")
    if tx is None:
        return topology.db(shard_id).execute(select)
    db, part = tx.part(shard_id)
    return db.execute(select, tx=part)


def _broadcast_read(self, select: Select, topology, tx) -> list[dict]:
    specs = topology.shard_map.specs
    with self._report_lock:
        start = self._read_cursor
        self._read_cursor += 1
        self.route_counts[BROADCAST] += 1
    self._count_route(BROADCAST, 1)
    last_transient: Optional[BaseException] = None
    for offset in range(len(specs)):
        spec = specs[(start + offset) % len(specs)]
        breaker = self._breaker_for(spec.shard_id)
        if not breaker.allow():
            continue
        try:
            rows = _read_shard(self, topology, spec.shard_id, select, tx)
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


def _scatter_read(self, select: Select, decision, topology, tx) -> list[dict]:
    specs = decision.specs
    shard_select, merge = \
        (select, None) if len(specs) == 1 else prepare_scatter(select)
    gathered: list[list[dict]] = []
    answered: list[int] = []
    missing = []
    for spec in specs:
        shard_id = spec.shard_id
        breaker = self._breaker_for(shard_id)
        if not breaker.allow():
            missing.append(spec)
            continue
        try:
            rows = _read_shard(self, topology, shard_id, shard_select, tx)
        except TRANSIENT_ERRORS:
            breaker.record_failure()
            missing.append(spec)
            self.obs.count("metadb.shard.failures", db=self.name,
                           shard=str(shard_id))
            continue
        breaker.record_success()
        gathered.append(rows)
        answered.append(shard_id)
    if merge is None and gathered:
        rows = gathered[0]
    else:
        if merge is None:
            merge = prepare_scatter(select)[1]
        rows = merge(gathered)
    reads = self.reads_by_shard
    with self._report_lock:
        self.route_counts[decision.kind] += 1
        for shard_id in answered:
            reads[shard_id] = reads.get(shard_id, 0) + 1
        self.stats.selects += 1
        self.stats.rows_read += len(rows)
    self._count_route(decision.kind, len(specs))
    if not missing:
        return rows
    if not self.degraded_reads:
        raise ShardUnavailable(
            f"{len(missing)} of {len(specs)} targeted shards "
            f"unavailable for {select.table!r}",
            shard_ids=[spec.shard_id for spec in missing],
        )
    with self._report_lock:
        self.degraded_count += 1
    self.obs.count("metadb.shard.degraded", db=self.name)
    return PartialResult(rows, missing)


# -- repro.repl.group ---------------------------------------------------------

def read_with_failover(self: ReplicaGroup, statement: Select) -> list[dict]:
    head = self.log.head_lsn
    with self._lock:
        replicas = list(self.replicas)
        start = self._read_cursor
        self._read_cursor += 1
    candidates = []
    if self._breaker_for(self.primary.name).state is not BreakerState.OPEN:
        candidates.append((self.primary.name, self.primary, None))
    for replica in replicas:
        if replica.crashed or replica.state is ReplicaState.REJOINING:
            continue
        if self._breaker_for(replica.name).state is BreakerState.OPEN:
            continue
        if replica.lag(head) > self.max_lag:
            self.obs.count("repl.stale_skips", db=self.name,
                           replica=replica.name)
            continue
        candidates.append((replica.name, replica.db, replica))
    last_transient: Optional[BaseException] = None
    for offset in range(len(candidates)):
        name, db, replica = candidates[(start + offset) % len(candidates)]
        breaker = self._breaker_for(name)
        if not breaker.allow():
            continue
        try:
            fire_fault(f"repl.replica.{name}.crash")
            rows = db.execute(statement)
        except TRANSIENT_ERRORS as exc:
            breaker.record_failure()
            last_transient = exc
            self.obs.count("repl.failovers", db=self.name, copy=name)
            with self._lock:
                self.failovers += 1
            if replica is not None and breaker.state is BreakerState.OPEN:
                self._transition(replica, ReplicaState.DEAD)
            continue
        breaker.record_success()
        if replica is not None:
            self._update_health(replica)
        with self._lock:
            self.stats.selects += 1
            self.stats.rows_read += len(rows)
            self.reads_by_copy[name] += 1
            if replica is not None:
                replica.reads += 1
        return rows
    if last_transient is not None:
        raise last_transient
    raise BreakerOpen(
        f"repl.{self.name}.reads",
        min((b.retry_after_s() for b in self.breakers.values()), default=0.0),
    )


# -- running a stack on the retired bodies -------------------------------------

def _read_batch(self: ShardedDatabase, selects: Sequence[Select], tx):
    return [execute_select(self, select, tx) for select in selects]


def _group_reads(self: ReplicaGroup, statements: Sequence[Select]):
    return [read_with_failover(self, statement) for statement in statements]


@contextmanager
def installed():
    """Every ``ShardedDatabase`` and ``ReplicaGroup`` read, single or
    batched, takes the retired path while the block runs."""
    saved = (ShardedDatabase._read_batch, ReplicaGroup._read_with_failover)
    ShardedDatabase._read_batch = _read_batch
    ReplicaGroup._read_with_failover = _group_reads
    try:
        yield
    finally:
        ShardedDatabase._read_batch, ReplicaGroup._read_with_failover = saved
