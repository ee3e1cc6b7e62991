"""Routing: resolve a statement's WHERE clause to a shard subset.

Pruning reuses the planner's predicate analysis (PR 4): the same
``equality_on`` / ``in_list_on`` / ``range_on`` helpers that pick index
access paths also decide which shards a query can possibly touch.

* **By partition column** (:func:`route_partitioned`): equality pins one
  shard; an IN list resolves each value to its owner; a range (including
  open-ended ``>=`` / ``<`` bounds) selects every overlapping shard.
* **By key** (:func:`route_keyed`): an equality or IN over a key the
  shard map does not order (a partitioned table's primary key, a
  following child's parent key, an item column) is located by asking
  the shards' own indexes which of them holds each value.  The router
  keeps no copy of that mapping and no per-row state.

Disjunctions and predicates that mention neither scatter to all shards:
correct, just not pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from ..metadb.predicate import Conjunction, equality_on, in_list_on, range_on
from .partition import ShardMap, ShardSpec

#: Route kinds, also the ``route`` label on the obs counter.
PRUNED = "pruned"        # a strict subset of shards
SCATTER = "scatter"      # every shard
BROADCAST = "broadcast"  # table replicated everywhere: reads ask any one
                         # shard, writes go to all of them

#: The rule a decision was made by (``RouteDecision.by``).
BY_PARTITION = "partition"  # the partition column against the shard ranges
BY_KEY = "key"              # the one shard holding a primary or parent key
BY_ITEM = "item"            # every shard holding rows of the item
BY_OWNER = "owner"          # placing a row: the shard of its item's owner
BY_LOCAL = "local"          # a local table: one shard written, all read


@dataclass(frozen=True)
class RouteDecision:
    """Which shards a statement touches and why."""

    kind: str
    specs: tuple[ShardSpec, ...]
    by: Optional[str] = None

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(spec.shard_id for spec in self.specs)


def route_partitioned(where: Conjunction, column: str,
                      shard_map: ShardMap) -> RouteDecision:
    """Shard subset for a statement over a partitioned table."""
    value = equality_on(where, column)
    if value is not None:
        specs = (shard_map.spec_for_value(value),)
        return _decide(specs, shard_map, BY_PARTITION)
    in_values = in_list_on(where, column)
    if in_values is not None:
        return _decide(shard_map.specs_for_values(in_values), shard_map,
                       BY_PARTITION)
    bounds = range_on(where, column)
    if bounds is not None:
        low, high, low_inclusive, high_inclusive = bounds
        specs = shard_map.specs_for_range(low, high, low_inclusive, high_inclusive)
        return _decide(specs, shard_map, BY_PARTITION)
    return scatter_all(shard_map)


def key_values(where: Conjunction, column: str) -> Optional[Iterable[Any]]:
    """The values an equality or IN conjunct pins ``column`` to, if any."""
    value = equality_on(where, column)
    if value is not None:
        return (value,)
    return in_list_on(where, column)


def route_keyed(values: Iterable[Any], shard_map: ShardMap,
                holds: Callable[[ShardSpec, Any], bool],
                unreachable: Collection[int] = (), by: str = BY_KEY,
                every_holder: bool = False,
                first: Optional[int] = None) -> RouteDecision:
    """Shard subset for a statement that pins a key to ``values``.

    ``holds(spec, value)`` asks one shard whether it holds the key;
    ``first`` names the shard to ask first.  A key has one holder and the
    asking stops there, unless ``every_holder``: rows of one item may sit
    on several shards (one written before its owner existed stays where
    it was put), and the statement must reach them all.

    Shards in ``unreachable`` are not asked: a value that may live on
    one of them (no reachable shard holds it, or every holder counts)
    makes them all targets, so the read degrades by name instead of
    coming back silently empty.  A value nobody holds, with every shard
    asked, routes to the first shard, so the statement keeps its
    single-node answer (no rows, a zero count, the foreign-key error of
    an insert).
    """
    specs = shard_map.specs
    asked: Sequence[ShardSpec] = specs
    unasked: Sequence[int] = ()
    if unreachable:
        asked = [spec for spec in specs if spec.shard_id not in unreachable]
        unasked = [spec.shard_id for spec in specs
                   if spec.shard_id in unreachable]
    if first is not None:
        asked = sorted(asked, key=lambda spec: spec.shard_id != first)
    targets: set[int] = set()
    for value in values:
        found = False
        for spec in asked:
            if holds(spec, value):
                targets.add(spec.shard_id)
                found = True
                if not every_holder:
                    break
        if every_holder or not found:
            targets.update(unasked)
        if len(targets) == len(specs):
            break
    if not targets:
        targets.add(specs[0].shard_id)
    return _decide(tuple(spec for spec in specs if spec.shard_id in targets),
                   shard_map, by)


def scatter_all(shard_map: ShardMap, kind: str = SCATTER) -> RouteDecision:
    """Every shard of the map; the map is immutable, so it keeps the one
    decision of each kind (SCATTER, or BROADCAST for a read any one of
    them answers) instead of building it per statement."""
    decision = shard_map.whole.get(kind)
    if decision is None:
        decision = shard_map.whole[kind] = RouteDecision(kind, shard_map.specs)
    return decision


def _decide(specs: tuple[ShardSpec, ...], shard_map: ShardMap,
            by: str) -> RouteDecision:
    if len(specs) >= len(shard_map):
        return scatter_all(shard_map)
    return RouteDecision(PRUNED, specs, by)
