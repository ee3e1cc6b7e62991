"""Merge phase of scatter-gather SELECTs.

Each shard executes a rewritten per-shard SELECT; this module combines
the per-shard result lists so the merged output is exactly what a
single-node :func:`repro.metadb.query.execute_select` would return:

* **ORDER BY** — each shard returns its rows already ordered (with
  LIMIT pushed down as ``offset + limit`` per shard, offset zero), so
  no shard ships more than ``offset + limit`` rows, and the merge is the
  engine's own stable NULLS-LAST sort over the shard lists laid end to
  end: each list is already a sorted run, and ties fall in shard order.
* **Aggregates** — rewritten into decomposable partials (``avg`` becomes
  a shard-local ``sum`` + ``count`` pair) and recombined; GROUP BY
  groups merge by key and are emitted in the single-node engine's
  deterministic group order.
* **Plain scans** — concatenated in shard order with the global
  OFFSET/LIMIT applied after the fact.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, islice
from typing import Any, Optional, Sequence

from ..metadb.query import Aggregate, Select, _apply_order, _project

Rows = list  # list[dict[str, Any]]


def prepare_scatter(select: Select) -> tuple[Select, "Merge"]:
    """Rewrite ``select`` for per-shard execution and build its merge."""
    if select.aggregates:
        partials, combiners = _rewrite_aggregates(select.aggregates)
        shard_select = replace(
            select, columns=None, order_by=(), limit=None, offset=0,
            aggregates=partials,
        )
        return shard_select, _AggregateMerge(select, combiners)
    stop = None if select.limit is None else select.offset + select.limit
    if select.order_by:
        # Strip the projection: the merge needs the ORDER BY columns even
        # when they are not in the output, and projects at the end.
        shard_select = replace(select, columns=None, limit=stop, offset=0)
        return shard_select, _OrderedMerge(select)
    shard_select = replace(select, limit=stop, offset=0)
    return shard_select, _ConcatMerge(select)


class Merge:
    """Combines per-shard result lists into the global result."""

    def __call__(self, shard_results: Sequence[Rows]) -> Rows:
        raise NotImplementedError


class _ConcatMerge(Merge):
    def __init__(self, select: Select):
        self._offset = select.offset
        self._stop = None if select.limit is None else select.offset + select.limit

    def __call__(self, shard_results: Sequence[Rows]) -> Rows:
        return list(islice(chain.from_iterable(shard_results),
                           self._offset, self._stop))


class _OrderedMerge(Merge):
    def __init__(self, select: Select):
        self._order_by = select.order_by
        self._offset = select.offset
        self._stop = None if select.limit is None else select.offset + select.limit
        self._columns = select.columns

    def __call__(self, shard_results: Sequence[Rows]) -> Rows:
        rows = _apply_order(list(chain.from_iterable(shard_results)), self._order_by)
        return [_project(row, self._columns)
                for row in rows[self._offset:self._stop]]


def _rewrite_aggregates(
    aggregates: Sequence[Aggregate],
) -> tuple[tuple[Aggregate, ...], tuple[tuple, ...]]:
    """Per-shard partial aggregates plus combine instructions.

    ``count``/``sum``/``min``/``max`` are already decomposable and keep
    their aliases; ``avg`` is split into a shard-local sum and non-null
    count under reserved aliases and recombined as ``total/count``.
    """
    partials: list[Aggregate] = []
    combiners: list[tuple] = []
    for aggregate in aggregates:
        if aggregate.func == "avg":
            sum_alias = f"__shard_sum__{aggregate.alias}"
            n_alias = f"__shard_n__{aggregate.alias}"
            partials.append(Aggregate("sum", aggregate.column, sum_alias))
            partials.append(Aggregate("count", aggregate.column, n_alias))
            combiners.append(("avg", aggregate.alias, sum_alias, n_alias))
        else:
            partials.append(aggregate)
            combiners.append((aggregate.func, aggregate.alias, aggregate.alias))
    return tuple(partials), tuple(combiners)


def _combine(partial_rows: Rows, combiners: Sequence[tuple]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for combiner in combiners:
        func, alias = combiner[0], combiner[1]
        if func == "avg":
            _func, _alias, sum_alias, n_alias = combiner
            total_n = sum(row[n_alias] for row in partial_rows)
            totals = [row[sum_alias] for row in partial_rows
                      if row[sum_alias] is not None]
            out[alias] = sum(totals) / total_n if total_n else None
            continue
        source = combiner[2]
        if func == "count":
            out[alias] = sum(row[source] for row in partial_rows)
            continue
        values = [row[source] for row in partial_rows if row[source] is not None]
        if not values:
            out[alias] = None
        elif func == "sum":
            out[alias] = sum(values)
        elif func == "min":
            out[alias] = min(values)
        elif func == "max":
            out[alias] = max(values)
    return out


class _AggregateMerge(Merge):
    def __init__(self, select: Select, combiners: Sequence[tuple]):
        self._group_by = tuple(select.group_by)
        self._combiners = tuple(combiners)

    def __call__(self, shard_results: Sequence[Rows]) -> Rows:
        if not self._group_by:
            # Each shard contributes exactly one partial row.
            partial_rows = [rows[0] for rows in shard_results if rows]
            return [_combine(partial_rows, self._combiners)]
        groups: dict[tuple, Rows] = {}
        for rows in shard_results:
            for row in rows:
                key = tuple(row.get(column) for column in self._group_by)
                groups.setdefault(key, []).append(row)
        result = []
        # Same deterministic group order as the single-node engine.
        for key, group_rows in sorted(
            groups.items(), key=lambda item: tuple(map(repr, item[0]))
        ):
            out = dict(zip(self._group_by, key))
            out.update(_combine(group_rows, self._combiners))
            result.append(out)
        return result
