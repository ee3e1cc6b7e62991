"""Merge phase of scatter-gather SELECTs.

Each shard executes a rewritten per-shard SELECT; this module combines
the per-shard result lists so the merged output is exactly what a
single-node :func:`repro.metadb.query.execute_select` would return:

* **ORDER BY** — each shard returns its rows already ordered, offset
  zero, so each list is a sorted run and the merge takes the first
  ``k = offset + limit`` rows of the runs, k-way, NULLS LAST in both
  directions, ties in shard order.  A LIMIT is pushed down as a *share*:
  each of ``n`` shards is asked for ``min(k, 2·⌈k/n⌉)`` rows and for the
  rest only when what it kept back could still be among the first ``k``
  (:meth:`_OrderedMerge.__call__`).  A key of mixed directions has no one
  sort key: every shard is asked for ``k`` rows and the merge is the
  engine's own stable sort over the lists laid end to end.
* **Aggregates** — rewritten into decomposable partials (``avg`` becomes
  a shard-local ``sum`` + ``count`` pair) and recombined; GROUP BY
  groups merge by key and are emitted in the single-node engine's
  deterministic group order.
* **Plain scans** — concatenated in shard order with the global
  OFFSET/LIMIT applied after the fact.
"""

from __future__ import annotations

from dataclasses import replace
from heapq import merge as merge_runs
from itertools import chain, islice
from typing import Any, Callable, Optional, Sequence

from ..metadb.query import Aggregate, Select, _apply_order, _project

Rows = list  # list[dict[str, Any]]


#: ``ask_rest(index, statement)``: run ``index``'s shard is asked for the
#: statement and its rows come back (none if it cannot answer).
AskRest = Callable[[int, Select], Rows]


def prepare_scatter(select: Select, n_shards: int = 1) -> tuple[Select, "Merge"]:
    """Rewrite ``select`` for execution on each of ``n_shards`` shards
    and build its merge."""
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
        merge = _OrderedMerge(select, n_shards)
        shard_select = replace(select, columns=None, limit=merge.share, offset=0)
        return shard_select, merge
    shard_select = replace(select, limit=stop, offset=0)
    return shard_select, _ConcatMerge(select)


class Merge:
    """Combines per-shard result lists into the global result."""

    def __call__(self, shard_results: Sequence[Rows],
                 ask_rest: Optional[AskRest] = None) -> Rows:
        raise NotImplementedError


class _ConcatMerge(Merge):
    def __init__(self, select: Select):
        self._offset = select.offset
        self._stop = None if select.limit is None else select.offset + select.limit

    def __call__(self, shard_results: Sequence[Rows],
                 ask_rest: Optional[AskRest] = None) -> Rows:
        return list(islice(chain.from_iterable(shard_results),
                           self._offset, self._stop))


class _OrderedMerge(Merge):
    #: A shard's first share of ``k = offset + limit`` rows is this many
    #: times its even part ``⌈k/n⌉``.  Measured on 11 000 operations of
    #: the ``composed_rw`` stream (4 shards, seed 2003; 7 040 scattered
    #: ORDER BY ... LIMIT 40 or 100): at 1 every statement topped up every
    #: shard (28 188 reads); at 2, 23 top-up reads and 95 rows shipped a
    #: statement; at 3, none and 142 rows; 4 is the full push-down.
    SHARE_FACTOR = 2

    def __init__(self, select: Select, n_shards: int = 1):
        self._order_by = select.order_by
        self._offset = select.offset
        self._stop = stop = \
            None if select.limit is None else select.offset + select.limit
        self._columns = select.columns
        directions = {direction for _column, direction in select.order_by}
        self._reverse = directions == {"desc"}
        self._key = _run_key(select.order_by, self._reverse) \
            if len(directions) == 1 else None
        #: What a shard is asked for first, and the statement for the rest.
        self.share, self.rest = stop, None
        if stop is not None and self._key is not None and select.join is None:
            share = self.SHARE_FACTOR * -(-stop // n_shards)
            if share < stop:
                self.share = share
                self.rest = replace(select, columns=None, offset=share,
                                    limit=stop - share)

    def _head(self, runs: Sequence[Rows]) -> Rows:
        """The first ``offset + limit`` rows of the sorted runs."""
        if self._key is None:
            return _apply_order(list(chain.from_iterable(runs)),
                                self._order_by)[:self._stop]
        return list(islice(
            merge_runs(*runs, key=self._key, reverse=self._reverse),
            self._stop))

    def __call__(self, shard_results: Sequence[Rows],
                 ask_rest: Optional[AskRest] = None) -> Rows:
        """Merge, topping up first where a share fell short.

        A shard that sent fewer rows than its share has no more.  One
        that sent a full share kept back only rows sorting at or after
        its last; if that row sorts strictly after the ``k``-th row so
        far, ``k`` rows precede all it kept back.  Otherwise, a tie
        included (ties fall in shard order, and what it kept back may tie
        too), it is asked for the rest.  One round is enough: more rows
        only move the ``k``-th row earlier (DESIGN.md, *Sharding*).
        """
        head = self._head(shard_results)
        if self.rest is not None and ask_rest is not None:
            due = [index for index, run in enumerate(shard_results)
                   if len(run) == self.share]
            if due and len(head) == self._stop:
                key, bound = self._key, self._key(head[-1])
                after = (lambda end: end < bound) if self._reverse \
                    else (lambda end: bound < end)
                due = [index for index in due
                       if not after(key(shard_results[index][-1]))]
            if due:
                shard_results = list(shard_results)
                for index in due:
                    shard_results[index] = \
                        shard_results[index] + ask_rest(index, self.rest)
                head = self._head(shard_results)
        return [_project(row, self._columns) for row in head[self._offset:]]


def _run_key(order_by: Sequence[tuple[str, str]], reverse: bool):
    """The sort key the runs of a one-direction ORDER BY are merged on:
    ``(is NULL, value)`` per column ascending, ``(is not NULL, value)``
    under a reversed merge, so NULLs come last both ways and no value is
    compared with NULL (:func:`repro.metadb.query._apply_order`'s keys)."""
    columns = [column for column, _direction in order_by]
    if len(columns) == 1:
        column = columns[0]
        if reverse:
            return lambda row: ((v := row.get(column)) is not None, v)
        return lambda row: ((v := row.get(column)) is None, v)
    return lambda row: tuple((((v := row.get(column)) is None) != reverse, v)
                             for column in columns)


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

    def __call__(self, shard_results: Sequence[Rows],
                 ask_rest: Optional[AskRest] = None) -> Rows:
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
