"""Query objects, planning and execution.

The DM component of HEDC deliberately exposes *no* SQL in its API: callers
build collection objects which the database layer "parses, analyzes,
verifies and transforms into regular SQL queries" (paper §5.4).  These
classes are those collection objects.  The planner picks an access path
(primary-key probe, hash probe, IN-list multi-probe, ordered range scan,
or full scan) by costing every sargable conjunct against live table
statistics, and the executor *streams*: what the access path leaves of
the WHERE is compiled into one closure, the only Python call a candidate
row costs, and LIMIT/OFFSET are pushed into index scans that stop early.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import QueryError, SchemaError
from .predicate import (
    And,
    Between,
    Comparison,
    Conjunction,
    In,
    Predicate,
    Ref,
    conjuncts,
    equality_on,
    in_list_on,
    range_on,
)
from .storage import Table, TableStats
from .types import ColumnType


@dataclass(frozen=True)
class Aggregate:
    """An aggregate output column, e.g. ``Aggregate("count", "*", "n")``."""

    func: str
    column: str
    alias: str

    _FUNCS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self._FUNCS:
            raise QueryError(f"unknown aggregate function {self.func!r}")


@dataclass(frozen=True)
class Join:
    """Equi-join with another table on left.column = right.column: inner,
    or left-outer (``outer``), where a left row without a match comes
    back alone, the right table's columns absent."""

    table: str
    left_column: str
    right_column: str
    outer: bool = False


@dataclass
class Select:
    """A declarative SELECT over one table (optionally one join)."""

    table: str
    columns: Optional[Sequence[str]] = None
    where: Optional[Predicate] = None
    order_by: Sequence[tuple[str, str]] = ()
    limit: Optional[int] = None
    offset: int = 0
    group_by: Sequence[str] = ()
    aggregates: Sequence[Aggregate] = ()
    join: Optional[Join] = None
    #: The prepared text this statement was bound from (:mod:`.sql`), what a
    #: database keeps its plan under: not part of its value, not replaced.
    shape: Any = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for _column, direction in self.order_by:
            if direction not in ("asc", "desc"):
                raise QueryError(f"order direction must be asc/desc, got {direction!r}")
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be non-negative")
        if self.offset < 0:
            raise QueryError("offset must be non-negative")
        if self.offset + (self.limit or 0) > sys.maxsize:
            raise QueryError("limit plus offset must not exceed sys.maxsize")
        if self.group_by and not self.aggregates:
            raise QueryError("GROUP BY requires at least one aggregate")
        if self.aggregates:
            named = {*self.group_by, *(aggregate.alias for aggregate in self.aggregates)}
            for column, _direction in self.order_by:
                if column not in named:
                    raise QueryError(f"ORDER BY {column!r} names neither a GROUP BY "
                                     "column nor an aggregate alias")

    def with_where(self, where: Optional[Predicate]) -> "Select":
        """This statement under ``where``, its shape kept and its lists
        its own: what a bound or rebound template hands out."""
        statement = Select.__new__(Select)
        fields = statement.__dict__
        fields.update(self.__dict__)
        fields["where"] = where
        if self.columns is not None:
            fields["columns"] = [*self.columns]
        fields["order_by"], fields["group_by"], fields["aggregates"] = \
            [*self.order_by], [*self.group_by], [*self.aggregates]
        return statement


@dataclass
class Insert:
    table: str
    values: dict[str, Any]


@dataclass
class Update:
    table: str
    changes: dict[str, Any]
    where: Optional[Predicate] = None


@dataclass
class Delete:
    table: str
    where: Optional[Predicate] = None


@dataclass
class Explain:
    """``EXPLAIN SELECT ...`` — executes to the chosen plan, not rows."""

    select: Select

    @property
    def table(self) -> str:
        return self.select.table


@dataclass(frozen=True)
class Plan:
    """Chosen access path plus executor strategy; also the EXPLAIN output."""

    #: "pk_probe" | "hash_probe" | "in_probe" | "range_scan" | "full_scan"
    access: str
    index_column: Optional[str] = None
    ordered: bool = False   # True when the scan already satisfies ORDER BY
    keys: Optional[tuple] = None        # IN multi-probe keys, deterministic order
    estimated_rows: int = 0             # planner cardinality estimate
    table_rows: int = 0                 # statistics snapshot the estimate used
    limit_pushdown: bool = False        # executor stops the scan at OFFSET+LIMIT
    topn: bool = False                  # unordered stream, ORDER BY cut to OFFSET+LIMIT

    def describe(self) -> str:
        if self.access == "full_scan":
            return "FULL SCAN"
        return f"{self.access.upper()} on {self.index_column}"

    def to_dict(self) -> dict[str, Any]:
        """EXPLAIN row: the full plan as a plain dict."""
        return {
            "access": self.access,
            "index_column": self.index_column,
            "ordered": self.ordered,
            "in_keys": len(self.keys) if self.keys is not None else None,
            "estimated_rows": self.estimated_rows,
            "table_rows": self.table_rows,
            "limit_pushdown": self.limit_pushdown,
            "topn": self.topn,
            "description": self.describe(),
        }


def _seekable_range(table: Table, where: Conjunction, column: str) -> Optional[tuple]:
    """``range_on``'s bounds for ``column``, when its ordered index can seek
    them.  A literal the column's values do not compare with (``peak_rate
    > 'x'``) leaves the column to the matcher, which holds that comparison
    false, on every row, as it does on a column without an index."""
    try:
        bounds = range_on(where, column)    # compares the bounds on each side
        if bounds is not None:
            stored = table.schema.column_plan[column][1]()
            for bound in bounds[:2]:
                if bound is not None:
                    bound < stored          # what the matcher's comparison raises
    except TypeError:
        return None
    return bounds


def _index_plan(table: Table, select: Select, stats: TableStats) -> Optional[Plan]:
    """The cheapest index access path over the sargable conjuncts, if any.

    Candidates are ranked by estimated output cardinality (rows the
    executor must touch); ties break towards cheaper probe kinds
    (pk < unique/hash < IN multi-probe < range).
    """
    where = conjuncts(select.where)    # flattened once for every probe below
    n_rows = stats.row_count
    candidates: list[tuple[int, int, Plan]] = []

    seen: set[str] = set()
    for conjunct in where:
        for column in conjunct.columns():
            if column in seen:
                continue
            seen.add(column)
            index = table.hash_index_on(column)
            if index is not None and equality_on(where, column) is not None:
                access = "pk_probe" if index.name == "pk" else "hash_probe"
                rank = 0 if access == "pk_probe" else 1
                candidates.append(
                    (1, rank, Plan(access, column, estimated_rows=1, table_rows=n_rows))
                )
                continue
            if index is not None:
                in_values = in_list_on(where, column)
                if in_values is not None:
                    keys = tuple(sorted(in_values, key=repr))
                    estimate = max(1, len(keys))
                    candidates.append(
                        (estimate, 2, Plan("in_probe", column, keys=keys,
                                           estimated_rows=estimate, table_rows=n_rows))
                    )
            ordered_index = table.ordered_index_on(column)
            if ordered_index is not None:
                bounds = _seekable_range(table, where, column)
                if bounds is not None:
                    low, high, low_inclusive, high_inclusive = bounds
                    estimate = ordered_index.count_range(
                        low, high,
                        low_inclusive=low_inclusive, high_inclusive=high_inclusive,
                    )
                    ordered = (
                        len(select.order_by) == 1 and select.order_by[0][0] == column
                    )
                    candidates.append(
                        (estimate, 3, Plan("range_scan", column, ordered=ordered,
                                           estimated_rows=estimate, table_rows=n_rows))
                    )

    if not candidates:
        return None
    return min(candidates, key=lambda item: (item[0], item[1]))[2]


def plan_select(table: Table, select: Select) -> Plan:
    """Cost every sargable conjunct against table statistics, pick cheapest;
    a top-N may walk its ORDER BY column's index instead."""
    stats = table.stats()
    n_rows = stats.row_count
    indexed = _index_plan(table, select, stats)
    walk = _walk_plan(table, select, n_rows, indexed)
    if walk is not None:
        return walk
    if indexed is not None:
        return _finalize(indexed, select)
    # Ordered scan that satisfies ORDER BY even without a range constraint.
    if len(select.order_by) == 1:
        first_column = select.order_by[0][0]
        if table.ordered_index_on(first_column) is not None:
            plan = Plan("range_scan", first_column, ordered=True,
                        estimated_rows=n_rows, table_rows=n_rows)
            return _finalize(plan, select)
    return _finalize(Plan("full_scan", estimated_rows=n_rows, table_rows=n_rows), select)


def reusable_plan(table: Table, select: Select, plan: Plan) -> bool:
    """True when every binding of ``select``'s shape would be planned so
    under the same statistics: a key probe (one row at most, whichever
    path finds it), or the only index the shape's conjuncts and a top-N's
    ORDER BY offer, or none.  A range's estimate goes stale until the
    statistics move; its path does not."""
    if plan.access in ("pk_probe", "hash_probe"):    # every hash index is unique
        return True
    if plan.access == "in_probe":
        return False
    columns = {getattr(conjunct, "column", None) for conjunct in conjuncts(select.where)}
    if select.limit is not None and len(select.order_by) == 1:     # a top-N may walk
        columns.add(select.order_by[0][0])
    sargable = {column for column in columns if column and table.has_index_on(column)}
    return not sargable or sargable == {plan.index_column}


def _walk_plan(
    table: Table, select: Select, n_rows: int, indexed: Optional[Plan]
) -> Optional[Plan]:
    """The walk down ``c``'s ordered index for ``ORDER BY c ... LIMIT n``,
    when it touches fewer rows than the best index path and than a quarter
    of the table.  It stops at the ``offset+limit``-th match: with the
    best estimate's rows matching evenly over the span it walks (the range
    on ``c``, or the table), after about ``(offset+limit) × span /
    matching`` rows."""
    if (select.limit is None or len(select.order_by) != 1
            or select.join is not None or select.aggregates):
        return None
    column = select.order_by[0][0]
    index = table.ordered_index_on(column)
    if index is None:
        return None
    best = n_rows if indexed is None else indexed.estimated_rows
    if indexed is not None and indexed.ordered:     # the best path is the range on c
        span = best
    else:
        bounds = _seekable_range(table, select.where, column)
        span = n_rows if bounds is None else index.count_range(
            bounds[0], bounds[1], low_inclusive=bounds[2], high_inclusive=bounds[3])
    touched = min(span, -(-(select.offset + select.limit) * span // max(1, best)))
    if touched >= best or touched * 4 >= n_rows:
        return None
    return Plan("range_scan", column, ordered=True, estimated_rows=touched,
                table_rows=n_rows, limit_pushdown=True)


def _finalize(plan: Plan, select: Select) -> Plan:
    """Annotate the access path with the executor strategy it enables."""
    streamable = not select.aggregates and select.join is None
    order_satisfied = not select.order_by or (plan.ordered and len(select.order_by) == 1)
    bounded = select.limit is not None
    limit_pushdown = streamable and bounded and order_satisfied
    topn = streamable and bounded and not order_satisfied and bool(select.order_by)
    if limit_pushdown == plan.limit_pushdown and topn == plan.topn:
        return plan
    return Plan(
        plan.access, plan.index_column, ordered=plan.ordered, keys=plan.keys,
        estimated_rows=plan.estimated_rows, table_rows=plan.table_rows,
        limit_pushdown=limit_pushdown, topn=topn,
    )


def _exact(literal: Any) -> bool:
    """Whether an index finds exactly the keys a comparison with
    ``literal`` accepts: not NULL (no comparison accepts it), an unbound
    :class:`Ref` or NaN (bisect and hashing do not treat it as ``==``)."""
    return literal is not None and type(literal) is not Ref and literal == literal


def _seek_conjuncts(where: list[Predicate], column: str) -> list[Predicate]:
    """The range conjuncts on ``column`` with exact literals, which a seek
    on ``range_on``'s bounds enforces; none when an ``=`` decides those
    bounds alone (``x = 5 AND x > 7``)."""
    enforced = []
    for c in where:
        if getattr(c, "column", None) != column:
            continue
        if type(c) is Comparison and c.op == "=":
            return []
        if type(c) is Between and _exact(c.low) and _exact(c.high) \
                or type(c) is Comparison and c.op != "!=" and _exact(c.value):
            enforced.append(c)
    return enforced


def split_where(table: Table, select: Select,
                plan: Plan) -> tuple[Optional[Iterable[int]], list[Predicate], list[Predicate]]:
    """The rowids ``plan``'s index hands out, in its order (None for a
    scan), the conjuncts of ``select``'s WHERE they enforce exactly, and
    the residual ones the filter still tests: EXPLAIN's ``index_cond``
    and ``filter``."""
    where = conjuncts(select.where)
    column, rowids, enforced = plan.index_column, None, []
    if plan.access == "in_probe":
        rowids = table.hash_index_on(column).probe_many(plan.keys)
        enforced = [c for c in where if type(c) is In and c.column == column][:1]
    elif plan.access in ("pk_probe", "hash_probe"):
        probed = [c for c in where
                  if type(c) is Comparison and c.op == "=" and c.column == column][:1]
        rowids = table.hash_index_on(column).probe(probed[0].value if probed else None)
        enforced = [c for c in probed if _exact(c.value)]
    elif plan.access == "range_scan":
        ordered_index = table.ordered_index_on(column)
        bounds = _seekable_range(table, where, column)
        descending = bool(
            plan.ordered and select.order_by and select.order_by[0][1] == "desc"
        )
        if bounds is None:
            rowids = ordered_index.scan(descending=descending)
        else:
            low, high, low_inclusive, high_inclusive = bounds
            rowids = ordered_index.range(
                low, high,
                low_inclusive=low_inclusive, high_inclusive=high_inclusive,
                descending=descending,
            )
            enforced = _seek_conjuncts(where, column)
    if enforced:
        done = set(map(id, enforced))
        where = [conjunct for conjunct in where if id(conjunct) not in done]
    return rowids, enforced, where


def index_rowids(table: Table,
                 where: Optional[Predicate]) -> Optional[tuple[set[int], Predicate]]:
    """Rowids of the cheapest index access path for ``where``, a superset
    of the rows it matches, and what is left of ``where`` to test, for
    UPDATE and DELETE.  None when no index applies and the caller has to
    walk the table."""
    select = Select(table.name, where=where)
    try:
        plan = _index_plan(table, select, table.stats())
        if plan is None:
            return None
        rowids, _enforced, residual = split_where(table, select, plan)
        return set(rowids), And(residual)
    except TypeError:
        # A literal the index keys do not compare (or hash) with.  The
        # matcher is false on such a comparison; let it decide row by row.
        return None


def _project(row: Mapping[str, Any], columns: Sequence[str]) -> dict[str, Any]:
    try:
        return {column: row[column] for column in columns}
    except KeyError as exc:
        raise QueryError(f"unknown output column {exc.args[0]!r}") from exc


def nulls_last_key(column: str, reverse: bool):
    """ORDER BY's sort key on ``column``: NULLS LAST under a sort
    ascending, and under one with ``reverse`` set (DESC).  NaN sorts
    with the NULLs, as an ordered index keeps it; the rows of that group
    compare equal, so no value is compared with NULL or NaN and a stable
    sort leaves them in input order."""
    if reverse:
        return lambda row: (True, v) if (v := row.get(column)) is not None and v == v \
            else (False, None)
    return lambda row: (False, v) if (v := row.get(column)) is not None and v == v \
        else (True, None)


def _apply_order(rows: list[dict[str, Any]], order_by: Sequence[tuple[str, str]]):
    """Sort ``rows`` in place by ORDER BY: :func:`nulls_last_key` per
    column, ties in input order.

    One stable pass per column, minor column first.  A DESC pass sorts
    reversed: NULLs still come last and, a reversed sort being stable
    too, ties keep their input order.
    """
    for column, direction in reversed(order_by):
        reverse = direction == "desc"
        rows.sort(key=nulls_last_key(column, reverse), reverse=reverse)
    return rows


def _aggregate(rows: list[dict[str, Any]], aggregates: Sequence[Aggregate]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for aggregate in aggregates:
        if aggregate.func == "count":
            if aggregate.column == "*":
                out[aggregate.alias] = len(rows)
            else:
                out[aggregate.alias] = sum(
                    1 for row in rows if row.get(aggregate.column) is not None
                )
            continue
        values = [row[aggregate.column] for row in rows if row.get(aggregate.column) is not None]
        if not values:
            out[aggregate.alias] = None
        elif aggregate.func == "sum":
            out[aggregate.alias] = sum(values)
        elif aggregate.func == "avg":
            out[aggregate.alias] = sum(values) / len(values)
        elif aggregate.func == "min":
            out[aggregate.alias] = min(values)
        elif aggregate.func == "max":
            out[aggregate.alias] = max(values)
    return out


def execute_select(
    tables: dict[str, Table], select: Select, plan: Optional[Plan] = None
) -> list[Mapping[str, Any]]:
    """Run ``select`` against ``tables`` and return result rows.

    The matched stream stays lazy end to end on the common paths, and
    C-level iterators all but the residual matcher: ``map`` fetches the
    index's rows, ``filter`` applies the matcher, ``islice`` stops the
    scan at OFFSET+LIMIT matches.  A ``SELECT *`` row is handed out as a
    read-only view of the row the table stores, not copied: a stored row
    is never changed in place (:class:`~repro.metadb.storage.Table`), so
    the view is a snapshot as of this read.  A column list projects into
    fresh dicts; joins and aggregates still materialise, as they must.
    """
    if select.table not in tables:
        raise SchemaError(f"unknown table {select.table!r}")
    table = tables[select.table]
    if select.aggregates:
        _check_summable(tables, select)
    if plan is None:
        plan = plan_select(table, select)
    rowids, _enforced, residual = split_where(table, select, plan)
    matched = table.rows() if rowids is None else table.fetch(rowids)
    if residual:
        matched = filter((residual[0] if len(residual) == 1 else And(residual)).compile(),
                         matched)
    if select.join is not None:
        matched = _execute_join(tables, select, list(matched))
    if select.aggregates:
        return order_and_cut(_execute_aggregates(list(matched), select), select)
    if select.join is not None or (select.order_by and not plan.ordered):
        rows = order_and_cut(list(matched), select)
    else:
        # Scan order is the output order: push LIMIT/OFFSET into the scan.
        stop = None if select.limit is None else select.offset + select.limit
        rows = islice(matched, select.offset, stop)
    if not select.columns:
        return list(map(MappingProxyType, rows))
    return [_project(row, select.columns) for row in rows]


def order_and_cut(rows: list[dict[str, Any]], select: Select) -> list[dict[str, Any]]:
    """``rows`` in ``select``'s ORDER BY, cut to its OFFSET and LIMIT: the
    matches of a join, or the output of an aggregate, on one node or
    merged from the shards."""
    if select.order_by:
        _apply_order(rows, select.order_by)
    stop = None if select.limit is None else select.offset + select.limit
    return rows[select.offset:stop]


def _check_summable(tables: dict[str, Table], select: Select) -> None:
    """SUM or AVG over a column declared other than INTEGER, REAL or
    TIMESTAMP is a :class:`QueryError`, whatever the rows hold (none
    included).  A joined row's column is the left table's where both
    have it."""
    schemas = [tables[select.table].schema]
    if select.join is not None and select.join.table in tables:
        schemas.append(tables[select.join.table].schema)
    for aggregate in select.aggregates:
        if aggregate.func not in ("sum", "avg"):
            continue
        column = next((schema.columns[aggregate.column] for schema in schemas
                       if aggregate.column in schema.columns), None)
        if column is not None and column.type not in (
                ColumnType.INTEGER, ColumnType.REAL, ColumnType.TIMESTAMP):
            raise QueryError(f"{aggregate.func.upper()}({aggregate.column}) adds up "
                             f"numbers, not {column.type.value}")


def _execute_join(
    tables: dict[str, Table], select: Select, left_rows: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    join = select.join
    if join.table not in tables:
        raise SchemaError(f"unknown join table {join.table!r}")
    right = tables[join.table]
    # Hash join: build on the smaller right side, probe with left rows.
    build: dict[Any, list[dict[str, Any]]] = {}
    right_index = right.hash_index_on(join.right_column)
    if right_index is None:
        for row in right.rows():
            key = row.get(join.right_column)
            if key is not None:
                build.setdefault(key, []).append(row)
    joined: list[dict[str, Any]] = []
    for left_row in left_rows:
        key = left_row.get(join.left_column)
        if key is None:
            matches = ()
        elif right_index is not None:
            matches = [right.row(rowid) for rowid in right_index.probe(key)]
        else:
            matches = build.get(key, ())
        for right_row in matches:
            merged = dict(right_row)
            merged.update(left_row)  # left wins on collisions
            joined.append(merged)
        if join.outer and not matches:
            joined.append(dict(left_row))
    return joined


def _execute_aggregates(rows: list[dict[str, Any]], select: Select) -> list[dict[str, Any]]:
    if not select.group_by:
        return [_aggregate(rows, select.aggregates)]
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in select.group_by)
        groups.setdefault(key, []).append(row)
    result = []
    for key, group_rows in sorted(groups.items(), key=lambda item: tuple(map(repr, item[0]))):
        out = dict(zip(select.group_by, key))
        out.update(_aggregate(group_rows, select.aggregates))
        result.append(out)
    return result
