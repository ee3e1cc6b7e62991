"""Query objects, planning and execution.

The DM component of HEDC deliberately exposes *no* SQL in its API: callers
build collection objects which the database layer "parses, analyzes,
verifies and transforms into regular SQL queries" (paper §5.4).  These
classes are those collection objects.  The planner picks an access path
(primary-key probe, hash probe, IN-list multi-probe, ordered range scan,
or full scan) by costing every sargable conjunct against live table
statistics, and the executor *streams*: the WHERE clause is compiled into
a fused closure, LIMIT/OFFSET are pushed into index scans that stop
early, and a columnar scan orders its selection vector on the column
arrays, so only the rows a statement returns are ever gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import QueryError, SchemaError
from .predicate import (
    Predicate,
    TruePredicate,
    conjuncts,
    equality_on,
    in_list_on,
    range_on,
)
from .storage import Table, TableStats


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

    def __post_init__(self) -> None:
        for _column, direction in self.order_by:
            if direction not in ("asc", "desc"):
                raise QueryError(f"order direction must be asc/desc, got {direction!r}")
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be non-negative")
        if self.offset < 0:
            raise QueryError("offset must be non-negative")
        if self.group_by and not self.aggregates:
            raise QueryError("GROUP BY requires at least one aggregate")


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
    #: | "columnar_scan"
    access: str
    index_column: Optional[str] = None
    ordered: bool = False   # True when the scan already satisfies ORDER BY
    keys: Optional[tuple] = None        # IN multi-probe keys, deterministic order
    estimated_rows: int = 0             # planner cardinality estimate
    table_rows: int = 0                 # statistics snapshot the estimate used
    limit_pushdown: bool = False        # executor stops the scan at OFFSET+LIMIT
    topn: bool = False                  # unordered stream, ORDER BY cut to OFFSET+LIMIT
    segments: int = 0                   # columnar only: total segments
    segments_pruned: int = 0            # columnar only: skipped via zone maps
    array_order: bool = False           # columnar only: ORDER BY on the column arrays

    def describe(self) -> str:
        if self.access == "full_scan":
            return "FULL SCAN"
        if self.access == "columnar_scan":
            scanned = self.segments - self.segments_pruned
            order = ", ORDER BY on column arrays" if self.array_order else ""
            return f"COLUMNAR SCAN ({scanned}/{self.segments} segments){order}"
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
            "segments_total": self.segments,
            "segments_pruned": self.segments_pruned,
            "array_order": self.array_order,
            "description": self.describe(),
        }


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
                per_key = stats.rows_per_key.get(column, 1.0)
                estimate = max(1, round(per_key))
                access = "pk_probe" if index.name == "pk" else "hash_probe"
                rank = 0 if access == "pk_probe" else 1
                candidates.append(
                    (estimate, rank, Plan(access, column, estimated_rows=estimate,
                                          table_rows=n_rows))
                )
                continue
            if index is not None:
                in_values = in_list_on(where, column)
                if in_values is not None:
                    keys = tuple(sorted(in_values, key=repr))
                    per_key = stats.rows_per_key.get(column, 1.0)
                    estimate = max(1, round(per_key * len(keys)))
                    candidates.append(
                        (estimate, 2, Plan("in_probe", column, keys=keys,
                                           estimated_rows=estimate, table_rows=n_rows))
                    )
            ordered_index = table.ordered_index_on(column)
            if ordered_index is not None:
                bounds = range_on(where, column)
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
    a dominating scan goes columnar where the table allows it."""
    stats = table.stats()
    n_rows = stats.row_count
    indexed = _index_plan(table, select, stats)
    best_estimate = None if indexed is None else indexed.estimated_rows
    columnar = _columnar_plan(table, select, n_rows, best_estimate)
    if columnar is not None:
        return _finalize(columnar, select)
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


#: Below this row count a columnar rebuild + mask evaluation cannot beat
#: the row path, so small tables always keep row-at-a-time plans.
COLUMNAR_MIN_ROWS = 256


def _columnar_plan(
    table: Table, select: Select, n_rows: int, best_estimate: Optional[int]
) -> Optional[Plan]:
    """The vectorized access path, when a scan dominates.

    Chosen for columnar-eligible tables when the query has no join, the
    table is big enough to amortise vectorization, and every index
    candidate is unselective (best estimate within 4x of a full scan) or
    absent.  Without any candidate, a *bounded* ordered fallback (ORDER
    BY column with an ordered index plus LIMIT) still wins — it streams
    in order and stops early, which no mask evaluation can match.
    """
    # Cheap integer disqualifiers first: most OLTP probes stop here.
    if n_rows < COLUMNAR_MIN_ROWS or select.join is not None:
        return None
    if best_estimate is not None and best_estimate * 4 < n_rows:
        return None
    if not table.columnar_eligible:
        return None
    if best_estimate is None and select.limit is not None and len(select.order_by) == 1:
        if table.ordered_index_on(select.order_by[0][0]) is not None:
            return None
    store = table.columnar_store()
    pruned, total = store.prune_counts(select.where)
    surviving = total - pruned
    estimate = n_rows if total == 0 else round(n_rows * surviving / total)
    return Plan(
        "columnar_scan",
        estimated_rows=estimate,
        table_rows=n_rows,
        segments=total,
        segments_pruned=pruned,
        array_order=bool(select.order_by) and not select.aggregates
        and store.orders_on_arrays(select.order_by),
    )


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
        segments=plan.segments, segments_pruned=plan.segments_pruned,
        array_order=plan.array_order,
    )


def _candidate_rowids(table: Table, select: Select, plan: Plan) -> Optional[Iterable[int]]:
    """Rowids the plan's index hands out, in its order; None for a scan."""
    where = select.where
    if plan.access in ("pk_probe", "hash_probe"):
        index = table.hash_index_on(plan.index_column)
        return index.probe(equality_on(where, plan.index_column))
    if plan.access == "in_probe":
        return table.hash_index_on(plan.index_column).probe_many(plan.keys)
    if plan.access == "range_scan":
        ordered_index = table.ordered_index_on(plan.index_column)
        bounds = range_on(where, plan.index_column)
        descending = bool(
            plan.ordered and select.order_by and select.order_by[0][1] == "desc"
        )
        if bounds is None:
            return ordered_index.scan(descending=descending)
        low, high, low_inclusive, high_inclusive = bounds
        return ordered_index.range(
            low, high,
            low_inclusive=low_inclusive, high_inclusive=high_inclusive,
            descending=descending,
        )
    return None


def _candidate_rows(table: Table, select: Select, plan: Plan) -> Iterator[dict[str, Any]]:
    rowids = _candidate_rowids(table, select, plan)
    return table.rows() if rowids is None else map(table.row, rowids)


def index_rowids(table: Table, where: Optional[Predicate]) -> Optional[set[int]]:
    """Rowids of the cheapest index access path for ``where``: a superset
    of the rows it matches, for UPDATE and DELETE to filter.  None when no
    index applies and the caller has to walk the table."""
    select = Select(table.name, where=where)
    try:
        plan = _index_plan(table, select, table.stats())
        if plan is None:
            return None
        return set(_candidate_rowids(table, select, plan))
    except TypeError:
        # A literal the index keys do not compare (or hash) with.  The
        # matcher is false on such a comparison; let it decide row by row.
        return None


def _project(row: dict[str, Any], columns: Optional[Sequence[str]]) -> dict[str, Any]:
    if not columns:
        return dict(row)
    try:
        return {column: row[column] for column in columns}
    except KeyError as exc:
        raise QueryError(f"unknown output column {exc.args[0]!r}") from exc


def _apply_order(rows: list[dict[str, Any]], order_by: Sequence[tuple[str, str]]):
    """Sort ``rows`` in place by ORDER BY: NULLS LAST in both directions,
    ties in input order.

    One stable pass per column, minor column first, so every pass
    compares native ``(flag, value)`` pairs and no pass compares a value
    with NULL.  A DESC pass sorts reversed on ``(not_null, value)``:
    NULLs still come last and, a reversed sort being stable too, ties
    keep their input order.
    """
    for column, direction in reversed(order_by):
        if direction == "desc":
            rows.sort(
                key=lambda row, c=column: ((v := row.get(c)) is not None, v),
                reverse=True,
            )
        else:
            rows.sort(key=lambda row, c=column: ((v := row.get(c)) is None, v))
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
) -> list[dict[str, Any]]:
    """Run ``select`` against ``tables`` and return result rows.

    The matched stream stays lazy end to end on the common paths: a
    compiled WHERE closure filters candidates as the index scan produces
    them and ``islice`` implements LIMIT/OFFSET pushdown (the scan stops
    at OFFSET+LIMIT matches).  A columnar scan filters, orders and cuts
    positions on the column arrays and gathers only the rows it returns;
    an ORDER BY the arrays cannot reproduce exactly (see
    :meth:`ColumnarStore.ordered_positions`) sorts the gathered rows like
    any other unordered stream.  Joins and aggregates still materialise,
    as they must.
    """
    if select.table not in tables:
        raise SchemaError(f"unknown table {select.table!r}")
    table = tables[select.table]
    if plan is None:
        plan = plan_select(table, select)
    where = select.where
    stop = None if select.limit is None else select.offset + select.limit
    if plan.access == "columnar_scan":
        store = table.columnar_store()
        positions = store.scan_positions(where)
        if select.aggregates and select.join is None:
            vectorized = store.vector_aggregates(select, positions)
            if vectorized is not None:
                return vectorized
        elif select.join is None:
            if select.order_by:
                ordered = store.ordered_positions(positions, select.order_by, stop)
            else:
                ordered = positions[:stop]
            if ordered is not None:
                rows = store.gathered_rows(ordered[select.offset:])
                return [_project(row, select.columns) for row in rows]
        # The mask already applied WHERE; gather survivors in scan order.
        matched_stream: Iterator[dict[str, Any]] = store.gathered_rows(positions)
    else:
        candidates = _candidate_rows(table, select, plan)
        if where is None or isinstance(where, TruePredicate):
            matched_stream = candidates
        else:
            matcher = where.compile()
            matched_stream = (row for row in candidates if matcher(row))

    if select.join is not None:
        matched = _execute_join(tables, select, list(matched_stream))
        if select.aggregates:
            return _execute_aggregates(matched, select)
        if select.order_by:
            _apply_order(matched, select.order_by)
        if select.offset:
            matched = matched[select.offset:]
        if select.limit is not None:
            matched = matched[: select.limit]
        return [_project(row, select.columns) for row in matched]

    if select.aggregates:
        return _execute_aggregates(list(matched_stream), select)

    if select.order_by and not plan.ordered:
        rows = _apply_order(list(matched_stream), select.order_by)[select.offset:stop]
    else:
        # Scan order is the output order: push LIMIT/OFFSET into the scan.
        rows = list(islice(matched_stream, select.offset, stop))
    return [_project(row, select.columns) for row in rows]


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
