"""Columnar segments and the vectorized executor (ROADMAP item 3).

A :class:`ColumnarStore` is a column-oriented *copy* of one table's row
store: per column one typed numpy array plus a null bitmap, logically
split into fixed-size segments (:data:`SEGMENT_ROWS`) with a per-segment
zone map (min/max/null count).  Low-cardinality TEXT columns are
dictionary-encoded against a *sorted* dictionary, so range comparisons
and LIKE evaluate in code space (the regex runs once per distinct value,
not once per row).

Consistency model — the row store stays the single source of truth:

* every write goes through the ordinary row/WAL/journal path unchanged;
* each mutation bumps the table's mutation epoch;
* the columnar copy rebuilds lazily from the row store on the first
  columnar scan after the epoch moved (never on the write path).

Arrays are built in the row store's *iteration order* (and keep a
parallel rowid array), so an unordered columnar scan yields rows in
exactly the order a row-at-a-time full scan would — sharded scatter
merges and byte-identical page rendering rely on that.

The vectorized path mirrors the row path's SQL-approximated semantics
bit for bit: NULL never satisfies a comparison, mixed-type comparisons
are false, ``Not`` over a comparison is true on NULL rows, LIKE only
matches strings.  Anything the vector aggregate engine cannot prove it
reproduces exactly (object columns, multi-column GROUP BY, summing
strings) falls back to the row-path aggregation code over the already
vector-filtered rows.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

try:  # pragma: no cover - numpy is a baked-in dependency
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from .predicate import (
    Between,
    Comparison,
    In,
    IsNull,
    Like,
    Predicate,
    TruePredicate,
    conjuncts,
)
from .types import ColumnType

if TYPE_CHECKING:  # pragma: no cover
    from .storage import Table

#: Rows per segment: the pruning granule and the unit of mask evaluation.
SEGMENT_ROWS = 4096

#: Dictionary-encode a TEXT column when it has at most this many distinct
#: values and the dictionary is at most a quarter of the row count.
DICT_MAX_DISTINCT = 4096


def available() -> bool:
    """True when numpy is importable (the columnar tier's only dependency)."""
    return np is not None


class _ColumnData:
    """One column's typed array, null bitmap and optional dictionary.

    ``kind`` is one of ``f8`` (REAL/TIMESTAMP), ``i8`` (INTEGER),
    ``bool`` (BOOLEAN), ``dict`` (dictionary-encoded TEXT: ``values``
    holds int32 codes into the sorted ``dict_values``, -1 for NULL) or
    ``obj`` (everything else, python objects with a typed sentinel at
    NULL positions — the null bitmap, not the sentinel, is authoritative).
    """

    __slots__ = ("kind", "values", "nulls", "dict_values", "code_map")

    def __init__(self, kind: str, values, nulls, dict_values=None, code_map=None):
        self.kind = kind
        self.values = values
        self.nulls = nulls
        self.dict_values = dict_values      # sorted list of distinct strings
        self.code_map = code_map            # value -> code


def _build_column(column_type: ColumnType, raw: list) -> _ColumnData:
    n = len(raw)
    nulls = np.fromiter((value is None for value in raw), np.bool_, n)
    if column_type in (ColumnType.REAL, ColumnType.TIMESTAMP):
        values = np.fromiter(
            (0.0 if value is None else value for value in raw), np.float64, n
        )
        return _ColumnData("f8", values, nulls)
    if column_type is ColumnType.INTEGER:
        try:
            values = np.fromiter(
                (0 if value is None else value for value in raw), np.int64, n
            )
        except OverflowError:
            return _ColumnData(
                "obj", np.array([0 if v is None else v for v in raw], dtype=object),
                nulls,
            )
        return _ColumnData("i8", values, nulls)
    if column_type is ColumnType.BOOLEAN:
        values = np.fromiter((bool(value) for value in raw), np.bool_, n)
        return _ColumnData("bool", values, nulls)
    if column_type is ColumnType.TEXT:
        distinct = sorted({value for value in raw if value is not None})
        if distinct and len(distinct) <= DICT_MAX_DISTINCT and (
            len(distinct) <= max(16, n // 4)
        ):
            code_map = {value: code for code, value in enumerate(distinct)}
            codes = np.fromiter(
                (-1 if value is None else code_map[value] for value in raw),
                np.int32, n,
            )
            return _ColumnData("dict", codes, nulls, distinct, code_map)
        return _ColumnData(
            "obj", np.array(["" if v is None else v for v in raw], dtype=object),
            nulls,
        )
    # BLOB and anything future: python objects, bytes sentinel.
    return _ColumnData(
        "obj", np.array([b"" if v is None else v for v in raw], dtype=object),
        nulls,
    )


class SegmentView:
    """Mask-producing window over one segment — the evaluation target of
    :meth:`Predicate.compile_vector`.

    Every method returns a boolean mask of the segment's length in which
    NULL rows are always False, reproducing the row path's semantics
    (``matches`` returns False on NULL, and mixed-type comparisons are
    False for every row of the — homogeneously typed — column).
    """

    __slots__ = ("_store", "_start", "_stop")

    def __init__(self, store: "ColumnarStore", start: int, stop: int):
        self._store = store
        self._start = start
        self._stop = stop

    def ones(self):
        return np.ones(self._stop - self._start, np.bool_)

    def zeros(self):
        return np.zeros(self._stop - self._start, np.bool_)

    def _column(self, name: str) -> Optional[_ColumnData]:
        return self._store._columns.get(name)

    # -- leaf evaluators ---------------------------------------------------

    def compare(self, name: str, op: str, value: Any):
        column = self._column(name)
        if column is None or value is None:
            return self.zeros()
        if column.kind == "dict":
            return self._compare_dict(column, op, value)
        values = column.values[self._start:self._stop]
        nulls = column.nulls[self._start:self._stop]
        try:
            if op == "=":
                mask = values == value
            elif op == "!=":
                mask = values != value
            elif op == "<":
                mask = values < value
            elif op == "<=":
                mask = values <= value
            elif op == ">":
                mask = values > value
            else:
                mask = values >= value
        except TypeError:
            return self.zeros()
        mask = np.asarray(mask)
        if mask.shape != values.shape:
            # numpy collapsed an incomparable pair to a scalar truth value;
            # the row path would have returned False per row.
            return self.zeros()
        if mask.dtype is not np.dtype(np.bool_):
            mask = mask.astype(np.bool_)
        return mask & ~nulls

    def _compare_dict(self, column: _ColumnData, op: str, value: Any):
        codes = column.values[self._start:self._stop]
        if op in ("=", "!="):
            code = column.code_map.get(value) if isinstance(value, str) else None
            if op == "=":
                return codes == code if code is not None else self.zeros()
            if code is None:
                return codes >= 0
            return (codes >= 0) & (codes != code)
        try:
            if op == ">=":
                return codes >= bisect.bisect_left(column.dict_values, value)
            if op == ">":
                return codes >= bisect.bisect_right(column.dict_values, value)
            if op == "<":
                return (codes >= 0) & (
                    codes < bisect.bisect_left(column.dict_values, value)
                )
            return (codes >= 0) & (
                codes < bisect.bisect_right(column.dict_values, value)
            )
        except TypeError:
            return self.zeros()

    def isin(self, name: str, values) -> Any:
        column = self._column(name)
        if column is None:
            return self.zeros()
        if column.kind == "dict":
            codes = column.values[self._start:self._stop]
            present = [
                column.code_map[value]
                for value in values
                if isinstance(value, str) and value in column.code_map
            ]
            if not present:
                return self.zeros()
            if len(present) == 1:
                return codes == present[0]
            return np.isin(codes, present)
        # OR of equality masks: exactly the row path's per-value python
        # equality, robust to mixed-type IN lists.
        mask = self.zeros()
        for value in values:
            if value is None:
                continue
            mask = mask | self.compare(name, "=", value)
        return mask

    def like(self, name: str, regex) -> Any:
        column = self._column(name)
        if column is None or column.kind in ("f8", "i8", "bool"):
            # Non-string values never match LIKE in the row path.
            return self.zeros()
        nulls = column.nulls[self._start:self._stop]
        fullmatch = regex.fullmatch
        if column.kind == "dict":
            lut = np.fromiter(
                (fullmatch(value) is not None for value in column.dict_values),
                np.bool_, len(column.dict_values),
            )
            lut = np.append(lut, False)  # code -1 (NULL) indexes the False tail
            return lut[column.values[self._start:self._stop]] & ~nulls
        values = column.values[self._start:self._stop]
        mask = np.fromiter(
            (isinstance(value, str) and fullmatch(value) is not None
             for value in values),
            np.bool_, len(values),
        )
        return mask & ~nulls

    def is_null(self, name: str, negated: bool) -> Any:
        column = self._column(name)
        if column is None:
            # Absent column reads as NULL in every row (row.get -> None).
            return self.zeros() if negated else self.ones()
        nulls = column.nulls[self._start:self._stop]
        return ~nulls if negated else nulls.copy()


def _zone_of(column: _ColumnData, start: int, stop: int) -> tuple:
    """(min, max, null_count) for one segment of one column, in *value*
    space (dictionary codes are decoded); min/max are None when the
    segment is all-NULL or its values do not order."""
    nulls = column.nulls[start:stop]
    null_count = int(nulls.sum())
    if null_count == stop - start:
        return (None, None, null_count)
    if column.kind == "dict":
        codes = column.values[start:stop]
        valid = codes[codes >= 0]
        return (
            column.dict_values[int(valid.min())],
            column.dict_values[int(valid.max())],
            null_count,
        )
    if column.kind == "obj":
        values = [
            value
            for value, is_null in zip(column.values[start:stop], nulls)
            if not is_null
        ]
        try:
            return (min(values), max(values), null_count)
        except TypeError:
            return (None, None, null_count)
    values = column.values[start:stop]
    if null_count:
        values = values[~nulls]
    return (values.min().item(), values.max().item(), null_count)


def _prune_checks(where: Optional[Predicate]) -> list:
    """One ``fn(zone, segment_rows) -> bool`` per top-level conjunct that
    can rule a whole segment out against its zone map.  Only top-level
    AND conjuncts are sound to prune on; anything under OR/NOT is left to
    mask evaluation."""

    def excluded(check):
        def prune(zone: tuple, segment_rows: int) -> bool:
            zmin, zmax, null_count = zone
            if null_count == segment_rows:
                return True  # null-rejecting conjunct, all-NULL segment
            if zmin is None:
                return False
            try:
                return check(zmin, zmax)
            except TypeError:
                return False
        return prune

    checks: list[tuple[str, Any]] = []
    for conjunct in conjuncts(where):
        if isinstance(conjunct, Comparison):
            value, op = conjunct.value, conjunct.op
            if value is None:
                checks.append((conjunct.column, lambda zone, rows: True))
            elif op == "=":
                checks.append((conjunct.column, excluded(
                    lambda zmin, zmax, v=value: v < zmin or v > zmax)))
            elif op in (">", ">="):
                strict = op == ">"
                checks.append((conjunct.column, excluded(
                    lambda zmin, zmax, v=value, s=strict:
                        zmax < v or (s and zmax == v))))
            elif op in ("<", "<="):
                strict = op == "<"
                checks.append((conjunct.column, excluded(
                    lambda zmin, zmax, v=value, s=strict:
                        zmin > v or (s and zmin == v))))
            else:  # != : only the all-NULL segment can be skipped
                checks.append((conjunct.column, excluded(
                    lambda zmin, zmax: False)))
        elif isinstance(conjunct, Between):
            low, high = conjunct.low, conjunct.high
            if low is None or high is None:
                # The row path evaluates `low <= x <= high` with a None
                # bound as a TypeError -> False for every row.
                checks.append((conjunct.column, lambda zone, rows: True))
            else:
                checks.append((conjunct.column, excluded(
                    lambda zmin, zmax, lo=low, hi=high: zmax < lo or zmin > hi)))
        elif isinstance(conjunct, In):
            values = [value for value in conjunct.values if value is not None]

            def in_excluded(zmin, zmax, vs=tuple(values)):
                for value in vs:
                    if not (value < zmin or value > zmax):
                        return False
                return True

            checks.append((conjunct.column, excluded(in_excluded)))
        elif isinstance(conjunct, Like):
            checks.append((conjunct.column, excluded(lambda zmin, zmax: False)))
        elif isinstance(conjunct, IsNull):
            if conjunct.negated:
                checks.append((conjunct.column, lambda zone, rows:
                               zone[2] == rows))
            else:
                checks.append((conjunct.column, lambda zone, rows:
                               zone[2] == 0))
    return checks


class ColumnarStore:
    """The columnar copy of one :class:`~repro.metadb.storage.Table`."""

    def __init__(self, table: "Table"):
        self._table = table
        self._built_epoch = -1
        self._rowids = None
        self._columns: dict[str, _ColumnData] = {}
        self._segments: list[tuple[int, int]] = []
        self._zones: dict[str, list[tuple]] = {}
        self._survivors: Optional[tuple] = None  # (where, epoch, segments)
        self.rebuilds = 0
        #: Statistics of the most recent scan (segments scanned/pruned,
        #: rows matched and gathered, whether the scan triggered a
        #: rebuild) — read by the database layer for ``metadb.columnar.*``
        #: metrics.
        self.last_scan: Optional[dict[str, Any]] = None

    # -- lifecycle ---------------------------------------------------------

    def ensure_fresh(self) -> bool:
        """Rebuild from the row store if any mutation landed since the
        last build; returns True when a rebuild happened."""
        epoch = self._table.mutation_epoch
        if epoch == self._built_epoch:
            return False
        self._rebuild()
        self._built_epoch = epoch
        self.rebuilds += 1
        return True

    def _rebuild(self) -> None:
        table = self._table
        items = list(table._rows.items())  # row-store iteration order
        n = len(items)
        self._rowids = np.fromiter((rowid for rowid, _row in items), np.int64, n)
        self._segments = [
            (start, min(start + SEGMENT_ROWS, n))
            for start in range(0, n, SEGMENT_ROWS)
        ]
        schema = table.schema
        self._columns = {}
        self._zones = {}
        for name in schema.column_order:
            raw = [row.get(name) for _rowid, row in items]
            column = _build_column(schema.columns[name].type, raw)
            self._columns[name] = column
            self._zones[name] = [
                _zone_of(column, start, stop) for start, stop in self._segments
            ]

    # -- scanning ----------------------------------------------------------

    def _zone(self, name: str, segment: int, segment_rows: int) -> tuple:
        zones = self._zones.get(name)
        if zones is None:
            return (None, None, segment_rows)  # absent column: all NULL
        return zones[segment]

    def _surviving_segments(self, where: Optional[Predicate]) -> list[int]:
        """Indexes of the segments the zone maps cannot rule out for
        ``where`` (the store must be fresh).  The planner's estimate and
        the scan it leads to ask about the same predicate object back to
        back, so the last answer is kept and serves both."""
        memo = self._survivors
        if memo is not None and memo[0] is where and memo[1] == self._built_epoch:
            return memo[2]
        trivial = where is None or isinstance(where, TruePredicate)
        checks = () if trivial else _prune_checks(where)
        surviving = []
        for segment, (start, stop) in enumerate(self._segments):
            rows = stop - start
            if checks and any(check(self._zone(name, segment, rows), rows)
                              for name, check in checks):
                continue
            surviving.append(segment)
        self._survivors = (where, self._built_epoch, surviving)
        return surviving

    def prune_counts(self, where: Optional[Predicate]) -> tuple[int, int]:
        """(segments_pruned, segments_total) the zone maps give for
        ``where`` — the EXPLAIN view of pruning, no data touched (bringing
        the copy up to date is a side effect EXPLAIN is allowed to have)."""
        self.ensure_fresh()
        total = len(self._segments)
        return (total - len(self._surviving_segments(where)), total)

    def scan_positions(self, where: Optional[Predicate]):
        """Positions (into the store's build order) of rows matching
        ``where``: zone maps prune whole segments, surviving segments are
        mask-evaluated with the compiled vector predicate."""
        rebuilt = self.ensure_fresh()
        trivial = where is None or isinstance(where, TruePredicate)
        vector = None if trivial else where.compile_vector()
        surviving = self._surviving_segments(where)
        parts = []
        for segment in surviving:
            start, stop = self._segments[segment]
            if vector is None:
                parts.append(np.arange(start, stop, dtype=np.int64))
            else:
                mask = vector(SegmentView(self, start, stop))
                hits = np.flatnonzero(mask)
                if len(hits):
                    parts.append(hits + start)
        if parts:
            positions = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            positions = np.empty(0, np.int64)
        self.last_scan = {
            "segments": len(self._segments),
            "segments_scanned": len(surviving),
            "segments_pruned": len(self._segments) - len(surviving),
            "rows_matched": int(len(positions)),
            "rows_gathered": 0,
            "rebuilt": rebuilt,
        }
        return positions

    def orders_on_arrays(self, order_by: Sequence[tuple[str, str]]) -> bool:
        """True when every ORDER BY column is typed, dictionary-coded or
        absent — what :meth:`ordered_positions` orders (the store must be
        fresh); NaN keys can still send one statement to the row sort."""
        columns = self._columns
        return all(columns[name].kind != "obj"
                   for name, _direction in order_by if name in columns)

    def ordered_positions(self, positions, order_by: Sequence[tuple[str, str]],
                          stop: Optional[int] = None):
        """``positions`` in ORDER BY order, cut to the first ``stop``: the
        row path's stable NULLS-LAST sort, done on the column arrays.

        Returns None when the arrays cannot order exactly as python
        orders the row values (object columns; NaN among the selected
        keys, which python's sort places by comparison history) — the
        caller then sorts gathered rows as before.  Keys are the typed
        values and the null bitmap of the selected rows only; DESC
        negates in code space (``-x`` for floats, ``~x`` for integers,
        booleans and dictionary codes, which cannot overflow), and every
        NULL row of a column holds the same sentinel, so NULLs tie.
        """
        if not self.orders_on_arrays(order_by):
            return None
        if stop == 0:
            return positions[:0]
        keys = []  # (nulls or None, values) per ORDER BY column, major first
        for name, direction in order_by:
            column = self._columns.get(name)
            if column is None:
                continue  # absent column: NULL in every row, orders nothing
            values = column.values[positions]
            if column.kind == "f8" and np.isnan(values).any():
                return None
            if direction == "desc":
                values = -values if column.kind == "f8" else ~values
            nulls = column.nulls[positions]
            keys.append((nulls if nulls.any() else None, values))
        if not keys:
            return positions[:stop]
        if stop is not None and stop < len(positions):
            # Only rows up to the stop-th smallest leading key (ties
            # included) can be returned: partition for that key, sort
            # the candidates.  When NULLs reach into the cut, everything
            # ties with the boundary and the whole selection is sorted.
            lead_nulls, lead = keys[0]
            valid = None if lead_nulls is None else np.flatnonzero(~lead_nulls)
            if valid is not None:
                lead = lead[valid]
            if stop <= len(lead):
                bound = np.partition(lead, stop - 1)[stop - 1]
                keep = np.flatnonzero(lead <= bound)
                if valid is not None:
                    keep = valid[keep]
                positions = positions[keep]
                keys = [(None if nulls is None else nulls[keep], values[keep])
                        for nulls, values in keys]
        sort_keys = []  # np.lexsort takes the minor key first
        for nulls, values in reversed(keys):
            sort_keys.append(values)
            if nulls is not None:
                sort_keys.append(nulls)
        return positions[np.lexsort(sort_keys)[:stop]]

    def gathered_rows(self, positions) -> Iterator[dict[str, Any]]:
        """The row dicts at ``positions`` from the row store, in the
        order given."""
        self.last_scan["rows_gathered"] = len(positions)
        return map(self._table.row, self._rowids[positions].tolist())

    # -- vectorized aggregation -------------------------------------------

    def vector_aggregates(self, select, positions) -> Optional[list[dict[str, Any]]]:
        """Aggregate ``positions`` without materialising rows.

        Returns None when exact row-path equivalence cannot be
        guaranteed cheaply (object columns, dictionary columns under
        sum/avg, multi-column GROUP BY) — the caller then falls back to
        row-path aggregation over the vector-filtered rows.
        """
        aggregates = select.aggregates
        for aggregate in aggregates:
            if aggregate.func == "count":
                continue
            column = self._columns.get(aggregate.column)
            if column is None:
                continue  # absent column: NULL aggregate, handled below
            if column.kind == "obj":
                return None
            if column.kind == "dict" and aggregate.func in ("sum", "avg"):
                return None  # row path raises summing strings; fall back
        if not select.group_by:
            out = {
                aggregate.alias: self._aggregate_slice(aggregate, positions)
                for aggregate in aggregates
            }
            return [out]
        if len(select.group_by) != 1:
            return None
        group_name = select.group_by[0]
        group_column = self._columns.get(group_name)
        if group_column is not None and group_column.kind not in (
            "dict", "i8", "bool"
        ):
            return None  # float keys: NaN grouping is row-path-idiosyncratic
        return self._grouped(select, group_name, group_column, positions)

    def _aggregate_slice(self, aggregate, positions) -> Any:
        column = self._columns.get(aggregate.column)
        if aggregate.func == "count":
            if aggregate.column == "*":
                return int(len(positions))
            if column is None:
                return 0
            return int((~column.nulls[positions]).sum())
        if column is None:
            return None
        valid = ~column.nulls[positions]
        n_valid = int(valid.sum())
        if n_valid == 0:
            return None
        values = column.values[positions][valid]
        if column.kind == "dict":
            # sorted dictionary: code order is lexicographic order
            if aggregate.func == "min":
                return column.dict_values[int(values.min())]
            return column.dict_values[int(values.max())]
        if aggregate.func == "sum":
            return values.sum().item()
        if aggregate.func == "avg":
            return values.sum().item() / n_valid
        if aggregate.func == "min":
            return values.min().item()
        return values.max().item()

    def _grouped(self, select, group_name, group_column,
                 positions) -> list[dict[str, Any]]:
        """Sort-based single-column grouping over codes/integers."""
        n = len(positions)
        if n == 0:
            return []
        if group_column is None:
            # Absent column: one group keyed NULL (row.get -> None).
            starts = [0]
            order = np.arange(n, dtype=np.int64)
            keys = [None]
        elif group_column.kind == "dict":
            codes = group_column.values[positions]
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            change = np.empty(n, np.bool_)
            change[0] = True
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=change[1:])
            starts = np.flatnonzero(change).tolist()
            keys = [
                None if sorted_codes[start] < 0
                else group_column.dict_values[int(sorted_codes[start])]
                for start in starts
            ]
        else:
            values = group_column.values[positions]
            nulls = group_column.nulls[positions]
            order = np.lexsort((values, nulls))
            sorted_values = values[order]
            sorted_nulls = nulls[order]
            change = np.empty(n, np.bool_)
            change[0] = True
            change[1:] = (sorted_values[1:] != sorted_values[:-1]) | (
                sorted_nulls[1:] != sorted_nulls[:-1]
            )
            starts = np.flatnonzero(change).tolist()
            keys = [
                None if sorted_nulls[start] else sorted_values[start].item()
                for start in starts
            ]
        ordered_positions = positions[order]
        stops = starts[1:] + [n]
        groups = []
        for key, start, stop in zip(keys, starts, stops):
            slice_positions = ordered_positions[start:stop]
            out = {group_name: key}
            for aggregate in select.aggregates:
                out[aggregate.alias] = self._aggregate_slice(
                    aggregate, slice_positions
                )
            groups.append((key, out))
        # Match the row path's deterministic group order exactly.
        groups.sort(key=lambda item: (repr(item[0]),))
        return [out for _key, out in groups]
