"""In-memory row storage with index maintenance.

A :class:`Table` stores rows keyed by an internal monotonically increasing
rowid.  It maintains a unique hash index per primary key / unique
constraint and an ordered index per declared secondary index.  Foreign-key
enforcement needs cross-table visibility and therefore lives in
:class:`repro.metadb.database.Database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from . import columnar as _columnar
from .errors import IntegrityError, SchemaError
from .index import HashIndex, OrderedIndex
from .schema import TableSchema


@dataclass(frozen=True)
class TableStats:
    """Live statistics the planner costs access paths with.

    ``rows_per_key`` maps an indexed column to the average bucket size of
    its hash index (1.0 for unique indexes) — the per-probe cardinality
    estimate.  Ordered indexes answer range cardinalities directly via
    :meth:`OrderedIndex.count_range`, so only their presence is recorded.
    """

    row_count: int
    rows_per_key: dict[str, float]
    ordered_columns: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "row_count": self.row_count,
            "rows_per_key": dict(self.rows_per_key),
            "ordered_columns": list(self.ordered_columns),
        }


class Table:
    """One table: rows plus their indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rowid = 1
        # Mutation epoch: bumped by every insert/update/delete/restore.
        # The lazily built columnar copy and the cached planner statistics
        # both key their freshness off it.
        self._mutations = 0
        self._columnar_store: Optional[_columnar.ColumnarStore] = None
        self._stats_cache: Optional[TableStats] = None
        self._stats_mutations = 0
        self._hash_indexes: list[HashIndex] = []
        self._ordered_indexes: dict[str, OrderedIndex] = {}
        self._pk_index: Optional[HashIndex] = None
        if schema.primary_key:
            self._pk_index = HashIndex([schema.primary_key], unique=True, name="pk")
            self._hash_indexes.append(self._pk_index)
        for unique_cols in schema.unique:
            self._hash_indexes.append(HashIndex(unique_cols, unique=True))
        for index_cols in schema.indexes:
            if len(index_cols) == 1:
                column = index_cols[0]
                if column not in self._ordered_indexes:
                    self._ordered_indexes[column] = OrderedIndex(column)
            else:
                self._hash_indexes.append(HashIndex(index_cols, unique=False))

    # -- basic properties -------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def rowids(self) -> Iterator[int]:
        return iter(list(self._rows.keys()))

    def row(self, rowid: int) -> dict[str, Any]:
        return self._rows[rowid]

    def rows(self) -> Iterator[dict[str, Any]]:
        return iter(list(self._rows.values()))

    # -- index access for the planner -------------------------------------

    def hash_index_on(self, column: str) -> Optional[HashIndex]:
        for index in self._hash_indexes:
            if index.columns == (column,):
                return index
        return None

    def ordered_index_on(self, column: str) -> Optional[OrderedIndex]:
        return self._ordered_indexes.get(column)

    def has_index_on(self, column: str) -> bool:
        return self.hash_index_on(column) is not None or column in self._ordered_indexes

    @property
    def mutation_epoch(self) -> int:
        """Monotonic count of mutations; freshness token for derived state."""
        return self._mutations

    @property
    def columnar_eligible(self) -> bool:
        """True when this table maintains a columnar copy the vectorized
        executor may scan (declared in the schema and numpy importable)."""
        return self.schema.columnar and _columnar.available()

    def columnar_store(self) -> "_columnar.ColumnarStore":
        """The table's columnar copy, created on first use (freshness is
        the store's own concern — see :meth:`ColumnarStore.ensure_fresh`)."""
        if self._columnar_store is None:
            self._columnar_store = _columnar.ColumnarStore(self)
        return self._columnar_store

    def stats(self) -> TableStats:
        """Planner statistics, cached against the mutation epoch.

        The cache is reused while fewer than ``max(1, rows/20)`` mutations
        landed since it was computed (rows as of compute time), so small
        tables stay effectively live while hot tables avoid recomputing
        per query.  The mutation-count threshold — rather than refreshing
        on insert only — is what keeps estimates honest after a bulk
        DELETE: mass deletes blow through the threshold immediately and
        the next plan sees the shrunken cardinalities.
        """
        cache = self._stats_cache
        if cache is not None:
            if self._mutations - self._stats_mutations < max(1, cache.row_count // 20):
                return cache
        stats = self._compute_stats()
        self._stats_cache = stats
        self._stats_mutations = self._mutations
        return stats

    def _compute_stats(self) -> TableStats:
        """O(#indexes) statistics snapshot from the live indexes."""
        rows = len(self._rows)
        rows_per_key: dict[str, float] = {}
        for index in self._hash_indexes:
            if len(index.columns) != 1:
                continue
            column = index.columns[0]
            if index.unique:
                rows_per_key[column] = 1.0
            else:
                distinct = index.distinct_keys()
                rows_per_key[column] = rows / distinct if distinct else float(rows)
        return TableStats(
            row_count=rows,
            rows_per_key=rows_per_key,
            ordered_columns=tuple(self._ordered_indexes),
        )

    # -- mutation ----------------------------------------------------------

    def insert(self, values: dict[str, Any]) -> int:
        """Insert a row; returns the internal rowid."""
        return self.insert_row(self.schema.normalize_row(values))

    def insert_row(self, row: dict[str, Any]) -> int:
        """Store ``row`` as it is: the caller normalised it (the owning
        :class:`Database` does, once per statement)."""
        if self.schema.primary_key and row.get(self.schema.primary_key) is None:
            raise IntegrityError(
                f"primary key {self.schema.primary_key!r} of {self.name!r} may not be NULL"
            )
        rowid = self._next_rowid
        inserted: list = []
        try:
            for index in self._hash_indexes:
                index.insert(rowid, row)
                inserted.append(index)
            for index in self._ordered_indexes.values():
                index.insert(rowid, row)
                inserted.append(index)
        except IntegrityError:
            for index in inserted:
                index.remove(rowid, row)
            raise
        self._rows[rowid] = row
        self._next_rowid += 1
        self._mutations += 1
        return rowid

    def update(self, rowid: int, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply ``changes`` to one row; returns the previous row image."""
        if rowid not in self._rows:
            raise SchemaError(f"rowid {rowid} not present in {self.name!r}")
        return self.update_row(
            rowid, self.schema.normalize_row(changes, for_update=True))

    def update_row(self, rowid: int, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply already normalised ``changes`` (see :meth:`insert_row`)."""
        if rowid not in self._rows:
            raise SchemaError(f"rowid {rowid} not present in {self.name!r}")
        old_row = self._rows[rowid]
        new_row = {**old_row, **changes}
        if self.schema.primary_key and new_row.get(self.schema.primary_key) is None:
            raise IntegrityError(
                f"primary key {self.schema.primary_key!r} of {self.name!r} may not be NULL"
            )
        # Only a changed column can have become NULL.
        for column, value in changes.items():
            if value is None and not self.schema.columns[column].nullable:
                raise IntegrityError(f"NOT NULL violation: {self.name}.{column}")
        for index in self._hash_indexes:
            index.remove(rowid, old_row)
        for index in self._ordered_indexes.values():
            index.remove(rowid, old_row)
        reinserted: list = []
        try:
            for index in self._hash_indexes:
                index.insert(rowid, new_row)
                reinserted.append(index)
            for index in self._ordered_indexes.values():
                index.insert(rowid, new_row)
                reinserted.append(index)
        except IntegrityError:
            for index in reinserted:
                index.remove(rowid, new_row)
            for index in self._hash_indexes:
                index.insert(rowid, old_row)
            for index in self._ordered_indexes.values():
                index.insert(rowid, old_row)
            raise
        self._rows[rowid] = new_row
        self._mutations += 1
        return old_row

    def delete(self, rowid: int) -> dict[str, Any]:
        """Remove one row; returns its last image (for undo logs)."""
        if rowid not in self._rows:
            raise SchemaError(f"rowid {rowid} not present in {self.name!r}")
        row = self._rows.pop(rowid)
        for index in self._hash_indexes:
            index.remove(rowid, row)
        for index in self._ordered_indexes.values():
            index.remove(rowid, row)
        self._mutations += 1
        return row

    def restore(self, rowid: int, row: dict[str, Any]) -> None:
        """Re-insert a previously deleted row under its original rowid."""
        if rowid in self._rows:
            raise SchemaError(f"rowid {rowid} already present in {self.name!r}")
        for index in self._hash_indexes:
            index.insert(rowid, row)
        for index in self._ordered_indexes.values():
            index.insert(rowid, row)
        self._rows[rowid] = row
        self._next_rowid = max(self._next_rowid, rowid + 1)
        self._mutations += 1

    # -- lookups ------------------------------------------------------------

    def lookup_pk(self, key: Any) -> Optional[int]:
        """Rowid of the row whose primary key equals ``key``, if any."""
        if self._pk_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rowids = self._pk_index.probe(key)
        return next(iter(rowids), None)

    def exists_value(self, column: str, value: Any) -> bool:
        """True when some row has ``column == value`` (FK checks)."""
        index = self.hash_index_on(column)
        if index is not None:
            return bool(index.probe(value))
        ordered = self.ordered_index_on(column)
        if ordered is not None:
            return ordered.count_range(value, value) > 0
        return any(row.get(column) == value for row in self._rows.values())
