"""In-memory row storage with index maintenance.

A :class:`Table` stores rows keyed by an internal monotonically increasing
rowid.  It maintains a unique hash index per primary key / unique
constraint and an ordered index per declared secondary index.  Foreign-key
enforcement needs cross-table visibility and therefore lives in
:class:`repro.metadb.database.Database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from .errors import IntegrityError, SchemaError
from .index import HashIndex, OrderedIndex
from .schema import TableSchema


@dataclass(frozen=True)
class TableStats:
    """Live statistics the planner costs access paths with.

    A hash index on one column is a primary key or a unique constraint,
    so an equality probe finds one row at most.  Ordered indexes answer
    range cardinalities directly via :meth:`OrderedIndex.count_range`, so
    only their presence is recorded.
    """

    row_count: int
    ordered_columns: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "row_count": self.row_count,
            "ordered_columns": list(self.ordered_columns),
        }


class Table:
    """One table: rows plus their indexes.

    Stored rows are copy-on-write: nothing changes a stored row dict in
    place.  :meth:`insert_row` and :meth:`restore` store the dict they
    are handed, which the caller gives up; :meth:`update_row` stores a
    new dict and returns the old one untouched.  So the read-only views
    a SELECT hands out (:func:`repro.metadb.query.execute_select`) stay
    snapshots of the rows as they were read.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rowid = 1
        # Bumped by every insert/update/delete/restore: the cached planner
        # statistics key their freshness off it.
        self._mutations = 0
        self._stats_cache: Optional[TableStats] = None
        self._stats_mutations = 0
        self._hash_indexes: list[HashIndex] = []
        self._ordered_indexes: dict[str, OrderedIndex] = {}
        if schema.primary_key:
            self._hash_indexes.append(HashIndex([schema.primary_key], unique=True, name="pk"))
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

    def fetch(self, rowids: Iterable[int]) -> Iterator[dict[str, Any]]:
        """The rows under ``rowids``, in order, with no Python call per row."""
        return map(self._rows.__getitem__, rowids)

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
        return TableStats(row_count=len(self._rows),
                          ordered_columns=tuple(self._ordered_indexes))

    # -- mutation ----------------------------------------------------------

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

    def update_row(self, rowid: int, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply already normalised ``changes`` to one row (see
        :meth:`insert_row`); returns the previous row image."""
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

    def exists_value(self, column: str, value: Any) -> bool:
        """True when some row has ``column == value`` (FK checks)."""
        index = self.hash_index_on(column)
        if index is not None:
            return value in index
        ordered = self.ordered_index_on(column)
        if ordered is not None:
            try:
                return ordered.count_range(value, value) > 0
            except TypeError:   # keys of another type: none equals it
                return False
        return any(row.get(column) == value for row in self._rows.values())
