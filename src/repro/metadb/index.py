"""Secondary index structures.

Two flavours back the query planner:

* :class:`HashIndex` — O(1) equality probes; used for primary keys and
  unique constraints.
* :class:`OrderedIndex` — a sorted (key, rowid) list with bisect-based
  range scans; used for range predicates and ORDER BY shortcuts.

Both map index keys to sets of internal rowids.  ``None`` keys are kept in
a side bucket so that IS NULL probes stay cheap while range scans skip
nulls (SQL semantics).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import IntegrityError


def _key_extractor(columns: tuple[str, ...]) -> Callable[[dict[str, Any]], Optional[Hashable]]:
    """``row -> index key`` (``None`` when any part is NULL), decided once
    per index: a single-column key is one ``row.get``."""
    if len(columns) == 1:
        column, = columns
        return lambda row: row.get(column)

    def key_of(row: dict[str, Any]) -> Optional[Hashable]:
        values = tuple(row.get(column) for column in columns)
        return None if any(value is None for value in values) else values

    return key_of


class HashIndex:
    """Equality index over one or more columns."""

    def __init__(self, columns: Sequence[str], unique: bool = False, name: str = ""):
        self.columns = tuple(columns)
        self.unique = unique
        self.name = name or ("uq_" if unique else "ix_") + "_".join(columns)
        self.key_of = _key_extractor(self.columns)
        self._map: dict[Hashable, set[int]] = {}
        self._nulls: set[int] = set()

    def insert(self, rowid: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        if key is None:
            self._nulls.add(rowid)
            return
        bucket = self._map.setdefault(key, set())
        if self.unique and bucket:
            raise IntegrityError(
                f"unique violation on ({', '.join(self.columns)}) = {key!r}"
            )
        bucket.add(rowid)

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        if key is None:
            self._nulls.discard(rowid)
            return
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._map[key]

    def probe(self, key: Hashable) -> set[int]:
        return set(self._map.get(key, ()))

    def probe_many(self, keys: Iterable[Hashable]) -> Iterator[int]:
        """Stream rowids for several keys (IN-list multi-probe).

        A single-column index maps each rowid to exactly one key, so
        chaining buckets never yields duplicates.
        """
        get = self._map.get
        for key in keys:
            bucket = get(key)
            if bucket:
                yield from bucket

    def distinct_keys(self) -> int:
        """Number of distinct non-null keys (planner selectivity input)."""
        return len(self._map)

    def nulls(self) -> set[int]:
        return set(self._nulls)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._map.values()) + len(self._nulls)


class OrderedIndex:
    """Single-column ordered index supporting range scans."""

    def __init__(self, column: str, name: str = ""):
        self.column = column
        self.name = name or f"ox_{column}"
        self._keys: list[Any] = []
        self._rowids: list[int] = []
        self._nulls: set[int] = set()

    def insert(self, rowid: int, row: dict[str, Any]) -> None:
        key = row.get(self.column)
        if key is None:
            self._nulls.add(rowid)
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rowids.insert(position, rowid)

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        key = row.get(self.column)
        if key is None:
            self._nulls.discard(rowid)
            return
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        for position in range(left, right):
            if self._rowids[position] == rowid:
                del self._keys[position]
                del self._rowids[position]
                return

    def _bounds(
        self, low: Any, high: Any, low_inclusive: bool, high_inclusive: bool
    ) -> tuple[int, int]:
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return start, stop

    def range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        descending: bool = False,
    ) -> Iterator[int]:
        """Yield rowids whose key falls in [low, high] in key order.

        ``descending=True`` walks the same positions backwards without
        materialising the forward scan first.
        """
        start, stop = self._bounds(low, high, low_inclusive, high_inclusive)
        positions = range(stop - 1, start - 1, -1) if descending else range(start, stop)
        for position in positions:
            yield self._rowids[position]

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> int:
        """O(log n) count of keys in [low, high] (planner cardinality)."""
        start, stop = self._bounds(low, high, low_inclusive, high_inclusive)
        return max(0, stop - start)

    def scan(self, descending: bool = False) -> Iterator[int]:
        """Yield all non-null rowids in key order."""
        return reversed(self._rowids) if descending else iter(self._rowids)

    def nulls(self) -> set[int]:
        return set(self._nulls)

    def __len__(self) -> int:
        return len(self._rowids) + len(self._nulls)
