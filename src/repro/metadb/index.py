"""Secondary index structures.

Two flavours back the query planner:

* :class:`HashIndex` — O(1) equality probes; used for primary keys and
  unique constraints.
* :class:`OrderedIndex` — a sorted (key, rowid) list with bisect-based
  range scans; used for range predicates and ORDER BY shortcuts.

A unique hash index maps each key to its rowid, a non-unique one to a set
of rowids.  ``None`` keys are kept in a side bucket: IS NULL probes stay
cheap, range scans skip nulls (SQL semantics), and a whole scan yields
them last, as ORDER BY puts them.  An ordered index keeps NaN keys there
too, so that its keys stay totally ordered and a seek is exact.
"""

from __future__ import annotations

import bisect
from functools import partial
from itertools import chain
from operator import is_not
from typing import Any, Callable, Collection, Hashable, Iterable, Iterator, Optional, Sequence

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
    """Equality index over one or more columns: ``key -> rowid`` when
    unique, ``key -> set of rowids`` otherwise."""

    def __init__(self, columns: Sequence[str], unique: bool = False, name: str = ""):
        self.columns = tuple(columns)
        self.unique = unique
        self.name = name or ("uq_" if unique else "ix_") + "_".join(columns)
        self.key_of = _key_extractor(self.columns)
        self._map: dict[Hashable, Any] = {}
        self._nulls: set[int] = set()

    def insert(self, rowid: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        if key is None:
            self._nulls.add(rowid)
        elif not self.unique:
            self._map.setdefault(key, set()).add(rowid)
        elif key in self._map:
            raise IntegrityError(
                f"unique violation on ({', '.join(self.columns)}) = {key!r}"
            )
        else:
            self._map[key] = rowid

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        if key is None:
            self._nulls.discard(rowid)
            return
        entry = self._map.get(key)
        if self.unique:
            if entry == rowid:
                del self._map[key]
        elif entry is not None:
            entry.discard(rowid)
            if not entry:
                del self._map[key]

    def probe(self, key: Hashable) -> Collection[int]:
        """The rowids under ``key``: at most one, as a tuple, when unique."""
        entry = self._map.get(key)
        if self.unique:
            return () if entry is None else (entry,)
        return set() if entry is None else set(entry)

    def probe_many(self, keys: Iterable[Hashable]) -> Iterator[int]:
        """Stream rowids for several keys (IN-list multi-probe).

        A single-column index maps each rowid to exactly one key, so
        chaining buckets never yields duplicates.
        """
        entries = map(self._map.get, keys)
        if self.unique:
            return filter(partial(is_not, None), entries)
        return chain.from_iterable(filter(None, entries))

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map

    def nulls(self) -> set[int]:
        return set(self._nulls)

    def __len__(self) -> int:
        keyed = len(self._map) if self.unique else sum(map(len, self._map.values()))
        return keyed + len(self._nulls)


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
        if key is None or key != key:   # NaN compares with nothing, as NULL does
            self._nulls.add(rowid)
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rowids.insert(position, rowid)

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        key = row.get(self.column)
        if key is None or key != key:
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
        """The rowids whose key falls in [low, high], in key order, as a
        lazy stream that pays no Python call per rowid.

        ``descending=True`` walks the same positions backwards without
        materialising the forward scan first.
        """
        start, stop = self._bounds(low, high, low_inclusive, high_inclusive)
        positions = range(stop - 1, start - 1, -1) if descending else range(start, stop)
        return map(self._rowids.__getitem__, positions)

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
        """Every rowid in key order, NULL keys last in both directions
        (ORDER BY's NULLS LAST), in rowid order."""
        keyed = reversed(self._rowids) if descending else iter(self._rowids)
        # The NULL bucket is sorted only if a walk reaches it.
        return chain(keyed, chain.from_iterable(map(sorted, (self._nulls,))))

    def nulls(self) -> set[int]:
        return set(self._nulls)

    def __len__(self) -> int:
        return len(self._rowids) + len(self._nulls)
