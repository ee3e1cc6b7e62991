"""Shard topology: time-range partitions over the metadata catalog.

The catalog is partitioned by observation time, the axis along which a
scientific archive actually grows (one RHESSI observation day after
another) and the axis most page queries constrain.  A :class:`ShardMap`
is an immutable, totally ordered list of half-open ranges
``[low, high)`` covering the whole real line — the first shard's lower
bound and the last shard's upper bound are open, so any start_time
always lands on exactly one shard and "open-ended" predicates still
prune.

Where a table's rows go is declared on its schema
(:class:`~repro.metadb.schema.Placement`) and read from the schemas
``create_table`` is handed; this package names no table:

* **partitioned** — rows are placed by a column the shard ranges order;
* **follows** — rows follow a foreign-key parent, so per-shard
  foreign-key checks keep working;
* **follows its item** — rows live with whichever row of an item-owning
  table carries the same item value (per-item location rows);
* **local** — append-only logs: a row is written to one shard and read
  from all of them;
* **broadcast** — the default: replicated on every shard, eagerly
  written and read round-robin, so references to it hold on any shard.

Maps are immutable: a split builds a new map and the router swaps one
reference, which is what lets readers run unstalled through a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..metadb.schema import TableSchema


class ShardError(Exception):
    """A statement cannot be routed under the current shard topology."""


class ShardUnavailable(ShardError):
    """Every shard a statement targets is down or circuit-broken."""

    def __init__(self, message: str, shard_ids: Sequence[int] = ()):
        super().__init__(message)
        self.shard_ids = tuple(shard_ids)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and the half-open time range ``[low, high)``.

    ``low is None`` / ``high is None`` mark the open outer edges of the
    first and last shard.
    """

    shard_id: int
    low: Optional[float] = None
    high: Optional[float] = None

    def covers(self, value: Any) -> bool:
        """True when ``value`` belongs to this shard's range."""
        try:
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value >= self.high:
                return False
        except TypeError:
            return False
        return True

    def overlaps(self, low: Any, high: Any, low_inclusive: bool,
                 high_inclusive: bool) -> bool:
        """True when the query range can contain a value in ``[low, high)``."""
        try:
            if high is not None and self.low is not None:
                if high < self.low or (high == self.low and not high_inclusive):
                    return False
            if low is not None and self.high is not None:
                # self.high is exclusive: low == self.high can never match.
                if low >= self.high:
                    return False
        except TypeError:
            return False
        return True

    def describe(self) -> str:
        low = "-inf" if self.low is None else f"{self.low:g}"
        high = "+inf" if self.high is None else f"{self.high:g}"
        return f"shard {self.shard_id} [{low}, {high})"


class ShardMap:
    """An immutable, contiguous, totally ordered set of shard ranges."""

    def __init__(self, specs: Sequence[ShardSpec]):
        if not specs:
            raise ShardError("a shard map needs at least one shard")
        ordered = sorted(specs, key=lambda spec: (spec.low is not None, spec.low))
        if ordered[0].low is not None or ordered[-1].high is not None:
            raise ShardError("the first/last shard must have open outer bounds")
        for left, right in zip(ordered, ordered[1:]):
            if left.high != right.low:
                raise ShardError(
                    f"shard ranges must be contiguous: {left.describe()} then "
                    f"{right.describe()}"
                )
        self.specs: tuple[ShardSpec, ...] = tuple(ordered)
        self._by_id = {spec.shard_id: spec for spec in self.specs}
        #: The specs, each shard's first: the order a router's hint asks in.
        self.led_by = {spec.shard_id: (spec, *(s for s in self.specs if s is not spec))
                       for spec in self.specs}
        if len(self._by_id) != len(self.specs):
            raise ShardError("duplicate shard ids in map")

    @classmethod
    def from_boundaries(cls, boundaries: Sequence[float]) -> "ShardMap":
        """N sorted boundary values give N+1 contiguous shards."""
        cuts = sorted(set(boundaries))
        edges = [None, *cuts, None]
        return cls([
            ShardSpec(shard_id, low, high)
            for shard_id, (low, high) in enumerate(zip(edges, edges[1:]))
        ])

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def spec(self, shard_id: int) -> ShardSpec:
        try:
            return self._by_id[shard_id]
        except KeyError:
            raise ShardError(f"unknown shard id {shard_id}") from None

    def spec_for_value(self, value: Any) -> ShardSpec:
        """The unique shard owning ``value`` (ranges cover the whole line)."""
        for spec in self.specs:
            if spec.covers(value):
                return spec
        raise ShardError(f"no shard covers partition value {value!r}")

    def specs_for_range(self, low: Any, high: Any, low_inclusive: bool = True,
                        high_inclusive: bool = True) -> tuple[ShardSpec, ...]:
        """Every shard whose range a ``[low, high]``-style predicate touches."""
        return tuple(
            spec for spec in self.specs
            if spec.overlaps(low, high, low_inclusive, high_inclusive)
        )

    def specs_for_values(self, values) -> tuple[ShardSpec, ...]:
        """Shards owning any value of an IN list, in map order; a value
        no range compares with (a mistyped literal) names none."""
        return tuple(spec for spec in self.specs if any(map(spec.covers, values)))

    def replace(self, shard_id: int, replacements: Sequence[ShardSpec]) -> "ShardMap":
        """A new map with ``shard_id`` swapped for ``replacements`` (a split)."""
        specs: list[ShardSpec] = []
        for spec in self.specs:
            if spec.shard_id == shard_id:
                specs.extend(replacements)
            else:
                specs.append(spec)
        return ShardMap(specs)

    def next_shard_id(self) -> int:
        return max(self._by_id) + 1

    def describe(self) -> list[str]:
        return [spec.describe() for spec in self.specs]


def joinable(left: TableSchema, right: TableSchema) -> bool:
    """True when a join's right side is co-located with every left row.

    Broadcast tables join with anything (a broadcast *left* still
    scatters: each shard holds the full broadcast table, so the join is
    correct on whichever shard the other side's rows live); a table that
    follows a parent joins that parent (either direction) and the
    parent's other followers.
    """
    left_at, right_at = left.placement, right.placement
    if "broadcast" in (left_at.kind, right_at.kind):
        return True
    if right.name == left_at.parent_table or left.name == right_at.parent_table:
        return True
    return left_at.parent_table is not None \
        and left_at.parent_table == right_at.parent_table
