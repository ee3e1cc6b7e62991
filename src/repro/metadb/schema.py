"""Table schema definitions.

A :class:`TableSchema` declares columns, the primary key, unique and
non-null constraints, defaults, foreign keys, secondary indexes and —
for a catalog spread over shards — where the table's rows are placed
(:class:`Placement`).  The storage layer validates every row against its
schema on insert/update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import IntegrityError, SchemaError
from .types import STORED_TYPE, ColumnType, coerce


@dataclass(frozen=True)
class Column:
    """A single typed column.

    ``default`` may be a constant or a zero-argument callable evaluated at
    insert time (e.g. a timestamp supplier).
    """

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.name != self.name.lower():
            raise SchemaError(f"column names must be lowercase: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """Declarative reference from ``column`` to ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class Placement:
    """Where a sharded catalog keeps a table's rows.

    One plain database ignores it; :class:`~repro.shard.ShardedDatabase`
    routes by it.  Build one with :func:`partitioned`, :func:`follows` or
    :func:`follows_item`, or use :data:`LOCAL` / :data:`BROADCAST`.
    """

    kind: str
    column: Optional[str] = None
    parent_table: Optional[str] = None
    parent_column: Optional[str] = None

    def describe(self) -> str:
        if self.parent_table is not None:
            return (f"follows({self.column} -> "
                    f"{self.parent_table}.{self.parent_column})")
        return self.kind if self.column is None else f"{self.kind}({self.column})"

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items()
                if value is not None}


#: Every shard holds every row: small tables read everywhere, so a
#: reference to one holds on whichever shard the referring row lives.
BROADCAST = Placement("broadcast")
#: An append-only log nobody joins across shards: a row is written to
#: one shard (the one its transaction already writes) and read from all.
LOCAL = Placement("local")


def partitioned(column: str) -> Placement:
    """Rows are placed by the shard range their ``column`` value falls in."""
    return Placement("partitioned", column)


def follows(fk_column: str, parent_table: str, parent_column: str) -> Placement:
    """A row lives on the shard of the parent row its ``fk_column`` names,
    so the per-shard foreign-key check keeps working."""
    return Placement("follows", fk_column, parent_table, parent_column)


def follows_item(column: str) -> Placement:
    """A row lives with its item: on the shard of whichever row, of any
    table that declares an ``item_key``, carries the same value.  It
    names no table, which is how a generic location table follows domain
    tuples it has never heard of."""
    return Placement("follows_item", column)


class TableSchema:
    """Schema of one table.

    >>> schema = TableSchema(
    ...     "users",
    ...     [Column("user_id", ColumnType.INTEGER, nullable=False),
    ...      Column("login", ColumnType.TEXT, nullable=False)],
    ...     primary_key="user_id",
    ...     unique=[("login",)],
    ... )
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[str] = None,
        unique: Iterable[Sequence[str]] = (),
        foreign_keys: Iterable[ForeignKey] = (),
        indexes: Iterable[Sequence[str]] = (),
        placement: Placement = BROADCAST,
        item_key: Optional[str] = None,
    ):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: dict[str, Column] = {}
        for column in columns:
            if column.name in self.columns:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            self.columns[column.name] = column
        self.column_order = [column.name for column in columns]
        #: The insert plan normalize_row walks, in column order: name, the
        #: exact Python type a stored value has (what the executor checks
        #: a seek's bounds against), and what else it needs.
        self.column_plan = {
            column.name: (column.name, STORED_TYPE.get(column.type), column.type,
                          column.nullable, column.default, callable(column.default))
            for column in columns
        }
        self.primary_key = primary_key
        if primary_key is not None:
            if primary_key not in self.columns:
                raise SchemaError(f"primary key {primary_key!r} is not a column of {name!r}")
            if self.columns[primary_key].nullable:
                raise SchemaError(f"primary key column {primary_key!r} must be NOT NULL")
        self.unique = [tuple(u) for u in unique]
        for unique_cols in self.unique:
            for col in unique_cols:
                if col not in self.columns:
                    raise SchemaError(f"unique constraint references unknown column {col!r}")
        self.foreign_keys = list(foreign_keys)
        for fk in self.foreign_keys:
            if fk.column not in self.columns:
                raise SchemaError(f"foreign key references unknown column {fk.column!r}")
        self.indexes = [tuple(i) for i in indexes]
        for index_cols in self.indexes:
            for col in index_cols:
                if col not in self.columns:
                    raise SchemaError(f"index references unknown column {col!r}")
        # Where a sharded catalog keeps the rows, and the column (if any)
        # whose values name the items this table owns: rows of a
        # follows_item table with the same value live on the same shard.
        for column in (placement.column, item_key):
            if column is not None and column not in self.columns:
                raise SchemaError(f"placement references unknown column {column!r}")
        self.placement = placement
        self.item_key = item_key

    def normalize_row(self, values: dict[str, Any], *, for_update: bool = False) -> dict[str, Any]:
        """Validate and coerce ``values`` into a complete (or partial) row.

        On insert (``for_update=False``) missing columns receive their
        defaults and NOT NULL is enforced.  On update only the provided
        columns are checked.
        """
        plan = self.column_plan
        if not values.keys() <= plan.keys():
            key = next(key for key in values if key not in plan)
            raise SchemaError(f"table {self.name!r} has no column {key!r}")
        row: dict[str, Any] = {}
        entries = [plan[key] for key in values] if for_update else plan.values()
        for name_, stored, column_type, nullable, default, supplied in entries:
            if for_update or name_ in values:
                raw = values[name_]
            else:
                raw = default() if supplied else default
            if raw is None:
                if not nullable:
                    raise IntegrityError(
                        f"NOT NULL violation: {self.name}.{name_}"
                    )
                row[name_] = None
            elif type(raw) is stored:
                row[name_] = raw
            else:
                try:
                    row[name_] = coerce(raw, column_type)
                except (TypeError, ValueError) as exc:
                    raise IntegrityError(
                        f"type violation on {self.name}.{name_}: {exc}"
                    ) from exc
        return row

    def to_dict(self) -> dict:
        """Serializable description (used by WAL snapshots and lineage).

        Callable defaults cannot be serialized in general; the one case
        the schemas rely on — current-time defaults on TIMESTAMP columns
        — round-trips via the ``"__now__"`` marker.  Other callable
        defaults degrade to NULL after a snapshot/restore.
        """

        def serialize_default(column: Column):
            if callable(column.default):
                return "__now__" if column.type is ColumnType.TIMESTAMP else None
            return column.default

        placed = {}
        if self.placement != BROADCAST:
            placed["placement"] = self.placement.to_dict()
        if self.item_key is not None:
            placed["item_key"] = self.item_key
        return {
            "name": self.name,
            "columns": [
                {
                    "name": column.name,
                    "type": column.type.value,
                    "nullable": column.nullable,
                    "default": serialize_default(column),
                }
                for column in (self.columns[c] for c in self.column_order)
            ],
            "primary_key": self.primary_key,
            "unique": [list(u) for u in self.unique],
            "foreign_keys": [
                {"column": fk.column, "ref_table": fk.ref_table, "ref_column": fk.ref_column}
                for fk in self.foreign_keys
            ],
            "indexes": [list(i) for i in self.indexes],
            **placed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSchema":
        import time as _time

        def deserialize_default(col: dict):
            if col.get("default") == "__now__" and col["type"] == ColumnType.TIMESTAMP.value:
                return _time.time
            return col.get("default")

        columns = [
            Column(
                col["name"],
                ColumnType(col["type"]),
                nullable=col.get("nullable", True),
                default=deserialize_default(col),
            )
            for col in data["columns"]
        ]
        foreign_keys = [
            ForeignKey(fk["column"], fk["ref_table"], fk["ref_column"])
            for fk in data.get("foreign_keys", ())
        ]
        return cls(
            data["name"],
            columns,
            primary_key=data.get("primary_key"),
            unique=data.get("unique", ()),
            foreign_keys=foreign_keys,
            indexes=data.get("indexes", ()),
            placement=Placement(**data["placement"]) if "placement" in data
            else BROADCAST,
            item_key=data.get("item_key"),
        )
