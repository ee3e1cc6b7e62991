"""Column types and value coercion for the embedded database.

The type system is deliberately small — the five types the HEDC metadata
schema needs — but strict: every value stored in a table has been coerced
and validated against its column's declared type.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any, Optional

from .errors import SchemaError


class ColumnType(enum.Enum):
    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"
    BLOB = "BLOB"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The exact Python type a stored value of each column type has:
#: :func:`coerce` returns a value of exactly that type unchanged, which is
#: what lets a row normaliser take it as is.
STORED_TYPE = {
    ColumnType.INTEGER: int, ColumnType.REAL: float, ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool, ColumnType.TIMESTAMP: float, ColumnType.BLOB: bytes,
}

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)


def _coerce_timestamp(value: Any) -> float:
    """Timestamps are stored as float seconds since the Unix epoch (UTC)."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a timestamp")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, _dt.datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=_dt.timezone.utc)
        return (value - _EPOCH).total_seconds()
    if isinstance(value, str):
        parsed = _dt.datetime.fromisoformat(value)
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=_dt.timezone.utc)
        return (parsed - _EPOCH).total_seconds()
    raise TypeError(f"cannot interpret {value!r} as a timestamp")


def coerce(value: Any, column_type: ColumnType) -> Any:
    """Coerce ``value`` to the Python representation of ``column_type``.

    Raises TypeError/ValueError when the value cannot represent the type
    losslessly (e.g. TEXT into INTEGER only when it parses).
    """
    if value is None:
        return None
    if column_type is ColumnType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            return int(value)
        raise TypeError(f"cannot store {value!r} in INTEGER column")
    if column_type is ColumnType.REAL:
        if isinstance(value, bool):
            raise TypeError("cannot store boolean in REAL column")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return float(value)
        raise TypeError(f"cannot store {value!r} in REAL column")
    if column_type is ColumnType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeError(f"cannot store {value!r} in TEXT column")
    if column_type is ColumnType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeError(f"cannot store {value!r} in BOOLEAN column")
    if column_type is ColumnType.TIMESTAMP:
        return _coerce_timestamp(value)
    if column_type is ColumnType.BLOB:
        if isinstance(value, (bytes, bytearray)):
            return bytes(value)
        raise TypeError(f"cannot store {value!r} in BLOB column")
    raise SchemaError(f"unknown column type {column_type!r}")


def type_from_name(name: str) -> ColumnType:
    """Parse a type name as it appears in SQL DDL."""
    normalized = name.strip().upper()
    aliases = {
        "INT": ColumnType.INTEGER,
        "BIGINT": ColumnType.INTEGER,
        "FLOAT": ColumnType.REAL,
        "DOUBLE": ColumnType.REAL,
        "VARCHAR": ColumnType.TEXT,
        "STRING": ColumnType.TEXT,
        "BOOL": ColumnType.BOOLEAN,
        "DATETIME": ColumnType.TIMESTAMP,
        "BYTES": ColumnType.BLOB,
    }
    if normalized in aliases:
        return aliases[normalized]
    try:
        return ColumnType(normalized)
    except ValueError as exc:
        raise SchemaError(f"unknown column type name {name!r}") from exc
