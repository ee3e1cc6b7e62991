"""Write-path oracle: the row normaliser and the WAL value walk as they
were before a schema compiled its insert plan and the journal left its
encoding to ``json.dumps(default=...)``.

``normalize_row`` looks every column up by name, builds a row of Nones to
merge the values into and sends every value through ``coerce``;
``journal_line`` copies each record and walks each value of its row in
Python.  ``tests/test_ingest_path.py`` requires the live code to agree
with both (value, exception type and message; bytes);
``benchmarks/test_ingest_path.py`` times a load against this normaliser.
Not imported by ``src``.
"""

from __future__ import annotations

import base64
import json
from typing import Any

from repro.metadb.errors import IntegrityError, SchemaError
from repro.metadb.schema import TableSchema
from repro.metadb.types import coerce


def normalize_row(schema: TableSchema, values: dict[str, Any], *,
                  for_update: bool = False) -> dict[str, Any]:
    row: dict[str, Any] = {}
    for key in values:
        if key not in schema.columns:
            raise SchemaError(f"table {schema.name!r} has no column {key!r}")
    source = values if for_update else {**{c: None for c in schema.column_order}, **values}
    for name_, raw in source.items():
        column = schema.columns[name_]
        if raw is None and not for_update and name_ not in values:
            default = column.default
            raw = default() if callable(default) else default
        if raw is None:
            if not column.nullable:
                raise IntegrityError(
                    f"NOT NULL violation: {schema.name}.{name_}"
                )
            row[name_] = None
            continue
        try:
            row[name_] = coerce(raw, column.type)
        except (TypeError, ValueError) as exc:
            raise IntegrityError(
                f"type violation on {schema.name}.{name_}: {exc}"
            ) from exc
    return row


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__blob__": base64.b64encode(value).decode("ascii")}
    return value


def _encode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {key: _encode_value(value) for key, value in row.items()}


def journal_line(tx_id: int, records: list[dict[str, Any]]) -> str:
    """What ``Journal.append_transaction`` wrote for one transaction."""
    encoded = []
    for record in records:
        record = dict(record)
        if "row" in record:
            record["row"] = _encode_row(record["row"])
        if "changes" in record:
            record["changes"] = _encode_row(record["changes"])
        encoded.append(record)
    return json.dumps({"tx": tx_id, "records": encoded}) + "\n"
