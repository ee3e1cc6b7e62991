"""Recovery oracle: ``Database._recover``'s own replay loop, as it was
before recovery replayed through the follower's applier.

It restores the snapshot and walks the journal's records itself (a
create replaces, an update's changes are normalised again, an ack sets
the offset, anything else is skipped), where the live code hands each
record to ``Database._apply_redo_record``.  The one addition is the
follower offset a snapshot now holds, which the retired loop never
read.  ``tests/test_wal_recovery.py`` holds a reopened database to it.
Not imported by ``src``.
"""

from __future__ import annotations

from pathlib import Path

from repro.metadb.schema import TableSchema
from repro.metadb.storage import Table
from repro.metadb.wal import Journal


def recover(directory: Path) -> tuple[dict[str, Table], int]:
    """The tables and the follower offset a database opened on
    ``directory`` holds."""
    journal = Journal(directory)
    tables: dict[str, Table] = {}
    offset = 0
    snapshot = journal.load_snapshot()
    if snapshot is not None:
        for table_data in snapshot["tables"].values():
            schema = TableSchema.from_dict(table_data["schema"])
            table = Table(schema)
            for rowid, row in sorted(table_data["rows"].items()):
                table.restore(rowid, row)
            tables[schema.name] = table
        offset = snapshot["replication_offset"]
    for record in journal.replay():
        operation = record["op"]
        if operation == "__ddl__":
            if record["kind"] == "create_table":
                schema = TableSchema.from_dict(record["schema"])
                tables[schema.name] = Table(schema)
            elif record["kind"] == "drop_table":
                tables.pop(record["table"], None)
            continue
        if operation == "__repl_ack__":
            offset = int(record.get("lsn", 0))
            continue
        table = tables[record["table"]]
        if operation == "insert":
            table.restore(record["rowid"], record["row"])
        elif operation == "update":
            table.update_row(record["rowid"], table.schema.normalize_row(
                record["changes"], for_update=True))
        elif operation == "delete":
            table.delete(record["rowid"])
    journal.close()
    return tables, offset
