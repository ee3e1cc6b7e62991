"""Snapshot oracle: ``Journal.checkpoint`` as it was before it called the
C encoder.

The whole payload is built, every row copied, and written by one
``json.dump``, which walks the pure-Python ``_iterencode`` generator.
``tests/test_wal_recovery.py`` requires the chunked writer to produce
the same bytes; ``benchmarks/test_write_placement.py`` times it against
this.  Not imported by ``src``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.metadb.wal import Journal

from .oracle_normalize import _encode_row


def checkpoint_with_json_dump(journal: Journal, snapshot: dict[str, Any]) -> None:
    payload = {**snapshot, "tables": {
        name: {"schema": data["schema"],
               "rows": {str(rowid): _encode_row(row)
                        for rowid, row in data["rows"].items()}}
        for name, data in snapshot["tables"].items()}}
    tmp_path = journal.snapshot_path.with_suffix(".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        journal._fsync(handle)
    os.replace(tmp_path, journal.snapshot_path)
    journal.close()
    with open(journal.journal_path, "w", encoding="utf-8") as handle:
        handle.flush()
        journal._fsync(handle)
