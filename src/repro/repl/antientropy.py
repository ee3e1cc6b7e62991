"""Anti-entropy: range-checksum comparison and repair of a follower.

Replication by log shipping keeps followers converged as long as every
batch arrives; anti-entropy is the backstop for everything else — bit
rot, a follower restored from an old snapshot, direct table writes that
bypassed the log (the shard split's warm copy), or plain operator error.

Each table is cut into contiguous rowid ranges; both sides hash the
canonical encoding of their rows per range (reusing the filestore
checksum utility from PR 2).  Ranges whose digests differ are re-cloned
row-by-row through the follower's normal :meth:`apply_redo` path, so the
repair itself is journaled and crash-safe.  Reads continue throughout —
only the follower's per-statement lock is taken, range by range.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..filestore.checksums import checksum_bytes
from ..metadb.database import Database, _ddl_record
from ..metadb.storage import Table
from ..metadb.wal import encode_blob

Range = tuple[int, Optional[int]]


def rowid_ranges(table: Table, n_ranges: int = 8) -> list[Range]:
    """Cut ``table`` into contiguous half-open rowid ranges ``[lo, hi)``.

    The final range is open-ended (``hi is None``) so rows a divergent
    follower holds *beyond* the primary's maximum rowid are still caught
    by the comparison.
    """
    rowids = list(table.rowids())
    max_rowid = max(rowids) if rowids else 0
    n_ranges = max(1, n_ranges)
    width = max(1, (max_rowid // n_ranges) + 1)
    ranges: list[Range] = []
    lo = 1
    while len(ranges) < n_ranges - 1 and lo <= max_rowid:
        ranges.append((lo, lo + width))
        lo += width
    ranges.append((lo, None))
    return ranges


def _range_payload(table: Table, lo: int, hi: Optional[int]) -> bytes:
    rows = sorted(
        (rowid, table.row(rowid))
        for rowid in table.rowids()
        if rowid >= lo and (hi is None or rowid < hi)
    )
    return json.dumps(rows, sort_keys=True, separators=(",", ":"),
                      default=encode_blob).encode("utf-8")


def range_checksums(db: Database, table_name: str,
                    boundaries: list[Range]) -> list[str]:
    """Digest of the canonical row encoding per range — the comparison
    unit for primary-vs-replica diffs and the differential tests'
    byte-identity check."""
    table = db.table(table_name)
    return [checksum_bytes(_range_payload(table, lo, hi)) for lo, hi in boundaries]


def verify_replica(primary: Database, replica: Database,
                   n_ranges: int = 8) -> dict[str, list[Range]]:
    """Compare every table range-by-range; returns divergent ranges keyed
    by table name.  A table missing on either side reports a single
    open-ended divergent range.  Empty dict == byte-identical.
    """
    with primary._lock:
        divergent: dict[str, list[Range]] = {}
        primary_tables = set(primary.table_names())
        for name in sorted(primary_tables):
            if not replica.has_table(name):
                divergent[name] = [(1, None)]
                continue
            boundaries = rowid_ranges(primary.table(name), n_ranges)
            ours = range_checksums(primary, name, boundaries)
            theirs = range_checksums(replica, name, boundaries)
            bad = [b for b, lhs, rhs in zip(boundaries, ours, theirs) if lhs != rhs]
            if bad:
                divergent[name] = bad
        for name in replica.table_names():
            if name not in primary_tables:
                divergent[name] = [(1, None)]
        return divergent


def repair_replica(primary: Database, replica: Database,
                   n_ranges: int = 8) -> dict[str, Any]:
    """Make ``replica`` byte-identical to ``primary`` and report the work.

    Runs under the primary's lock so the repair sees one consistent
    primary state.  The replica's table set is made the primary's
    first; then each range :func:`verify_replica` finds divergent is
    re-cloned as a delete-then-restore redo batch through
    ``replica.apply_redo`` (journaled on the follower, so a crash
    mid-repair recovers cleanly).
    """
    with primary._lock:
        report: dict[str, Any] = {
            "tables": {}, "ranges_checked": 0, "ranges_repaired": 0,
            "rows_cloned": 0,
        }
        primary_tables = primary.table_names()
        for name in replica.table_names():
            if name not in primary_tables:
                replica.apply_redo([_ddl_record("drop_table", table=name)])
                report["tables"][name] = "dropped"
        for name in primary_tables:
            ptable = primary.table(name)
            if not replica.has_table(name):
                replica.apply_redo([_ddl_record(
                    "create_table", schema=ptable.schema.to_dict())])
            report["ranges_checked"] += len(rowid_ranges(ptable, n_ranges))
        for name, bad in verify_replica(primary, replica, n_ranges).items():
            ptable, rtable = primary.table(name), replica.table(name)
            rows_cloned = 0
            for lo, hi in bad:
                records: list[dict[str, Any]] = [
                    {"op": "delete", "table": name, "rowid": rowid}
                    for rowid in rtable.rowids()
                    if rowid >= lo and (hi is None or rowid < hi)
                ]
                clones = [
                    {"op": "insert", "table": name, "rowid": rowid,
                     "row": ptable.row(rowid)}
                    for rowid in sorted(ptable.rowids())
                    if rowid >= lo and (hi is None or rowid < hi)
                ]
                records.extend(clones)
                rows_cloned += len(clones)
                replica.apply_redo(records)
            report["ranges_repaired"] += len(bad)
            report["rows_cloned"] += rows_cloned
            report["tables"][name] = {
                "divergent_ranges": len(bad), "rows_cloned": rows_cloned,
            }
        return report
