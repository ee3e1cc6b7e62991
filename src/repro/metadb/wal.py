"""Write-ahead journal and snapshot persistence.

Durability mirrors the paper's setup ("critical data, such as the database
redo logs ... is stored on the A1000 with tape backup"): committed
transactions are appended to a JSON-lines journal; a checkpoint writes a
full snapshot and truncates the journal; opening a database restores the
snapshot and replays the journal.
Each checkpoint starts a journal *generation*, named by the snapshot and
by the journal's first line: a crash between the snapshot's rename and
the truncate leaves an older journal, which recovery discards.  A file
without a generation is generation 0.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from ..obs import Observability, resolve as resolve_obs
from ..resil.faults import fire as fire_fault

# Process-wide count of open journal file handles — a leak detector for
# the process-runtime panel (every Journal opens lazily and closes on
# checkpoint, so a steadily climbing count means handles are escaping).
_OPEN_HANDLES = 0
_HANDLE_LOCK = threading.Lock()


def open_wal_handles() -> int:
    """How many journal file handles this process currently holds open."""
    return _OPEN_HANDLES


def encode_blob(value: Any) -> dict[str, str]:
    """``json.dumps(default=...)`` hook: the C encoder walks records and
    rows and calls back only for what JSON cannot say; a BLOB is the one
    such value a normalised row holds."""
    if isinstance(value, bytes):
        return {"__blob__": base64.b64encode(value).decode("ascii")}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__blob__" in value:
        return base64.b64decode(value["__blob__"])
    return value


def _decode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {key: _decode_value(value) for key, value in row.items()}


def counted_fsync(handle, obs: Observability,
                  scoped_fault: Optional[str] = None) -> None:
    """Force ``handle`` to disk: every durable write of the data tier
    passes here, so ``metadb.wal.fsyncs`` counts them all and the
    ``metadb.wal.fsync`` fault point can fail any of them."""
    fire_fault("metadb.wal.fsync")
    if scoped_fault is not None:
        fire_fault(scoped_fault)
    os.fsync(handle.fileno())
    obs.count("metadb.wal.fsyncs")


def replace_durably(path: Path, chunks: Iterable[str],
                    fsync: Callable[[Any], None]) -> None:
    """Write ``chunks`` to ``path`` so that a crash leaves the old file or
    the new one, never a part of either: a temporary file beside it,
    flushed and fsynced, then renamed into place."""
    tmp_path = path.with_suffix(".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        fsync(handle)
    os.replace(tmp_path, path)


#: Rows encoded per ``json.dumps`` call while writing a snapshot: large
#: enough that the C encoder does the work, small enough that no string
#: near the size of the database is ever held.
SNAPSHOT_CHUNK_ROWS = 2000


def _snapshot_chunks(snapshot: dict[str, Any]) -> Iterator[str]:
    """The snapshot document, piece by piece: byte for byte what
    ``json.dump({"tables": {name: {"schema": ..., "rows": {...}}}, ...})``
    writes, produced by ``json.dumps`` (one call into the C encoder per
    chunk of rows) where ``json.dump`` walks a pure-Python generator."""
    yield '{"tables": {'
    for index, (name, table_data) in enumerate(snapshot["tables"].items()):
        yield (", " if index else "") + json.dumps(name) + ': {"schema": ' \
            + json.dumps(table_data["schema"]) + ', "rows": {'
        rows = iter(table_data["rows"].items())
        separator = ""
        while chunk := dict(islice(rows, SNAPSHOT_CHUNK_ROWS)):
            yield separator + json.dumps(chunk, default=encode_blob)[1:-1]
            separator = ", "
        yield "}}"
    yield "}"
    for key, value in snapshot.items():
        if key != "tables":
            yield f", {json.dumps(key)}: {json.dumps(value)}"
    yield "}"


class Journal:
    """Append-only journal of committed transactions."""

    def __init__(self, directory: Path, obs: Optional[Observability] = None,
                 fault_scope: Optional[str] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / "journal.jsonl"
        self.snapshot_path = self.directory / "snapshot.json"
        self._handle = None
        #: The generation of this journal's records: its snapshot's.
        self.generation = 0
        self.obs = resolve_obs(obs)
        # Scoped fault point (e.g. "metadb.shard.3") so chaos tests can
        # fail one shard's fsyncs without touching every journal.
        self._fsync_fault = f"{fault_scope}.wal.fsync" if fault_scope else None

    def _fsync(self, handle) -> None:
        counted_fsync(handle, self.obs, self._fsync_fault)

    # -- writing -------------------------------------------------------------

    def _open_handle(self):
        if self._handle is None:
            self._handle = open(self.journal_path, "a", encoding="utf-8")
            if self.generation and not self._handle.tell():
                # Flushed and fsynced with the record that follows.
                self._handle.write(json.dumps({"generation": self.generation}) + "\n")
            global _OPEN_HANDLES
            with _HANDLE_LOCK:
                _OPEN_HANDLES += 1
        return self._handle

    def append_transaction(self, tx_id: int, records: list[dict[str, Any]]) -> None:
        """Durably record one committed transaction (a schema change is
        one of its own)."""
        handle = self._open_handle()
        handle.write(json.dumps({"tx": tx_id, "records": records},
                                default=encode_blob) + "\n")
        handle.flush()
        self._fsync(handle)
        self.obs.count("metadb.wal.records", len(records))

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self, snapshot: dict[str, Any]) -> None:
        """Write a snapshot atomically, then truncate the journal, whose
        records are of the snapshot's ``generation`` from here on."""
        replace_durably(self.snapshot_path, _snapshot_chunks(snapshot), self._fsync)
        self.generation = snapshot.get("generation", 0)
        self._truncate()
        self.obs.count("metadb.wal.checkpoints")

    def _truncate(self) -> None:
        self.close()
        with open(self.journal_path, "w", encoding="utf-8") as handle:
            handle.flush()
            self._fsync(handle)

    # -- recovery ------------------------------------------------------------

    def load_snapshot(self) -> Optional[dict[str, Any]]:
        """The snapshot's tables and the follower offset it holds; sets
        the generation a journal must be of to be replayed over it."""
        if not self.snapshot_path.exists():
            return None
        with open(self.snapshot_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        tables = {}
        for table_name, table_data in payload["tables"].items():
            tables[table_name] = {
                "schema": table_data["schema"],
                "rows": {
                    int(rowid): _decode_row(row)
                    for rowid, row in table_data["rows"].items()
                },
            }
        self.generation = payload.get("generation", 0)
        return {"tables": tables,
                "replication_offset": payload.get("replication_offset", 0)}

    def _scan_entries(self) -> list[dict[str, Any]]:
        """Read all decodable journal entries, healing a torn tail.

        A crash mid-append can leave a partially written final line.  A
        strict byte-prefix of a JSON object cannot itself parse as JSON
        (the braces are unbalanced), so an undecodable line marks the torn
        tail: everything from that byte onward is physically truncated away
        — otherwise the next append would concatenate onto the partial line
        and corrupt *two* records — and the discard is reported to the
        event log.  The one benign case is a final line that parses but
        lost only its trailing newline; the record is complete data, so it
        is kept and the newline repaired in place.
        """
        if not self.journal_path.exists():
            return []
        data = self.journal_path.read_bytes()
        entries: list[dict[str, Any]] = []
        size = len(data)
        position = 0
        good_end = 0
        missing_newline = False
        while position < size:
            newline = data.find(b"\n", position)
            complete = newline != -1
            end = newline + 1 if complete else size
            stripped = data[position:end].strip()
            if stripped:
                try:
                    entry = json.loads(stripped.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    entry = None
                if not isinstance(entry, dict):
                    self._truncate_torn_tail(good_end, size - good_end)
                    return entries
                entries.append(entry)
                missing_newline = not complete
            position = end
            good_end = end
        if missing_newline:
            with open(self.journal_path, "ab") as handle:
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        return entries

    def _truncate_torn_tail(self, good_end: int, torn_bytes: int) -> None:
        self.close()
        with open(self.journal_path, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
        self.obs.count("metadb.wal.torn_tails")
        self.obs.event(
            "warn", "metadb", "wal.torn_tail",
            f"discarded {torn_bytes} torn byte(s) at the journal tail",
            journal=str(self.journal_path), kept_bytes=good_end,
            discarded_bytes=torn_bytes,
        )

    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield journal entries in commit order, discarding a torn tail
        and, before anything is appended to it, a journal the snapshot
        supersedes."""
        entries = self._scan_entries()
        if entries and entries[0].get("generation", 0) < self.generation:
            self._truncate()
            return
        for entry in entries:
            if "records" in entry:
                for record in entry["records"]:
                    record = dict(record)
                    if "row" in record:
                        record["row"] = _decode_row(record["row"])
                    if "changes" in record:
                        record["changes"] = _decode_row(record["changes"])
                    yield record
            elif "ddl" in entry:    # a schema change as journals once wrote it
                yield {"op": "__ddl__", **entry["ddl"]}

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            global _OPEN_HANDLES
            with _HANDLE_LOCK:
                _OPEN_HANDLES -= 1
