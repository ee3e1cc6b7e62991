"""Dynamic name mapping (paper §4.3).

Every data item is located by *constructing* a name of the form
``[type][root][path][item_id]`` at request time:

1. the domain tuple carries an ``item_id``;
2. querying the location tables with it (one indexed query) yields the
   entries — name type plus archive id — associated with the tuple;
3. querying the archive table with the archive id (second indexed query)
   yields the current archive kind and root path.

"The cost of this dynamic name construction is two extra database
queries on an indexed field"; the payoff is that administrators relocate
files by updating location tuples only, at run time, without touching
the domain schema — which :meth:`NameMapper.relocate_archive` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..metadb import Comparison, Insert, Select, Update
from ..obs import Observability, resolve as resolve_obs


class NameMappingError(Exception):
    """Item or archive could not be resolved."""


@dataclass(frozen=True)
class ResolvedName:
    """One constructed name."""

    name_type: str    # "filename" | "tuple" | "url"
    root: str
    path: str
    item_id: str
    role: str = "data"
    compressed: bool = False
    #: Registered content checksum — doubles as a strong ETag for the
    #: web tier's conditional GETs, with no payload read required.
    checksum: Optional[str] = None

    @property
    def full(self) -> str:
        if self.name_type == "filename":
            return str(Path(self.root) / self.path)
        if self.name_type == "url":
            return self.root + self.path
        return f"{self.root}:{self.path}"


class NameMapper:
    """Name construction and location-table maintenance.

    ``executor`` is the DM's I/O layer, so that name-construction
    queries are counted as DM queries (they are the "two extra database
    queries" of §4.3).
    """

    def __init__(self, executor, obs: Optional[Observability] = None):
        self._db = executor
        self.obs = resolve_obs(obs)
        self._lookup_counters = {
            kind: self.obs.counter("dm.name_mapping.lookups", kind=kind)
            for kind in ("file", "tuple", "url")
        }

    def _allocate(self, table: str, column: str) -> int:
        return self._db.database_for(table).allocate_id(table, column)

    # -- registration -----------------------------------------------------

    def register_archive(self, archive_id: str, root_path: str, kind: str = "disk") -> None:
        existing = self._db.execute(
            Select("loc_archives", where=Comparison("archive_id", "=", archive_id))
        )
        if existing:
            raise NameMappingError(f"archive {archive_id!r} already registered")
        self._db.execute(
            Insert(
                "loc_archives",
                {"archive_id": archive_id, "kind": kind, "root_path": root_path},
            )
        )

    def ensure_archive(self, archive_id: str, root_path: str, kind: str = "disk") -> None:
        """Register an archive, or repoint an existing registration —
        idempotent, for reopening persistent repositories."""
        existing = self._db.execute(
            Select("loc_archives", where=Comparison("archive_id", "=", archive_id))
        )
        if existing:
            if existing[0]["root_path"] != root_path:
                self.relocate_archive(archive_id, root_path)
            return
        self.register_archive(archive_id, root_path, kind=kind)

    def register_file(
        self,
        item_id: str,
        archive_id: str,
        rel_path: str,
        role: str = "data",
        size_bytes: Optional[int] = None,
        checksum: Optional[str] = None,
        compressed: bool = False,
        tx=None,
    ) -> int:
        file_id = self._allocate("loc_files", "file_id")
        self._db.execute(
            Insert(
                "loc_files",
                {
                    "file_id": file_id,
                    "item_id": item_id,
                    "archive_id": archive_id,
                    "rel_path": rel_path,
                    "role": role,
                    "size_bytes": size_bytes,
                    "checksum": checksum,
                    "compressed": compressed,
                },
            ),
            tx=tx,
        )
        return file_id

    def register_tuple(self, tuple_ref: str, item_id: str, table_name: str, tx=None) -> None:
        self._db.execute(
            Insert(
                "loc_tuples",
                {"tuple_ref": tuple_ref, "item_id": item_id, "table_name": table_name},
            ),
            tx=tx,
        )

    def register_url(self, item_id: str, url: str, transform: Optional[str] = None, tx=None) -> int:
        url_id = self._allocate("loc_urls", "url_id")
        self._db.execute(
            Insert("loc_urls", {"url_id": url_id, "item_id": item_id, "url": url,
                                "transform": transform}),
            tx=tx,
        )
        return url_id

    # -- name construction --------------------------------------------------

    def resolve_files(self, item_id: str, role: Optional[str] = None) -> list[ResolvedName]:
        """Construct filenames for an item — the two indexed queries."""
        self._lookup_counters["file"].inc()
        obs = self.obs
        threshold = obs.slowlog.threshold_for("dm.name_mapping")
        if threshold is None:
            with obs.span("dm.name_mapping", item=item_id):
                return self._resolve_files(item_id, role)
        started = time.perf_counter()
        with obs.span("dm.name_mapping", item=item_id):
            try:
                resolved = self._resolve_files(item_id, role)
            except NameMappingError as exc:
                elapsed = time.perf_counter() - started
                if elapsed >= threshold:
                    obs.slow_op("dm.name_mapping", elapsed, threshold,
                                item_id=item_id, role=role, resolved=0,
                                miss=str(exc))
                raise
            elapsed = time.perf_counter() - started
            if elapsed >= threshold:
                detail: dict = {"item_id": item_id, "role": role,
                                "resolved": len(resolved)}
                if not resolved:
                    detail["miss"] = "no file entries for item"
                obs.slow_op("dm.name_mapping", elapsed, threshold, **detail)
            return resolved

    def _resolve_files(self, item_id: str, role: Optional[str]) -> list[ResolvedName]:
        entries = self._db.execute(
            Select("loc_files", where=Comparison("item_id", "=", item_id))
        )
        if role is not None:
            entries = [entry for entry in entries if entry["role"] == role]
        resolved: list[ResolvedName] = []
        for entry in entries:
            archives = self._db.execute(
                Select("loc_archives", where=Comparison("archive_id", "=", entry["archive_id"]))
            )
            if not archives:
                raise NameMappingError(f"unknown archive {entry['archive_id']!r}")
            archive = archives[0]
            resolved.append(
                ResolvedName(
                    name_type="filename",
                    root=archive["root_path"],
                    path=entry["rel_path"],
                    item_id=item_id,
                    role=entry["role"],
                    compressed=bool(entry["compressed"]),
                    checksum=entry.get("checksum"),
                )
            )
        return resolved

    def resolve_from_rows(
        self,
        item_id: str,
        file_rows: list[dict],
        archive_rows: list[dict],
        role: Optional[str] = None,
    ) -> list[ResolvedName]:
        """Construct names from pre-fetched location rows.

        The batched page fetch retrieves ``loc_files`` and
        ``loc_archives`` rows inside its grouped round trips; this builds
        the same :class:`ResolvedName` list :meth:`resolve_files` would,
        without issuing the two extra queries again.  Counted as a file
        lookup so the §7 usage analytics see one name construction either
        way.
        """
        self._lookup_counters["file"].inc()
        archives = {row["archive_id"]: row for row in archive_rows}
        resolved: list[ResolvedName] = []
        for entry in file_rows:
            if role is not None and entry["role"] != role:
                continue
            archive = archives.get(entry["archive_id"])
            if archive is None:
                raise NameMappingError(f"unknown archive {entry['archive_id']!r}")
            resolved.append(
                ResolvedName(
                    name_type="filename",
                    root=archive["root_path"],
                    path=entry["rel_path"],
                    item_id=item_id,
                    role=entry["role"],
                    compressed=bool(entry["compressed"]),
                    checksum=entry.get("checksum"),
                )
            )
        return resolved

    def resolve_tuple(self, item_id: str) -> list[ResolvedName]:
        self._lookup_counters["tuple"].inc()
        entries = self._db.execute(
            Select("loc_tuples", where=Comparison("item_id", "=", item_id))
        )
        return [
            ResolvedName("tuple", entry["database_name"], entry["table_name"], item_id)
            for entry in entries
        ]

    def resolve_urls(self, item_id: str) -> list[ResolvedName]:
        self._lookup_counters["url"].inc()
        entries = self._db.execute(
            Select("loc_urls", where=Comparison("item_id", "=", item_id))
        )
        return [
            ResolvedName("url", entry["url"], "", item_id, role=entry.get("transform") or "plain")
            for entry in entries
        ]

    # -- relocation ----------------------------------------------------------

    def relocate_archive(self, archive_id: str, new_root: str) -> int:
        """Point an archive at a new root — run-time, no downtime (§4.3).

        Every file hosted by the archive resolves to the new location on
        its next name construction.  Returns the number of affected file
        references.
        """
        updated = self._db.execute(
            Update(
                "loc_archives",
                {"root_path": new_root},
                Comparison("archive_id", "=", archive_id),
            )
        )
        if not updated:
            raise NameMappingError(f"unknown archive {archive_id!r}")
        affected = self._db.execute(
            Select("loc_files", where=Comparison("archive_id", "=", archive_id))
        )
        return len(affected)

    def move_file(self, item_id: str, rel_path: str, to_archive: str) -> None:
        """Re-home one file reference after a physical migration."""
        entries = self._db.execute(
            Select("loc_files", where=Comparison("item_id", "=", item_id))
        )
        for entry in entries:
            if entry["rel_path"] == rel_path:
                self._db.execute(
                    Update(
                        "loc_files",
                        {"archive_id": to_archive},
                        Comparison("file_id", "=", entry["file_id"]),
                    )
                )
                return
        raise NameMappingError(f"no file reference {item_id!r}/{rel_path!r}")
