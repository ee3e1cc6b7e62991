"""Dynamic name mapping (paper §4.3).

Every data item is located by *constructing* a name of the form
``[type][root][path][item_id]`` at request time:

1. the domain tuple carries an ``item_id``;
2. looking the location tables up by it (an indexed lookup) yields the
   entries — name type plus archive id — associated with the tuple;
3. looking the archive table up by the archive id (a second indexed
   lookup) yields the current archive kind and root path.

"The cost of this dynamic name construction is two extra database
queries on an indexed field"; here the two lookups travel as one joined
statement (:meth:`NameMapper.files_statement`), one trip to the
database.  The payoff is unchanged: administrators relocate files by
updating location tuples only, at run time, without touching the domain
schema — which :meth:`NameMapper.relocate_archive` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..metadb import Comparison, Insert, Join, Select, Update
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

    ``executor`` is the DM's I/O layer, so that a name construction is
    counted as a DM query (§4.3's "two extra database queries", sent
    as one statement).
    """

    def __init__(self, executor, obs: Optional[Observability] = None):
        self._db = executor
        self.obs = resolve_obs(obs)
        self._lookup_counters = {
            kind: self.obs.counter("dm.name_mapping.lookups", kind=kind)
            for kind in ("file", "tuple", "url")
        }

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
        file_id = self._db.allocate_id("loc_files", "file_id")
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
        url_id = self._db.allocate_id("loc_urls", "url_id")
        self._db.execute(
            Insert("loc_urls", {"url_id": url_id, "item_id": item_id, "url": url,
                                "transform": transform}),
            tx=tx,
        )
        return url_id

    # -- name construction --------------------------------------------------

    @staticmethod
    def files_statement(item_id: str) -> Select:
        """Both indexed lookups as one statement: the item's file entries,
        each joined to its archive's current kind and root path.
        Left-outer, so an entry whose archive is gone still comes back
        (without a root) and name construction can say so."""
        return Select(
            "loc_files", where=Comparison("item_id", "=", item_id),
            join=Join("loc_archives", "archive_id", "archive_id", outer=True),
        )

    def resolve_files(self, item_id: str, role: Optional[str] = None) -> list[ResolvedName]:
        """Construct filenames for an item: one trip to the database."""
        obs = self.obs
        threshold = obs.slowlog.threshold_for("dm.name_mapping")
        started = time.perf_counter()
        with obs.span("dm.name_mapping", item=item_id):
            try:
                resolved = self._names(
                    item_id, self._db.execute(self.files_statement(item_id)), role)
            except NameMappingError as exc:
                elapsed = time.perf_counter() - started
                if threshold is not None and elapsed >= threshold:
                    obs.slow_op("dm.name_mapping", elapsed, threshold,
                                item_id=item_id, role=role, resolved=0,
                                miss=str(exc))
                raise
            elapsed = time.perf_counter() - started
            if threshold is not None and elapsed >= threshold:
                detail: dict = {"item_id": item_id, "role": role,
                                "resolved": len(resolved)}
                if not resolved:
                    detail["miss"] = "no file entries for item"
                obs.slow_op("dm.name_mapping", elapsed, threshold, **detail)
            return resolved

    def resolve_from_rows(
        self, item_id: str, rows: list[dict], role: Optional[str] = None,
    ) -> list[ResolvedName]:
        """Construct names from the rows of :meth:`files_statement`,
        wherever they were fetched: the page fetch sends the statement
        inside its own batch.  One name construction for the §7 usage
        analytics either way."""
        return self._names(item_id, rows, role)

    def _names(self, item_id: str, rows: list[dict],
               role: Optional[str]) -> list[ResolvedName]:
        # Under both entry points rather than one calling the other:
        # ``bench/trace.py`` times each as a ``dm.naming`` call.
        self._lookup_counters["file"].inc()
        resolved: list[ResolvedName] = []
        for row in rows:
            if role is not None and row["role"] != role:
                continue
            root = row.get("root_path")
            if root is None:
                raise NameMappingError(f"unknown archive {row['archive_id']!r}")
            resolved.append(
                ResolvedName(
                    name_type="filename",
                    root=root,
                    path=row["rel_path"],
                    item_id=item_id,
                    role=row["role"],
                    compressed=bool(row["compressed"]),
                    checksum=row.get("checksum"),
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
