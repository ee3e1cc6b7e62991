"""Page oracle: the HLE page and name construction as they were before
they were batched.

:func:`fetch_page` is ``DataManager.fetch_page(batched=False)`` of the
parent commit, the paper's one-query-per-trip sequence (seven trips
without file rows, more with); :func:`resolve_files` is
``NameMapper._resolve_files``, one ``loc_files`` query and then one
``loc_archives`` query per file row.  ``tests/test_pages.py`` and
``tests/test_web_scheduler.py`` require the two-trip page and the joined
statement to return the same rows and bytes.  Not imported by ``src``.
"""

from __future__ import annotations

from typing import Optional

from repro.dm import DataManager, NameMappingError, ResolvedName
from repro.dm.dm import HlePage
from repro.metadb import Aggregate, Between, Comparison, Select
from repro.security import User, scoped_where


def resolve_files(db, item_id: str, role: Optional[str] = None) -> list[ResolvedName]:
    """``db`` is anything with ``execute`` (the DM's I/O layer)."""
    entries = db.execute(
        Select("loc_files", where=Comparison("item_id", "=", item_id))
    )
    if role is not None:
        entries = [entry for entry in entries if entry["role"] == role]
    resolved: list[ResolvedName] = []
    for entry in entries:
        archives = db.execute(
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


def fetch_page(dm: DataManager, user: Optional[User], hle_id: int) -> HlePage:
    io = dm.io
    hle = dm.semantic.get_hle(user, hle_id)
    rate = hle.get("peak_rate") or 0.0
    analyses_q = Select(
        "ana", where=scoped_where(user, Comparison("hle_id", "=", hle_id)),
        order_by=[("ana_id", "asc")],
    )
    n_analyses_q = Select(
        "ana", where=Comparison("hle_id", "=", hle_id),
        aggregates=[Aggregate("count", "*", "n")],
    )
    n_catalogs_q = Select(
        "catalog_members", where=Comparison("hle_id", "=", hle_id),
        aggregates=[Aggregate("count", "*", "n")],
    )
    similar_q = Select(
        "hle",
        where=scoped_where(user, Between("peak_rate", rate * 0.5, rate * 1.5)),
        order_by=[("peak_rate", "desc")], limit=40,
    )
    neighbours_q = Select(
        "hle",
        where=scoped_where(
            user,
            Between("start_time", hle["start_time"] - 3600,
                    hle["start_time"] + 3600)),
        order_by=[("start_time", "asc")], limit=40,
    )
    analyses = io.execute(analyses_q)
    n_analyses = io.execute(n_analyses_q)[0]["n"]
    n_catalogs = io.execute(n_catalogs_q)[0]["n"]
    similar = io.execute(similar_q)
    files = resolve_files(io, hle["item_id"])
    neighbours = io.execute(neighbours_q)
    return HlePage(hle, analyses, n_analyses, n_catalogs, similar,
                   neighbours, files)
