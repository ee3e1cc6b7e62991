"""Page oracle: the HLE page and name construction as they were before
they were batched, the page as it was before its batch carried
references, and the gated batches as they were before they were
prepared.

:func:`fetch_page` is ``DataManager.fetch_page(batched=False)`` as it
was, the paper's one-query-per-trip sequence (seven trips without file
rows, more with); :func:`fetch_page_in_two_trips` is the
``DataManager.fetch_page`` the one-trip page replaced (the scoped tuple,
then one batch of the six statements its values determine, bound in the
DM); :func:`resolve_files` is ``NameMapper._resolve_files``, one
``loc_files`` query and then one ``loc_archives`` query per file row.
:func:`fetch_page_unprepared`, :func:`item_files_unprepared` and
:func:`catalog_page_unprepared` are the one-trip batches as plain lists
built per call with the request's values, each statement translated
on its own and every reference scanned for by each layer.
``tests/test_pages.py``, ``tests/test_prepared_batch.py`` and
``tests/test_web_scheduler.py`` require the one-trip page and the
joined statement to return the same rows and bytes.  Not imported by
``src``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.dm import DataManager, NameMappingError, ResolvedName
from repro.dm.dm import HlePage
from repro.dm.semantic import found, scoped_select
from repro.metadb import Aggregate, Between, Comparison, In, Ref, Select
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


def fetch_page_in_two_trips(dm: DataManager, user: Optional[User],
                            hle_id: int) -> HlePage:
    hle = dm.semantic.get_hle(user, hle_id)
    rate = hle.get("peak_rate") or 0.0
    by_hle = Comparison("hle_id", "=", hle_id)
    count = [Aggregate("count", "*", "n")]
    analyses, n_ana_rows, n_cat_rows, file_rows, similar, neighbours = \
        dm.io.execute_batch([
            Select("ana", where=scoped_where(user, by_hle),
                   order_by=[("ana_id", "asc")]),
            Select("ana", where=by_hle, aggregates=count),
            Select("catalog_members", where=by_hle, aggregates=count),
            dm.io.names.files_statement(hle["item_id"]),
            Select(
                "hle",
                where=scoped_where(
                    user, Between("peak_rate", rate * 0.5, rate * 1.5)),
                order_by=[("peak_rate", "desc")], limit=40,
            ),
            Select(
                "hle",
                where=scoped_where(
                    user,
                    Between("start_time", hle["start_time"] - 3600,
                            hle["start_time"] + 3600)),
                order_by=[("start_time", "asc")], limit=40,
            ),
        ])
    files = dm.io.names.resolve_from_rows(hle["item_id"], file_rows)
    return HlePage(hle, analyses, n_ana_rows[0]["n"], n_cat_rows[0]["n"],
                   similar, neighbours, files)


def fetch_page_unprepared(dm: DataManager, user: Optional[User], hle_id: int) -> HlePage:
    tuple_id, tuple_item = Ref(0, "hle_id"), Ref(0, "item_id")
    rates = [Ref(0, "peak_rate", scale=scale, if_null=0.0) for scale in (0.5, 1.5)]
    times = [Ref(0, "start_time", shift=shift) for shift in (-3600, 3600)]
    by_hle = Comparison("hle_id", "=", tuple_id)
    count = [Aggregate("count", "*", "n")]
    rows, analyses, n_ana_rows, n_cat_rows, file_rows, similar, neighbours = \
        dm.io.execute_batch([
            scoped_select(user, "hle", hle_id),
            Select("ana", where=scoped_where(user, by_hle),
                   order_by=[("ana_id", "asc")]),
            Select("ana", where=by_hle, aggregates=count),
            Select("catalog_members", where=by_hle, aggregates=count),
            dm.io.names.files_statement(tuple_item),
            Select("hle", where=scoped_where(user, Between("peak_rate", *rates)),
                   order_by=[("peak_rate", "desc")], limit=40),
            Select("hle", where=scoped_where(user, Between("start_time", *times)),
                   order_by=[("start_time", "asc")], limit=40),
        ])
    hle = found(rows, "hle", hle_id)
    files = dm.io.names.resolve_from_rows(hle["item_id"], file_rows)
    return HlePage(hle, analyses, n_ana_rows[0]["n"], n_cat_rows[0]["n"],
                   similar, neighbours, files)


def item_files_unprepared(dm: DataManager, user: Optional[User], kind: str,
                          entity_id: int, role: Optional[str] = None) -> list[ResolvedName]:
    rows, files = dm.io.execute_batch([
        scoped_select(user, kind, entity_id),
        dm.io.names.files_statement(Ref(0, "item_id")),
    ])
    return dm.io.names.resolve_from_rows(
        found(rows, kind, entity_id)["item_id"], files, role)


def catalog_page_unprepared(dm: DataManager, user: Optional[User],
                            catalog_id: int) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    catalogs, members = dm.io.execute_batch([
        scoped_select(user, "cat", catalog_id),
        Select("catalog_members",
               where=Comparison("catalog_id", "=", Ref(0, "catalog_id"))),
    ])
    catalog = found(catalogs, "cat", catalog_id)
    if not members:
        return catalog, []
    member_ids = [member["hle_id"] for member in members]
    visible = {row["hle_id"]: row for row in dm.io.execute(
        Select("hle", where=scoped_where(user, In("hle_id", member_ids))))}
    return catalog, [visible[hle_id] for hle_id in member_ids if hle_id in visible]
