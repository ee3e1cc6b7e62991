"""The DM's semantic layer (paper §5.2).

Sits between the I/O layer and the process layer: enforces access rules,
ensures referential consistency, determines data dependencies, and
implements the entity services — HLE/ANA/catalog insertion and deletion
with their file references handled transactionally ("transactional
properties around entities such as an HLE and its related analysis
tuples and their references to data files", §4.4).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from ..analysis import AnalysisProduct
from ..metadb import (
    Aggregate,
    And,
    Batch,
    Comparison,
    Delete,
    In,
    Insert,
    Param,
    PreparedBatch,
    Ref,
    Select,
    Update,
)
from ..security import (
    ConstraintViolation,
    User,
    check_can_edit,
    check_no_dependencies,
    check_right,
    scoped_where,
)
from .io_layer import IoLayer
from .naming import ResolvedName


class EntityNotFound(Exception):
    """Lookup for a missing HLE/ANA/catalog."""


#: The entities that own items, by the prefix of their item ids: table,
#: key column, and what a miss calls them.
ENTITIES = {"hle": ("hle", "hle_id", "HLE"), "ana": ("ana", "ana_id", "analysis"),
            "cat": ("catalogs", "catalog_id", "catalog")}


def scoped_select(user: Optional[User], kind: str, entity_id: Any) -> Select:
    """One entity by key, as far as ``user`` may see it: the gate in front
    of everything read about it."""
    table, key, _what = ENTITIES[kind]
    return Select(table, where=scoped_where(user, Comparison(key, "=", entity_id)))


#: What the DM's prepared batches bind: the entity's key and, in the
#: "owner" visibility scope, the caller's id.
ENTITY, OWNER = Param(0), Param(1)


def bind_scoped(io: IoLayer, user: Optional[User], name: Any,
                statements: Callable[[Optional[User]], list], entity_id: Any) -> Batch:
    """The batch ``name`` about ``entity_id``, as ``user`` may see it:
    ``statements(template)``, ``template`` being ``user`` with ``OWNER``
    for an id, prepared once per shape of the visibility predicate and
    kept by ``io``."""
    scope = "public" if user is None else "all" if user.is_admin else "owner"
    values = (user.user_id,) if scope == "owner" else ()
    prepared = io.batches.get((name, scope))
    if prepared is None:
        prepared = io.batches[(name, scope)] = PreparedBatch(
            statements(user and replace(user, user_id=OWNER)))
    return prepared.bind((entity_id, *values))


def found(rows: list[dict[str, Any]], kind: str, entity_id: int) -> dict[str, Any]:
    """The row a :func:`scoped_select` returned; a hidden entity is as
    missing as one that is not there."""
    if not rows:
        raise EntityNotFound(
            f"{ENTITIES[kind][2]} {entity_id} not found or not visible")
    return rows[0]


class SemanticLayer:
    """Entity services with constraints."""

    def __init__(self, io: IoLayer):
        self.io = io

    # -- HLE services -----------------------------------------------------------

    def insert_hle(self, user: User, fields: dict[str, Any]) -> int:
        """Create an HLE tuple plus its tuple reference, atomically."""
        check_right(user, "upload")
        hle_id = self.io.allocate_id("hle", "hle_id")
        item_id = fields.get("item_id") or f"hle:{hle_id}"
        row = {
            **fields,
            "hle_id": hle_id,
            "item_id": item_id,
            "owner_id": user.user_id,
        }
        with self.io.transaction() as tx:
            self.io.execute(Insert("hle", row), tx=tx)
            self.io.names.register_tuple(f"tuple:hle:{hle_id}", item_id, "hle", tx=tx)
        return hle_id

    def get_hle(self, user: Optional[User], hle_id: int) -> dict[str, Any]:
        return found(self.io.execute(scoped_select(user, "hle", hle_id)),
                     "hle", hle_id)

    def find_hles(
        self,
        user: Optional[User],
        where=None,
        order_by: Sequence[tuple[str, str]] = (),
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Visibility-scoped HLE search (the §5.5 appended-user-id rule)."""
        return self.io.execute(
            Select("hle", where=scoped_where(user, where), order_by=order_by, limit=limit)
        )

    def publish_hle(self, user: User, hle_id: int) -> None:
        row = self.get_hle(user, hle_id)
        check_can_edit(user, row)
        self.io.execute(
            Update("hle", {"public": True, "updated_at": time.time()},
                   Comparison("hle_id", "=", hle_id))
        )

    def delete_hle(self, user: User, hle_id: int) -> None:
        """Integrity constraint: an HLE with analyses may not be deleted."""
        row = self.get_hle(user, hle_id)
        check_can_edit(user, row)
        dependents = self.io.execute(
            Select("ana", where=Comparison("hle_id", "=", hle_id),
                   aggregates=[Aggregate("count", "*", "n")])
        )
        check_no_dependencies(dependents[0]["n"], f"HLE {hle_id}")
        members = self.io.execute(
            Select("catalog_members", where=Comparison("hle_id", "=", hle_id),
                   aggregates=[Aggregate("count", "*", "n")])
        )
        check_no_dependencies(members[0]["n"], f"HLE {hle_id} (catalog membership)")
        with self.io.transaction() as tx:
            self.io.execute(
                Delete("loc_files", Comparison("item_id", "=", row["item_id"])), tx=tx
            )
            self.io.execute(
                Delete("loc_tuples", Comparison("item_id", "=", row["item_id"])), tx=tx
            )
            self.io.execute(Delete("hle", Comparison("hle_id", "=", hle_id)), tx=tx)

    # -- analysis services ----------------------------------------------------------

    def import_analysis(
        self,
        user: User,
        hle_id: int,
        product: AnalysisProduct,
        fields: dict[str, Any],
        archive_hint: Optional[str] = None,
    ) -> int:
        """Import an analysis: files plus metadata tuples, atomically (§4.1).

        Stores the product bundle (parameters, log, images) in the file
        store, then inserts the ANA tuple and its file references in one
        transaction, and bumps the parent HLE's analysis counter.
        """
        check_right(user, "analyze")
        parent = self.get_hle(user, hle_id)
        ana_id = self.io.allocate_id("ana", "ana_id")
        item_id = f"ana:{ana_id}"
        stem = f"ana/{ana_id:08d}"
        # File writes first: file data is read-only and orphan files are
        # reclaimed by scrubbing, whereas dangling tuples would violate
        # the "data only reachable through metadata" invariant (§4.1).
        stored = []
        payloads = [
            (f"{stem}/params.json",
             json.dumps({"algorithm": product.algorithm,
                          "parameters": product.parameters,
                          "summary": product.summary}, sort_keys=True).encode()),
            (f"{stem}/process.log", "\n".join(product.log_lines).encode()),
        ]
        payloads.extend(
            (f"{stem}/image_{index:02d}.pgm", payload)
            for index, payload in enumerate(product.image_payloads)
        )
        for rel_path, payload in payloads:
            stored.append((rel_path, self.io.store_payload(rel_path, payload, archive_hint)))
        with self.io.transaction() as tx:
            row = {
                **fields,
                "ana_id": ana_id,
                "item_id": item_id,
                "hle_id": hle_id,
                "owner_id": user.user_id,
                "algorithm": product.algorithm,
                "n_images": len(product.image_payloads),
                "output_bytes": sum(item.size for _path, item in stored),
            }
            self.io.execute(Insert("ana", row), tx=tx)
            for rel_path, item in stored:
                role = "image" if rel_path.endswith(".pgm") else (
                    "params" if rel_path.endswith(".json") else "log")
                self.io.names.register_file(
                    item_id, item.archive_id, item.rel_path, role=role,
                    size_bytes=item.size, checksum=item.checksum, tx=tx,
                )
            self.io.execute(
                Update(
                    "hle",
                    {"n_analyses": parent["n_analyses"] + 1, "updated_at": time.time()},
                    Comparison("hle_id", "=", hle_id),
                ),
                tx=tx,
            )
        return ana_id

    def get_analysis(self, user: Optional[User], ana_id: int) -> dict[str, Any]:
        return found(self.io.execute(scoped_select(user, "ana", ana_id)),
                     "ana", ana_id)

    def analyses_for_hle(self, user: Optional[User], hle_id: int) -> list[dict[str, Any]]:
        return self.io.execute(
            Select(
                "ana",
                where=scoped_where(user, Comparison("hle_id", "=", hle_id)),
                order_by=[("ana_id", "asc")],
            )
        )

    def find_existing_analysis(
        self, user: Optional[User], hle_id: int, algorithm: str, parameters_where=None
    ) -> Optional[dict[str, Any]]:
        """Redundant-work avoidance (§3.5): an equivalent prior analysis."""
        where = And([
            Comparison("hle_id", "=", hle_id),
            Comparison("algorithm", "=", algorithm),
        ])
        if parameters_where is not None:
            where = And([where, parameters_where])
        rows = self.io.execute(Select("ana", where=scoped_where(user, where)))
        return rows[0] if rows else None

    def publish_analysis(self, user: User, ana_id: int) -> None:
        row = self.get_analysis(user, ana_id)
        check_can_edit(user, row)
        self.io.execute(
            Update("ana", {"public": True}, Comparison("ana_id", "=", ana_id))
        )

    def delete_analysis(self, user: User, ana_id: int) -> None:
        row = self.get_analysis(user, ana_id)
        check_can_edit(user, row)
        with self.io.transaction() as tx:
            self.io.execute(
                Delete("loc_files", Comparison("item_id", "=", row["item_id"])), tx=tx
            )
            self.io.execute(Delete("ana", Comparison("ana_id", "=", ana_id)), tx=tx)
            parent = self.io.execute(
                Select("hle", where=Comparison("hle_id", "=", row["hle_id"]))
            )
            if parent:
                self.io.execute(
                    Update(
                        "hle",
                        {"n_analyses": max(0, parent[0]["n_analyses"] - 1)},
                        Comparison("hle_id", "=", row["hle_id"]),
                    ),
                    tx=tx,
                )

    # -- catalog services --------------------------------------------------------------

    def create_catalog(self, user: User, name: str, description: str = "",
                       criteria: str = "", public: bool = False) -> int:
        check_right(user, "upload")
        catalog_id = self.io.allocate_id("catalogs", "catalog_id")
        self.io.execute(
            Insert(
                "catalogs",
                {
                    "catalog_id": catalog_id,
                    "item_id": f"cat:{catalog_id}",
                    "owner_id": user.user_id,
                    "public": public,
                    "name": name,
                    "description": description,
                    "criteria": criteria,
                },
            )
        )
        return catalog_id

    def add_to_catalog(self, user: User, catalog_id: int, hle_id: int) -> None:
        catalog = self.get_catalog(user, catalog_id)
        check_can_edit(user, catalog)
        self.get_hle(user, hle_id)  # visibility check
        member_id = self.io.allocate_id("catalog_members", "member_id")
        with self.io.transaction() as tx:
            self.io.execute(
                Insert(
                    "catalog_members",
                    {"member_id": member_id, "catalog_id": catalog_id, "hle_id": hle_id},
                ),
                tx=tx,
            )
            self.io.execute(
                Update(
                    "catalogs",
                    {"n_members": catalog["n_members"] + 1},
                    Comparison("catalog_id", "=", catalog_id),
                ),
                tx=tx,
            )

    def get_catalog(self, user: Optional[User], catalog_id: int) -> dict[str, Any]:
        return found(self.io.execute(scoped_select(user, "cat", catalog_id)),
                     "cat", catalog_id)

    def list_catalogs(self, user: Optional[User]) -> list[dict[str, Any]]:
        return self.io.execute(
            Select("catalogs", where=scoped_where(user, None), order_by=[("catalog_id", "asc")])
        )

    def catalog_page(
        self, user: Optional[User], catalog_id: int,
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """A catalogue and its events the user may see, in member order,
        in two round trips: the scoped catalogue row (the gate) and the
        member list bound to it, which is not read when the gate finds
        nothing, then the events (an ``IN`` list bound on the database
        side is a reference this does not have)."""
        catalogs, members = self.io.execute_batch(bind_scoped(self.io, user, "catalog", lambda user: [
            scoped_select(user, "cat", ENTITY),
            Select("catalog_members",
                   where=Comparison("catalog_id", "=", Ref(0, "catalog_id"))),
        ], catalog_id))
        catalog = found(catalogs, "cat", catalog_id)
        if not members:
            return catalog, []
        member_ids = [member["hle_id"] for member in members]
        visible = {
            row["hle_id"]: row
            for row in self.io.execute(
                Select("hle", where=scoped_where(user, In("hle_id", member_ids)))
            )
        }
        # A private member of a shared catalog is not in ``visible``.
        return catalog, [visible[hle_id] for hle_id in member_ids
                         if hle_id in visible]

    def catalog_hles(self, user: Optional[User], catalog_id: int) -> list[dict[str, Any]]:
        """The catalogue's events the user may see, in member order."""
        return self.catalog_page(user, catalog_id)[1]

    # -- files of an item ----------------------------------------------------------------

    def item_files(self, user: Optional[User], kind: str, entity_id: int,
                   role: Optional[str] = None) -> list[ResolvedName]:
        """The files of an entity's item, behind the entity's visibility
        gate, in one round trip: the scoped row and the joined name
        lookup bound to the item id it carries, which is not read when
        the gate finds nothing."""
        rows, files = self.io.execute_batch(bind_scoped(self.io, user, ("files", kind), lambda user: [
            scoped_select(user, kind, ENTITY),
            self.io.names.files_statement(Ref(0, "item_id")),
        ], entity_id))
        return self.io.names.resolve_from_rows(
            found(rows, kind, entity_id)["item_id"], files, role)
