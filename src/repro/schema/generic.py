"""The generic half of the database schema (paper §4.1).

Three sections, independent of any instrument:

* administrative (3 tables) — configuration, available services and
  connected clients, user/group profiles;
* operational (4 tables) — logs/messages, data lineage, archive status,
  usage monitoring;
* location (4 tables) — archives, file references, tuple identifiers and
  download URLs used by dynamic name mapping (§4.3).

The generic part never references the domain part, so the RHESSI schema
can change (and has changed, per §3.1) without touching these tables.

Placement on a sharded catalog is declared here too, table by table.
The per-item location tables follow their item: a row lives on the shard
of whichever domain tuple carries its ``item_id``, without this module
naming a domain table.  The two logs are local.  Everything else is
small, read everywhere and broadcast, so relocating an archive stays an
edit of one row.
"""

from __future__ import annotations

import time

from ..metadb import (
    LOCAL, Column, ColumnType, ForeignKey, TableSchema, follows_item,
)

I = ColumnType.INTEGER
R = ColumnType.REAL
T = ColumnType.TEXT
B = ColumnType.BOOLEAN
TS = ColumnType.TIMESTAMP


def _now() -> float:
    return time.time()


# -- administrative section (3 tables) -------------------------------------


def admin_config() -> TableSchema:
    """Configuration parameters: schema lineage descriptions, database
    instances and partitions, refresh/purge rules, predefined queries."""
    return TableSchema(
        "admin_config",
        [
            Column("config_id", I, nullable=False),
            Column("section", T, nullable=False),   # schema|partition|rule|query|general
            Column("key", T, nullable=False),
            Column("value", T),
            Column("description", T),
            Column("updated_at", TS, default=_now),
        ],
        primary_key="config_id",
        unique=[("section", "key")],
        indexes=[("section",)],
    )


def admin_services() -> TableSchema:
    """Available services and connected clients (type, location, status)."""
    return TableSchema(
        "admin_services",
        [
            Column("service_id", I, nullable=False),
            Column("kind", T, nullable=False),      # dm|pl|idl|web|client
            Column("location", T, nullable=False),  # host:port or node name
            Column("prerequisites", T),
            Column("status", T, nullable=False, default="online"),
            Column("client_ip", T),
            Column("registered_at", TS, default=_now),
            Column("heartbeat_at", TS),
        ],
        primary_key="service_id",
        indexes=[("kind",)],
    )


def admin_users() -> TableSchema:
    """User and user-group profiles: access rights, sessions, status."""
    return TableSchema(
        "admin_users",
        [
            Column("user_id", I, nullable=False),
            Column("login", T, nullable=False),
            Column("password_hash", T, nullable=False),
            Column("user_group", T, nullable=False, default="guest"),
            Column("rights", T, nullable=False, default="browse"),  # csv of rights
            Column("status", T, nullable=False, default="active"),
            Column("quota_mb", R),
            Column("created_at", TS, default=_now),
            Column("last_login_at", TS),
        ],
        primary_key="user_id",
        unique=[("login",)],
    )


# -- operational section (4 tables) ------------------------------------------


def ops_log() -> TableSchema:
    """Logs and messages collected during operation."""
    return TableSchema(
        "ops_log",
        [
            Column("log_id", I, nullable=False),
            Column("at", TS, nullable=False, default=_now),
            Column("level", T, nullable=False, default="info"),
            Column("component", T, nullable=False),
            Column("message", T, nullable=False),
            Column("user_id", I),
        ],
        primary_key="log_id",
        indexes=[("at",), ("component",)],
        # §7-style analytics aggregate over the whole log; the columnar
        # copy feeds the vectorized path.
        columnar=True,
        placement=LOCAL,
    )


def ops_lineage() -> TableSchema:
    """Lineage of migrated or transformed data (incl. recalibration)."""
    return TableSchema(
        "ops_lineage",
        [
            Column("lineage_id", I, nullable=False),
            Column("at", TS, nullable=False, default=_now),
            Column("kind", T, nullable=False),      # migration|recalibration|derivation
            Column("source_ref", T, nullable=False),
            Column("target_ref", T, nullable=False),
            Column("detail", T),
        ],
        primary_key="lineage_id",
        indexes=[("kind",), ("source_ref",)],
    )


def ops_archives() -> TableSchema:
    """Status of archives: online, capacity left, type."""
    return TableSchema(
        "ops_archives",
        [
            Column("archive_id", T, nullable=False),
            Column("kind", T, nullable=False),       # disk|tape|remote
            Column("online", B, nullable=False, default=True),
            Column("bytes_stored", I, nullable=False, default=0),
            Column("capacity_left", I),
            Column("checked_at", TS, default=_now),
        ],
        primary_key="archive_id",
    )


def ops_usage() -> TableSchema:
    """Monitoring: usage statistics and audit trail."""
    return TableSchema(
        "ops_usage",
        [
            Column("usage_id", I, nullable=False),
            Column("at", TS, nullable=False, default=_now),
            Column("user_id", I),
            Column("operation", T, nullable=False),
            Column("target", T),
            Column("duration_ms", R),
        ],
        primary_key="usage_id",
        indexes=[("at",), ("operation",)],
        columnar=True,
        placement=LOCAL,
    )


# -- location section (4 tables) ----------------------------------------------


def loc_archives() -> TableSchema:
    """Physical archives and their current root paths.

    Changing a row here relocates every file it hosts — dynamic name
    mapping resolves [path] through this table at request time (§4.3).
    """
    return TableSchema(
        "loc_archives",
        [
            Column("archive_id", T, nullable=False),
            Column("kind", T, nullable=False, default="disk"),
            Column("root_path", T, nullable=False),
            Column("online", B, nullable=False, default=True),
        ],
        primary_key="archive_id",
    )


def loc_files() -> TableSchema:
    """File references: maps item identifiers to archive-relative paths."""
    return TableSchema(
        "loc_files",
        [
            Column("file_id", I, nullable=False),
            Column("item_id", T, nullable=False),    # domain tuple's item identifier
            Column("archive_id", T, nullable=False),
            Column("rel_path", T, nullable=False),
            Column("role", T, nullable=False, default="data"),  # data|image|params|log
            Column("size_bytes", I),
            Column("checksum", T),
            Column("compressed", B, nullable=False, default=False),
        ],
        primary_key="file_id",
        unique=[("archive_id", "rel_path")],
        indexes=[("item_id",)],
        foreign_keys=[ForeignKey("archive_id", "loc_archives", "archive_id")],
        placement=follows_item("item_id"),
    )


def loc_tuples() -> TableSchema:
    """Tuple identifiers: DBMS-location-independent references to tuples."""
    return TableSchema(
        "loc_tuples",
        [
            Column("tuple_ref", T, nullable=False),
            Column("item_id", T, nullable=False),
            Column("table_name", T, nullable=False),
            Column("database_name", T, nullable=False, default="metadb"),
        ],
        primary_key="tuple_ref",
        indexes=[("item_id",)],
        placement=follows_item("item_id"),
    )


def loc_urls() -> TableSchema:
    """Download URLs, optionally via a transformation (e.g. gunzip)."""
    return TableSchema(
        "loc_urls",
        [
            Column("url_id", I, nullable=False),
            Column("item_id", T, nullable=False),
            Column("url", T, nullable=False),
            Column("transform", T),                  # e.g. "gunzip"
        ],
        primary_key="url_id",
        indexes=[("item_id",)],
        placement=follows_item("item_id"),
    )


GENERIC_SCHEMAS = (
    admin_config,
    admin_services,
    admin_users,
    ops_log,
    ops_lineage,
    ops_archives,
    ops_usage,
    loc_archives,
    loc_files,
    loc_tuples,
    loc_urls,
)


def install_generic(database) -> None:
    """Create the generic tables the database lacks (idempotent)."""
    for schema_factory in GENERIC_SCHEMAS:
        schema = schema_factory()
        if not database.has_table(schema.name):
            database.create_table(schema)
