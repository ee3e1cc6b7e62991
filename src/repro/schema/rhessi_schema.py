"""The domain-specific (RHESSI) half of the schema — seven tables.

HLE tuples carry ~25 attributes and ANA tuples ~45 (paper §4.1); every
domain tuple references the location tables through its ``item_id`` and
the user table through ``owner_id`` so access rights are enforceable.
This half may be replaced wholesale for another instrument without
touching the generic half.

On a sharded catalog events and raw units are placed by observation
time, the axis the archive grows along; analyses and memberships follow
their event, views their raw unit.  A table that declares ``item_key``
owns the items its ``item_id`` values name, and the generic location
rows of an item live beside it.  Catalogs and calibrations are small and
broadcast.
"""

from __future__ import annotations

import time

from ..metadb import (
    Column, ColumnType, ForeignKey, TableSchema, follows, partitioned,
)

I = ColumnType.INTEGER
R = ColumnType.REAL
T = ColumnType.TEXT
B = ColumnType.BOOLEAN
TS = ColumnType.TIMESTAMP


def _now() -> float:
    return time.time()


def hle() -> TableSchema:
    """High Level Events: a time/energy window some user deems relevant."""
    return TableSchema(
        "hle",
        [
            Column("hle_id", I, nullable=False),
            Column("item_id", T, nullable=False),        # -> location tables
            Column("owner_id", I, nullable=False),       # -> admin_users
            Column("public", B, nullable=False, default=False),
            Column("kind", T),                           # user label, NOT a fixed type
            Column("title", T),
            Column("start_time", R, nullable=False),
            Column("end_time", R, nullable=False),
            Column("peak_time", R),
            Column("energy_low_kev", R),
            Column("energy_high_kev", R),
            Column("peak_rate", R),
            Column("total_counts", I),
            Column("mean_energy_kev", R),
            Column("significance", R),
            Column("position_x_arcsec", R),
            Column("position_y_arcsec", R),
            Column("goes_class", T),
            Column("detector_mask", T),                  # e.g. "111111111"
            Column("calibration_version", I, nullable=False, default=1),
            Column("source_unit", T),                    # raw data unit id
            Column("quality", R),
            Column("n_analyses", I, nullable=False, default=0),
            Column("created_at", TS, default=_now),
            Column("updated_at", TS),
            Column("notes", T),
        ],
        primary_key="hle_id",
        unique=[("item_id",)],
        indexes=[("start_time",), ("peak_rate",), ("kind",), ("owner_id",)],
        foreign_keys=[ForeignKey("owner_id", "admin_users", "user_id")],
        # Synoptic-catalog sweeps scan this table whole; keep a columnar
        # copy for the vectorized path.
        columnar=True,
        placement=partitioned("start_time"),
        item_key="item_id",
    )


def ana() -> TableSchema:
    """Results of analyses: one tuple per analysis run (~45 attributes)."""
    return TableSchema(
        "ana",
        [
            Column("ana_id", I, nullable=False),
            Column("item_id", T, nullable=False),
            Column("hle_id", I, nullable=False),
            Column("owner_id", I, nullable=False),
            Column("public", B, nullable=False, default=False),
            Column("algorithm", T, nullable=False),       # imaging|lightcurve|...
            Column("algorithm_version", T, default="1.0"),
            Column("status", T, nullable=False, default="committed"),
            # time/energy selection
            Column("start_time", R),
            Column("end_time", R),
            Column("energy_low_kev", R),
            Column("energy_high_kev", R),
            Column("detector_mask", T),
            # imaging parameters
            Column("n_pixels", I),
            Column("extent_arcsec", R),
            Column("center_x_arcsec", R),
            Column("center_y_arcsec", R),
            Column("projection", T),
            # binning parameters
            Column("time_bin_s", R),
            Column("n_energy_bins", I),
            Column("n_bins", I),
            Column("attribute", T),
            # approximation / progressive processing
            Column("approximated", B, nullable=False, default=False),
            Column("detail_levels", I),
            Column("input_reduction", R),
            # resource accounting
            Column("input_bytes", I),
            Column("output_bytes", I),
            Column("n_photons_used", I),
            Column("cpu_seconds", R),
            Column("wall_seconds", R),
            Column("executed_on", T),                     # server|client node name
            Column("queries_issued", I),
            Column("edits_issued", I),
            # result summary
            Column("peak_value", R),
            Column("peak_x", R),
            Column("peak_y", R),
            Column("total_counts", I),
            Column("dynamic_range", R),
            Column("rms_error", R),
            Column("n_images", I, nullable=False, default=0),
            # provenance
            Column("calibration_version", I, nullable=False, default=1),
            Column("parent_ana_id", I),
            Column("request_id", T),
            Column("created_at", TS, default=_now),
            Column("committed_at", TS),
            Column("notes", T),
        ],
        primary_key="ana_id",
        unique=[("item_id",)],
        indexes=[("hle_id",), ("algorithm",), ("owner_id",), ("created_at",)],
        foreign_keys=[
            ForeignKey("hle_id", "hle", "hle_id"),
            ForeignKey("owner_id", "admin_users", "user_id"),
        ],
        placement=follows("hle_id", "hle", "hle_id"),
        item_key="item_id",
    )


def catalogs() -> TableSchema:
    """Catalogs group HLEs: standard, extended, and private workspaces."""
    return TableSchema(
        "catalogs",
        [
            Column("catalog_id", I, nullable=False),
            Column("item_id", T, nullable=False),
            Column("owner_id", I, nullable=False),
            Column("public", B, nullable=False, default=False),
            Column("name", T, nullable=False),
            Column("description", T),
            Column("criteria", T),                        # selection criteria text
            Column("n_members", I, nullable=False, default=0),
            Column("created_at", TS, default=_now),
        ],
        primary_key="catalog_id",
        unique=[("owner_id", "name")],
        foreign_keys=[ForeignKey("owner_id", "admin_users", "user_id")],
    )


def catalog_members() -> TableSchema:
    """Membership of HLEs in catalogs (many-to-many)."""
    return TableSchema(
        "catalog_members",
        [
            Column("member_id", I, nullable=False),
            Column("catalog_id", I, nullable=False),
            Column("hle_id", I, nullable=False),
            Column("added_at", TS, default=_now),
        ],
        primary_key="member_id",
        unique=[("catalog_id", "hle_id")],
        indexes=[("catalog_id",), ("hle_id",)],
        foreign_keys=[
            ForeignKey("catalog_id", "catalogs", "catalog_id"),
            ForeignKey("hle_id", "hle", "hle_id"),
        ],
        placement=follows("hle_id", "hle", "hle_id"),
    )


def raw_units() -> TableSchema:
    """Raw data units: the FITS+gzip files as delivered."""
    return TableSchema(
        "raw_units",
        [
            Column("unit_id", T, nullable=False),
            Column("item_id", T, nullable=False),
            Column("start_time", R, nullable=False),
            Column("end_time", R, nullable=False),
            Column("n_photons", I, nullable=False),
            Column("bytes_on_disk", I, nullable=False),
            Column("calibration_version", I, nullable=False, default=1),
            Column("superseded_by", T),                  # unit id of recalibrated copy
            Column("loaded_at", TS, default=_now),
        ],
        primary_key="unit_id",
        unique=[("item_id",)],
        indexes=[("start_time",)],
        columnar=True,
        placement=partitioned("start_time"),
        item_key="item_id",
    )


def calibrations() -> TableSchema:
    """Published calibration versions (the versioning axis of §3.1)."""
    return TableSchema(
        "calibrations",
        [
            Column("version", I, nullable=False),
            Column("gains", T, nullable=False),          # csv of 9 floats
            Column("offsets", T, nullable=False),
            Column("note", T),
            Column("published_at", TS, default=_now),
        ],
        primary_key="version",
    )


def views() -> TableSchema:
    """Wavelet-compressed range-partitioned views over raw units (§3.4)."""
    return TableSchema(
        "views",
        [
            Column("view_id", I, nullable=False),
            Column("item_id", T, nullable=False),
            Column("unit_id", T, nullable=False),
            Column("signal", T, nullable=False),         # counts|energy
            Column("domain_start", R, nullable=False),
            Column("domain_step", R, nullable=False),
            Column("n_partitions", I, nullable=False),
            Column("encoded_bytes", I, nullable=False),
            Column("filter_name", T, nullable=False, default="cdf22"),
            Column("created_at", TS, default=_now),
        ],
        primary_key="view_id",
        unique=[("unit_id", "signal")],
        indexes=[("unit_id",), ("item_id",)],
        foreign_keys=[ForeignKey("unit_id", "raw_units", "unit_id")],
        placement=follows("unit_id", "raw_units", "unit_id"),
        item_key="item_id",
    )


RHESSI_SCHEMAS = (hle, ana, catalogs, catalog_members, raw_units, calibrations, views)


def install_rhessi(database) -> None:
    """Create the domain tables the database lacks (requires the generic
    part first)."""
    for schema_factory in RHESSI_SCHEMAS:
        schema = schema_factory()
        if not database.has_table(schema.name):
            database.create_table(schema)
