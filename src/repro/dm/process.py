"""The DM's process layer (paper §5.2).

Combines I/O-layer operations with semantic-layer services into named
workflows: raw data preparation, event filtering, entity association,
catalog generation, physical archive relocation and recalibration — each
with the "compensating actions ... if failures occur" the paper calls
out, and each leaving log and lineage records behind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..fits import FitsError, read as read_fits
from ..metadb import Aggregate, Comparison, Insert, Select, Update
from ..rhessi import (
    CalibrationHistory,
    DetectedEvent,
    EventDetector,
    PhotonList,
    RawDataUnit,
)
from ..security import User
from ..wavelets import RangePartitionedView
from .io_layer import IoLayer
from .semantic import SemanticLayer


class WorkflowError(Exception):
    """A process-layer workflow failed (after compensation)."""


@dataclass
class LoadReport:
    """Outcome of loading one raw data unit."""

    unit_id: str
    n_photons: int
    n_events: int
    hle_ids: list[int] = field(default_factory=list)
    view_bytes: int = 0
    analyses_triggered: int = 0


class ProcessLayer:
    """Workflow engine over the I/O and semantic layers."""

    #: Count-rate views are binned at this width and range-partitioned
    #: into runs of this many bins (§6.3).
    view_bin_s = 4.0
    view_partition_length = 512
    #: Raw units read by analyses are kept unpacked on the HSM's scratch
    #: disk up to this many bytes, least recently used evicted first.
    unpacked_budget_bytes = 256 * 2**20

    def __init__(
        self,
        io: IoLayer,
        semantic: SemanticLayer,
        import_user: User,
        detector: Optional[EventDetector] = None,
    ):
        self.io = io
        self.semantic = semantic
        self.import_user = import_user
        self.detector = detector or EventDetector()
        self.calibration = CalibrationHistory()
        #: In-memory cache of wavelet views keyed by (unit_id, signal);
        #: the encoded bytes also live in the file store.
        self.views: dict[tuple[str, str], RangePartitionedView] = {}
        #: Monotonic invalidation epoch for derived-product caches.
        #: Write-path workflows that change what an analysis *would*
        #: compute (recalibration, new calibration versions) or where its
        #: inputs live (archive relocation) bump it; cached products
        #: stamped with an older epoch are stale from then on.
        self.cache_epoch = 0

    def bump_cache_epoch(self, reason: str) -> int:
        self.cache_epoch += 1
        self.io.obs.set_gauge("dm.cache_epoch", self.cache_epoch)
        self.io.obs.event("info", "dm", "cache_epoch.bumped",
                          f"cache epoch -> {self.cache_epoch} ({reason})",
                          epoch=self.cache_epoch, reason=reason)
        self.io.log("process", f"cache epoch -> {self.cache_epoch} ({reason})")
        return self.cache_epoch

    # -- raw data preparation ----------------------------------------------------

    def load_raw_unit(
        self,
        unit: RawDataUnit,
        archive_id: str,
        standard_catalog_id: Optional[int] = None,
        build_views: bool = True,
    ) -> LoadReport:
        """The full data-loading pipeline for one unit (paper §2.2, §4.1).

        Stores the FITS file, registers the unit, detects events, creates
        HLE tuples for them, associates them with the standard catalog,
        and pre-computes the wavelet-compressed range-partitioned view.
        """
        payload = unit.path.read_bytes()
        rel_path = f"raw/{unit.unit_id}.fits.gz"
        item_id = f"unit:{unit.unit_id}"
        stored = self.io.store_payload(rel_path, payload, prefer_archive=archive_id)
        tx = self.io.begin()
        try:
            self.io.execute(
                Insert(
                    "raw_units",
                    {
                        "unit_id": unit.unit_id,
                        "item_id": item_id,
                        "start_time": unit.start,
                        "end_time": unit.end,
                        "n_photons": unit.n_photons,
                        "bytes_on_disk": stored.size,
                        "calibration_version": unit.calibration_version,
                    },
                ),
                tx=tx,
            )
            self.io.names.register_file(
                item_id, stored.archive_id, stored.rel_path, role="data",
                size_bytes=stored.size, checksum=stored.checksum, compressed=True, tx=tx,
            )
            self.io.names.register_url(
                item_id, f"https://hedc.example/download/{unit.unit_id}.fits.gz",
                transform="gunzip", tx=tx,
            )
        except Exception:
            self.io.rollback(tx)
            # Compensation: remove the stored file so no orphan remains.
            self.io.storage.archive(stored.archive_id).remove(stored.rel_path)
            raise
        self.io.commit(tx)

        photons = PhotonList.from_fits(read_fits(unit.path))
        events = self.detector.detect(photons)
        report = LoadReport(unit.unit_id, len(photons), len(events))
        for event in events:
            if event.kind == "data_gap":
                continue
            hle_id = self._create_hle_for_event(unit, event)
            report.hle_ids.append(hle_id)
            if standard_catalog_id is not None:
                self.semantic.add_to_catalog(self.import_user, standard_catalog_id, hle_id)
        if build_views:
            report.view_bytes = self._build_views(unit, photons)
        self.io.log("process", f"loaded unit {unit.unit_id}: {len(events)} events")
        return report

    def _create_hle_for_event(self, unit: RawDataUnit, event: DetectedEvent) -> int:
        """Entity association: one HLE tuple per detected event."""
        hle_id = self.semantic.insert_hle(
            self.import_user,
            {
                "public": True,
                "kind": event.kind,
                "title": f"{event.kind} at t={event.peak_time:.0f}s",
                "start_time": event.start,
                "end_time": event.end,
                "peak_time": event.peak_time,
                "peak_rate": event.peak_rate,
                "total_counts": event.total_counts,
                "mean_energy_kev": event.mean_energy_kev,
                "significance": event.significance,
                "calibration_version": unit.calibration_version,
                "source_unit": unit.unit_id,
                "detector_mask": "1" * 9,
            },
        )
        return hle_id

    # -- wavelet view construction -----------------------------------------------

    def _build_views(self, unit: RawDataUnit, photons: PhotonList) -> int:
        """Pre-process the unit into range-partitioned wavelet views (§3.4)."""
        edges, counts = photons.bin_counts(self.view_bin_s)
        view = RangePartitionedView(
            counts.astype(float),
            domain_start=float(edges[0]),
            domain_step=self.view_bin_s,
            partition_length=self.view_partition_length,
        )
        self.views[(unit.unit_id, "counts")] = view
        encoded = view.total_encoded_bytes
        view_id = self.semantic._next_id("views", "view_id")
        self.io.execute(
            Insert(
                "views",
                {
                    "view_id": view_id,
                    "item_id": f"view:{unit.unit_id}:counts",
                    "unit_id": unit.unit_id,
                    "signal": "counts",
                    "domain_start": float(edges[0]),
                    "domain_step": self.view_bin_s,
                    "n_partitions": len(view.partitions),
                    "encoded_bytes": encoded,
                },
            )
        )
        return encoded

    def get_view(self, unit_id: str, signal: str = "counts") -> RangePartitionedView:
        key = (unit_id, signal)
        if key not in self.views:
            raise WorkflowError(f"no {signal!r} view for unit {unit_id!r}")
        return self.views[key]

    # -- raw data access ------------------------------------------------------------

    def load_photons(self, unit_id: str) -> PhotonList:
        """Fetch and decode the photon list of a loaded unit.

        The gnu-zipped unit is inflated once onto the scratch disk
        (:meth:`StorageManager.unpacked_copy` checks source and copy on
        every access) and parsed from there; where that cannot be staged
        the archive's file is read directly.
        """
        names = self.io.names.resolve_files(f"unit:{unit_id}", role="data")
        if not names:
            raise WorkflowError(f"unit {unit_id!r} has no data file")
        obs = self.io.obs
        # A copy that does not parse, or was evicted before it could be
        # opened, is discarded and unpacked once more.
        for _attempt in range(2):
            copy = self.io.unpacked_copy(names[0], self.unpacked_budget_bytes)
            if copy is None:
                break
            obs.count("dm.process.unpacked.inflations" if copy.inflated
                      else "dm.process.unpacked.hits")
            if copy.evicted:
                obs.count("dm.process.unpacked.evictions", copy.evicted)
            obs.set_gauge("dm.process.unpacked.bytes", self.io.storage.unpacked_bytes)
            try:
                return PhotonList.from_fits(read_fits(copy.path))
            except (FitsError, OSError):
                self.io.drop_unpacked(names[0])
        obs.count("dm.process.unpacked.fallbacks")
        try:
            return PhotonList.from_fits(read_fits(self.io.local_path(names[0])))
        except FitsError as exc:
            raise WorkflowError(f"unit {unit_id!r} is not readable: {exc}") from exc

    def units_covering(self, start: float, end: float) -> list[dict]:
        """Raw units overlapping a time window."""
        rows = self.io.execute(
            Select("raw_units", where=Comparison("start_time", "<", end))
        )
        return [row for row in rows if row["end_time"] > start]

    # -- archive relocation -----------------------------------------------------------

    def relocate_archive(self, from_id: str, to_id: str) -> int:
        """Physical archive relocation (the §5.2 example workflow).

        "First, tuples referenced or referencing an entity are queried and
        altered, then the corresponding files are copied, compensating
        actions are taken if failures occur, and finally logs are
        generated."  Returns the number of items moved.
        """
        references = self.io.execute(
            Select("loc_files", where=Comparison("archive_id", "=", from_id))
        )
        moved = 0
        for reference in references:
            rel_path = reference["rel_path"]
            try:
                self.io.storage.migrate(rel_path, from_id, to_id)
            except Exception as exc:
                self.io.log(
                    "process",
                    f"relocation of {rel_path} failed: {exc}; compensated",
                    level="error",
                )
                raise WorkflowError(f"relocation failed at {rel_path!r}") from exc
            self.io.execute(
                Update(
                    "loc_files",
                    {"archive_id": to_id},
                    Comparison("file_id", "=", reference["file_id"]),
                )
            )
            self._record_lineage("migration", f"{from_id}:{rel_path}", f"{to_id}:{rel_path}")
            moved += 1
        self.io.log("process", f"relocated {moved} items {from_id} -> {to_id}")
        if moved:
            self.bump_cache_epoch(f"relocate_archive {from_id}->{to_id}")
        return moved

    # -- recalibration -------------------------------------------------------------------

    def publish_calibration(self, gains, offsets, note: str = "") -> int:
        """Publish a new calibration version and record it in the schema."""
        calibration = self.calibration.publish(gains, offsets, note)
        self.io.execute(
            Insert(
                "calibrations",
                {
                    "version": calibration.version,
                    "gains": ",".join(f"{gain:g}" for gain in calibration.gains),
                    "offsets": ",".join(f"{offset:g}" for offset in calibration.offsets),
                    "note": note,
                },
            )
        )
        self.bump_cache_epoch(f"publish_calibration v{calibration.version}")
        return calibration.version

    def recalibrate_unit(self, unit_id: str, archive_id: str) -> str:
        """Re-derive a unit under the current calibration (paper §3.1).

        The superseded unit's tuple gains a ``superseded_by`` pointer; a
        lineage record ties old to new.
        """
        rows = self.io.execute(
            Select("raw_units", where=Comparison("unit_id", "=", unit_id))
        )
        if not rows:
            raise WorkflowError(f"unknown unit {unit_id!r}")
        row = rows[0]
        target_version = self.calibration.current_version
        if row["calibration_version"] == target_version:
            return unit_id
        photons = self.load_photons(unit_id)
        corrected, record = self.calibration.recalibrate(
            photons, unit_id, from_version=row["calibration_version"]
        )
        from ..rhessi.telemetry import package_units  # local import avoids a cycle

        scratch = self.io.storage.scratch_path("recalibration")
        new_units = package_units(
            corrected, scratch, unit_target_photons=len(corrected) + 1,
            calibration_version=target_version, prefix=f"{unit_id}_v{target_version}",
        )
        new_unit = new_units[0]
        report = self.load_raw_unit(new_unit, archive_id, build_views=False)
        self.io.execute(
            Update(
                "raw_units",
                {"superseded_by": new_unit.unit_id},
                Comparison("unit_id", "=", unit_id),
            )
        )
        self._record_lineage(
            "recalibration",
            f"unit:{unit_id}@v{record.from_version}",
            f"unit:{new_unit.unit_id}@v{record.to_version}",
            detail=f"{record.n_photons} photons",
        )
        self.bump_cache_epoch(f"recalibrate_unit {unit_id}")
        return new_unit.unit_id

    # -- catalog generation ----------------------------------------------------------------

    def generate_catalog(
        self, name: str, where, description: str = "", public: bool = True
    ) -> int:
        """Build a catalog of all visible HLEs matching a predicate."""
        catalog_id = self.semantic.create_catalog(
            self.import_user, name, description=description,
            criteria=str(where), public=public,
        )
        for hle in self.semantic.find_hles(self.import_user, where=where):
            self.semantic.add_to_catalog(self.import_user, catalog_id, hle["hle_id"])
        self.io.log("process", f"generated catalog {name!r}")
        return catalog_id

    # -- lineage --------------------------------------------------------------------------

    def _record_lineage(self, kind: str, source: str, target: str, detail: str = "") -> None:
        rows = self.io.execute(
            Select("ops_lineage", aggregates=[Aggregate("max", "lineage_id", "m")])
        )
        self.io.execute(
            Insert(
                "ops_lineage",
                {
                    "lineage_id": (rows[0]["m"] or 0) + 1,
                    "kind": kind,
                    "source_ref": source,
                    "target_ref": target,
                    "detail": detail,
                },
            )
        )

    def sync_archive_status(self) -> None:
        """Refresh the operational archive-status table (§4.1)."""
        for status in self.io.storage.total_status():
            existing = self.io.execute(
                Select("ops_archives",
                       where=Comparison("archive_id", "=", status["archive_id"]))
            )
            fields = {
                "kind": status["kind"],
                "online": status["online"],
                "bytes_stored": status["bytes_stored"],
                "capacity_left": status["capacity_left"],
                "checked_at": time.time(),
            }
            if existing:
                self.io.execute(
                    Update("ops_archives", fields,
                           Comparison("archive_id", "=", status["archive_id"]))
                )
            else:
                self.io.execute(
                    Insert("ops_archives", {"archive_id": status["archive_id"], **fields})
                )
