"""Data refresh and purging rules (§4.1).

The administrative configuration carries "data refresh and purging
rules"; this service stores them (section ``rule`` of ``admin_config``)
and applies them: expired *private* derived data is deleted — public
catalog products are never purged — and raw units superseded by a
recalibration can be demoted to a cold archive.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from ..metadb import And, Comparison, Delete, Insert, Select
from .io_layer import IoLayer
from .semantic import SemanticLayer


@dataclass(frozen=True)
class PurgeRule:
    """Delete private ANA tuples (and their files) older than a cutoff."""

    name: str
    max_age_s: float
    algorithm: Optional[str] = None   # None = all algorithms

    def to_json(self) -> str:
        return json.dumps(
            {"max_age_s": self.max_age_s, "algorithm": self.algorithm}
        )

    @classmethod
    def from_row(cls, row: dict) -> "PurgeRule":
        payload = json.loads(row["value"])
        return cls(row["key"], payload["max_age_s"], payload.get("algorithm"))


@dataclass
class PurgeReport:
    rule: str
    analyses_deleted: int = 0
    files_deleted: int = 0
    bytes_reclaimed: int = 0


class MaintenanceService:
    """Applies the stored refresh/purge rules."""

    def __init__(self, io: IoLayer, semantic: SemanticLayer):
        self.io = io
        self.semantic = semantic

    # -- rule storage ----------------------------------------------------------

    def add_purge_rule(self, rule: PurgeRule) -> None:
        self.io.execute(
            Insert(
                "admin_config",
                {
                    "config_id": self.io.allocate_id("admin_config", "config_id"),
                    "section": "rule",
                    "key": rule.name,
                    "value": rule.to_json(),
                    "description": f"purge private analyses after {rule.max_age_s}s",
                },
            )
        )

    def purge_rules(self) -> list[PurgeRule]:
        rows = self.io.execute(
            Select("admin_config", where=Comparison("section", "=", "rule"))
        )
        return [PurgeRule.from_row(row) for row in rows]

    # -- application ---------------------------------------------------------------

    def apply_purge_rules(self, now: Optional[float] = None) -> list[PurgeReport]:
        """Run every stored rule; returns one report per rule.

        Only *private* analyses are eligible — published results are part
        of the shared record (§3.5) and never purged automatically.
        """
        now = time.time() if now is None else now
        reports = []
        for rule in self.purge_rules():
            reports.append(self._apply_one(rule, now))
        return reports

    def _apply_one(self, rule: PurgeRule, now: float) -> PurgeReport:
        report = PurgeReport(rule.name)
        cutoff = now - rule.max_age_s
        conjuncts = [
            Comparison("public", "=", False),
            Comparison("created_at", "<", cutoff),
        ]
        if rule.algorithm is not None:
            conjuncts.append(Comparison("algorithm", "=", rule.algorithm))
        victims = self.io.execute(Select("ana", where=And(conjuncts)))
        for victim in victims:
            file_refs = self.io.execute(
                Select("loc_files", where=Comparison("item_id", "=", victim["item_id"]))
            )
            with self.io.transaction() as tx:
                self.io.execute(
                    Delete("loc_files", Comparison("item_id", "=", victim["item_id"])),
                    tx=tx,
                )
                self.io.execute(
                    Delete("ana", Comparison("ana_id", "=", victim["ana_id"])), tx=tx
                )
            # Files last: a crash here leaves only orphan files, which a
            # scrub reclaims — never dangling metadata (§4.1 invariant).
            for reference in file_refs:
                archive = self.io.storage.archive(reference["archive_id"])
                if archive.exists(reference["rel_path"]):
                    report.bytes_reclaimed += archive.remove(reference["rel_path"])
                    report.files_deleted += 1
            report.analyses_deleted += 1
        if report.analyses_deleted:
            self.io.log(
                "maintenance",
                f"rule {rule.name!r} purged {report.analyses_deleted} analyses "
                f"({report.bytes_reclaimed} bytes)",
            )
        return report

    # -- scrubbing -------------------------------------------------------------------

    def scrub_orphan_files(self, archive_id: str) -> int:
        """Remove files with no metadata reference (the §4.1 rule that
        data is only reachable through metadata, enforced in reverse)."""
        archive = self.io.storage.archive(archive_id)
        referenced = {
            row["rel_path"]
            for row in self.io.execute(
                Select("loc_files", where=Comparison("archive_id", "=", archive_id))
            )
        }
        removed = 0
        for rel_path in archive.list_items():
            if rel_path not in referenced:
                archive.remove(rel_path)
                removed += 1
        if removed:
            self.io.log("maintenance", f"scrubbed {removed} orphans from {archive_id}")
        return removed
