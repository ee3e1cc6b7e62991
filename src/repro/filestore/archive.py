"""Archive types.

HEDC's resource tier mixes storage classes (paper §2.3): RAID with tape
backup for critical data, no-backup RAID5, plain disks archived to CD,
NFS-linked remote archives, and a tape archive for data "not needed
on-line".  Each class is modelled as an :class:`Archive` with its own
availability and access-latency semantics; the hierarchical storage
manager composes them.

All stored data is read-only: storing to an existing name raises.
"""

from __future__ import annotations

import enum
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..resil.faults import fire as fire_fault, maybe_corrupt
from .checksums import checksum_bytes, checksum_file


class ArchiveError(Exception):
    """Storage operation failure."""


class ChecksumError(ArchiveError):
    """Payload bytes no longer match the checksum recorded at store time."""


class ArchiveOffline(ArchiveError):
    """Access to an archive that is not online."""


class NotStaged(ArchiveError):
    """A near-line (tape) item must be staged before direct access."""


class ArchiveKind(enum.Enum):
    DISK = "disk"
    TAPE = "tape"
    REMOTE = "remote"


@dataclass(frozen=True)
class StoredItem:
    """Receipt for a stored file."""

    archive_id: str
    rel_path: str
    size: int
    checksum: str


class Archive:
    """Base archive: a named, capacity-limited file container."""

    kind = ArchiveKind.DISK

    def __init__(self, archive_id: str, root: Union[str, Path], capacity_bytes: Optional[int] = None):
        self.archive_id = archive_id
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Resolved once: every operation checks its candidate against it.
        self._resolved_root = self.root.resolve()
        self.capacity_bytes = capacity_bytes
        self.online = True
        self.bytes_stored = 0
        self.reads = 0
        self.writes = 0

    # -- helpers ------------------------------------------------------------

    def _require_online(self) -> None:
        if not self.online:
            raise ArchiveOffline(f"archive {self.archive_id!r} is offline")

    def _full_path(self, rel_path: str) -> Path:
        path = (self._resolved_root / rel_path).resolve()
        if not path.is_relative_to(self._resolved_root):
            raise ArchiveError(f"path escapes archive root: {rel_path!r}")
        return path

    @property
    def capacity_left(self) -> Optional[int]:
        if self.capacity_bytes is None:
            return None
        return max(0, self.capacity_bytes - self.bytes_stored)

    # -- operations -----------------------------------------------------------

    def store(self, rel_path: str, payload: bytes) -> StoredItem:
        """Store immutable content under ``rel_path``."""
        self._require_online()
        fire_fault("filestore.store")
        path = self._full_path(rel_path)
        if path.exists():
            raise ArchiveError(
                f"{self.archive_id}:{rel_path} already exists (file data is read-only)"
            )
        if self.capacity_bytes is not None and self.bytes_stored + len(payload) > self.capacity_bytes:
            raise ArchiveError(f"archive {self.archive_id!r} is full")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        self.bytes_stored += len(payload)
        self.writes += 1
        return StoredItem(self.archive_id, rel_path, len(payload), checksum_bytes(payload))

    def store_file(self, rel_path: str, source: Union[str, Path]) -> StoredItem:
        """Store by copying an existing file (large payloads)."""
        self._require_online()
        source = Path(source)
        path = self._full_path(rel_path)
        if path.exists():
            raise ArchiveError(
                f"{self.archive_id}:{rel_path} already exists (file data is read-only)"
            )
        size = source.stat().st_size
        if self.capacity_bytes is not None and self.bytes_stored + size > self.capacity_bytes:
            raise ArchiveError(f"archive {self.archive_id!r} is full")
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, path)
        self.bytes_stored += size
        self.writes += 1
        return StoredItem(self.archive_id, rel_path, size, checksum_file(path))

    def retrieve(self, rel_path: str) -> bytes:
        self._require_online()
        fire_fault("filestore.read")
        path = self._full_path(rel_path)
        if not path.exists():
            raise ArchiveError(f"{self.archive_id}:{rel_path} not found")
        self.reads += 1
        # Chaos corruption happens on the read path (a flaky controller,
        # not bad media): the stored bytes stay intact, so a verified
        # re-read can succeed.
        return maybe_corrupt("filestore.corrupt", path.read_bytes())

    def exists(self, rel_path: str) -> bool:
        if not self.online:
            return False
        return self._full_path(rel_path).exists()

    def local_path(self, rel_path: str) -> Path:
        """Direct filesystem path — components "simply copy files to the
        appropriate location" (paper §4.2)."""
        self._require_online()
        path = self._full_path(rel_path)
        if not path.exists():
            raise ArchiveError(f"{self.archive_id}:{rel_path} not found")
        return path

    def remove(self, rel_path: str) -> int:
        """Delete an item (migration/purging only — DM-coordinated)."""
        self._require_online()
        path = self._full_path(rel_path)
        if not path.exists():
            raise ArchiveError(f"{self.archive_id}:{rel_path} not found")
        size = path.stat().st_size
        path.unlink()
        self.bytes_stored = max(0, self.bytes_stored - size)
        return size

    def list_items(self) -> list[str]:
        if not self.online:
            return []
        return sorted(
            str(path.relative_to(self.root))
            for path in self.root.rglob("*")
            if path.is_file()
        )

    def status(self) -> dict:
        """Archive status as tracked in the operational schema (§4.1)."""
        return {
            "archive_id": self.archive_id,
            "kind": self.kind.value,
            "online": self.online,
            "bytes_stored": self.bytes_stored,
            "capacity_left": self.capacity_left,
            "reads": self.reads,
            "writes": self.writes,
        }


class DiskArchive(Archive):
    """Always-online direct-access disk storage."""

    kind = ArchiveKind.DISK


class TapeArchive(Archive):
    """Near-line storage: items must be staged to disk before access.

    ``retrieve``/``local_path`` raise :class:`NotStaged` unless the item
    has been staged.
    """

    kind = ArchiveKind.TAPE

    def __init__(self, archive_id: str, root, capacity_bytes=None):
        super().__init__(archive_id, root, capacity_bytes)
        self._staged: set[str] = set()
        self.stages = 0

    def stage(self, rel_path: str) -> None:
        self._require_online()
        if not self._full_path(rel_path).exists():
            raise ArchiveError(f"{self.archive_id}:{rel_path} not found")
        if rel_path in self._staged:
            return
        self._staged.add(rel_path)
        self.stages += 1

    def unstage(self, rel_path: str) -> None:
        self._staged.discard(rel_path)

    def is_staged(self, rel_path: str) -> bool:
        return rel_path in self._staged

    def retrieve(self, rel_path: str) -> bytes:
        if rel_path not in self._staged:
            raise NotStaged(f"{self.archive_id}:{rel_path} is on tape; stage it first")
        return super().retrieve(rel_path)

    def local_path(self, rel_path: str) -> Path:
        if rel_path not in self._staged:
            raise NotStaged(f"{self.archive_id}:{rel_path} is on tape; stage it first")
        return super().local_path(rel_path)


class RemoteArchive(Archive):
    """An NFS-linked remote archive: reachable but slower, can drop out."""

    kind = ArchiveKind.REMOTE

