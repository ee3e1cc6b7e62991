"""Hierarchical storage management across archives.

The paper rejects DBMS LOBs partly because they "lack support for the
hierarchical storage management systems needed to provide vendor
independent, scalable, and robust data access, migration and backup
across different file systems and platforms" (§4.2).  This manager is
that missing layer: it registers archives, places new data by policy,
migrates items between tiers with checksum verification and compensation,
stages tape items through a scratch disk, and keeps gnu-zipped items that
are read again and again unpacked there (paper Table 1, "cached on the
client's scratch space").
"""

from __future__ import annotations

import gzip
import os
import shutil
import tempfile
import threading
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..resil.faults import InjectedFault
from .archive import (
    Archive,
    ArchiveError,
    ArchiveKind,
    ArchiveOffline,
    ChecksumError,
    DiskArchive,
    StoredItem,
    TapeArchive,
)
from .checksums import checksum_bytes


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one item migration (recorded as lineage by the DM)."""

    rel_path: str
    from_archive: str
    to_archive: str
    size: int
    checksum: str


@dataclass(frozen=True)
class UnpackedCopy:
    """One answer of :meth:`StorageManager.unpacked_copy`."""

    path: Path
    inflated: bool   # False: an existing copy passed its checks
    evicted: int     # copies dropped to make room for this one


@dataclass
class _UnpackedRecord:
    """What is known about a copy: it exists only for copies this
    process wrote, which is why a copy found on scratch is not trusted."""

    source_size: int
    source_mtime_ns: int
    size: int
    crc32: int


#: Scratch sub-directory of the unpacked copies (purged at start-up).
_UNPACKED_DIR = "unpacked"


class StorageManager:
    """Registry and mover over a set of archives."""

    def __init__(self, scratch_dir: Optional[Union[str, Path]] = None):
        self._archives: dict[str, Archive] = {}
        self._scratch: Optional[DiskArchive] = None
        if scratch_dir is not None:
            self._scratch = DiskArchive("__scratch__", scratch_dir)
            # Copies (and torn temporaries) of an earlier process carry
            # no record here: purged, not trusted.
            shutil.rmtree(self._scratch.root / _UNPACKED_DIR, ignore_errors=True)
        #: Made by the first ``scratch_path`` call of a manager that was
        #: given no scratch disk; removed when the manager goes.
        self._temp_scratch: Optional[Path] = None
        self.migrations: list[MigrationResult] = []
        # Checksums recorded at placement time, verified on every read.
        self._checksums: dict[tuple[str, str], str] = {}
        #: (archive, path) -> record of its unpacked copy, least recently
        #: used first.  One lock covers look-up, inflation and eviction,
        #: so concurrent requests for one cold item inflate it once.
        self._unpacked: OrderedDict[tuple[str, str], _UnpackedRecord] = OrderedDict()
        self._unpacked_lock = threading.Lock()

    # -- registry ------------------------------------------------------------

    def scratch_path(self, sub_dir: str) -> Path:
        """A working directory outside every archive (staging, repacking)."""
        if self._scratch is not None:
            root = self._scratch.root
        else:
            if self._temp_scratch is None:
                self._temp_scratch = Path(tempfile.mkdtemp(prefix="hsm-scratch-"))
                weakref.finalize(self, shutil.rmtree, self._temp_scratch, ignore_errors=True)
            root = self._temp_scratch
        path = root / sub_dir
        path.mkdir(parents=True, exist_ok=True)
        return path

    def register(self, archive: Archive) -> None:
        if archive.archive_id in self._archives:
            raise ArchiveError(f"archive {archive.archive_id!r} already registered")
        self._archives[archive.archive_id] = archive

    def archive(self, archive_id: str) -> Archive:
        if archive_id not in self._archives:
            raise ArchiveError(f"unknown archive {archive_id!r}")
        return self._archives[archive_id]

    def archive_ids(self) -> list[str]:
        return sorted(self._archives)

    def online_disks(self) -> list[Archive]:
        return [
            archive
            for archive in self._archives.values()
            if archive.online and archive.kind is ArchiveKind.DISK
        ]

    # -- placement ------------------------------------------------------------

    def place(self, rel_path: str, payload: bytes, prefer: Optional[str] = None) -> StoredItem:
        """Store new data on a preferred or any online disk with room."""
        candidates: list[Archive] = []
        if prefer is not None:
            candidates.append(self.archive(prefer))
        candidates.extend(
            archive for archive in self.online_disks() if archive.archive_id != prefer
        )
        last_error: Optional[Exception] = None
        for archive in candidates:
            if not archive.online:
                continue
            left = archive.capacity_left
            if left is not None and left < len(payload):
                continue
            try:
                item = archive.store(rel_path, payload)
            except ArchiveError as exc:
                last_error = exc
            else:
                self._checksums[(item.archive_id, rel_path)] = item.checksum
                return item
        raise ArchiveError(f"no archive can hold {rel_path!r}: {last_error}")

    def record_checksum(self, archive_id: str, rel_path: str, checksum: str) -> None:
        """Register an expected checksum for data stored out of band."""
        self._checksums[(archive_id, rel_path)] = checksum

    # -- retrieval --------------------------------------------------------------

    def retrieve(self, archive_id: str, rel_path: str) -> bytes:
        """Fetch bytes, transparently staging tape items via scratch.

        When a checksum was recorded at placement time the payload is
        verified against it; a mismatch raises :class:`ChecksumError`
        rather than handing corrupt bytes to the DM.
        """
        archive = self.archive(archive_id)
        if isinstance(archive, TapeArchive):
            archive.stage(rel_path)
        payload = archive.retrieve(rel_path)
        self._verify(archive_id, rel_path, payload)
        return payload

    def _verify(self, archive_id: str, rel_path: str, payload: bytes) -> None:
        expected = self._checksums.get((archive_id, rel_path))
        if expected is not None and checksum_bytes(payload) != expected:
            raise ChecksumError(
                f"checksum mismatch reading {archive_id}:{rel_path} "
                f"(expected {expected})"
            )

    def verify_recorded(self) -> list[tuple[str, str]]:
        """Audit every recorded item; return the (archive, path) pairs
        whose on-media bytes no longer match (empty list = all clean)."""
        corrupt = []
        for (archive_id, rel_path), expected in sorted(self._checksums.items()):
            archive = self.archive(archive_id)
            if isinstance(archive, TapeArchive):
                archive.stage(rel_path)
            if checksum_bytes(archive.retrieve(rel_path)) != expected:
                corrupt.append((archive_id, rel_path))
        return corrupt

    def local_path(self, archive_id: str, rel_path: str) -> Path:
        """A direct path for external programs; stages tape items first."""
        archive = self.archive(archive_id)
        if isinstance(archive, TapeArchive):
            archive.stage(rel_path)
            if self._scratch is not None:
                scratch_rel = f"{archive_id}/{rel_path}"
                if not self._scratch.exists(scratch_rel):
                    self._scratch.store(scratch_rel, archive.retrieve(rel_path))
                return self._scratch.local_path(scratch_rel)
        return archive.local_path(rel_path)

    # -- unpacked copies ----------------------------------------------------------

    @property
    def unpacked_bytes(self) -> int:
        """Bytes of unpacked copies held on scratch."""
        return sum(record.size for record in self._unpacked.values())

    def unpacked_copy(
        self, archive_id: str, rel_path: str, budget_bytes: int
    ) -> Optional[UnpackedCopy]:
        """The inflated copy of a gzip item on the scratch disk.

        Every call checks the source first: its archive must be online
        and hold the item (the errors of :meth:`local_path`), and a copy
        is used only while the source's size and mtime are the ones it
        was unpacked from and its own bytes still have the CRC-32
        recorded then.  Anything else is dropped and unpacked again, read
        through :meth:`retrieve` (placement checksum and gzip CRC
        verified), written under a temporary name and renamed.  Copies
        are evicted least recently used first to keep within
        ``budget_bytes``.  ``None`` means the item cannot be staged (no
        scratch disk, scratch offline or full, item larger than the
        budget, not a gzip stream): read the archive's file instead.
        """
        key = (archive_id, rel_path)
        archive = self.archive(archive_id)
        try:
            if isinstance(archive, TapeArchive):
                archive.stage(rel_path)
            source = archive.local_path(rel_path).stat()
        except ArchiveOffline:
            raise
        except ArchiveError:
            self.drop_unpacked(archive_id, rel_path)
            raise
        if self._scratch is None or not self._scratch.online:
            return None
        with self._unpacked_lock:
            record = self._unpacked.get(key)
            if record is not None:
                if (
                    (record.source_size, record.source_mtime_ns)
                    == (source.st_size, source.st_mtime_ns)
                    and self._copy_intact(key, record)
                ):
                    self._unpacked.move_to_end(key)
                    return UnpackedCopy(self._unpacked_path(key), False, 0)
                self._drop_unpacked(key)
            packed = self.retrieve(archive_id, rel_path)
            try:
                payload = gzip.decompress(packed)
            except (OSError, EOFError, zlib.error):
                return None
            if len(payload) > budget_bytes:
                return None
            evicted = 0
            while self._unpacked and self.unpacked_bytes + len(payload) > budget_bytes:
                self._drop_unpacked(next(iter(self._unpacked)))
                evicted += 1
            if not self._write_unpacked(key, payload):
                return None
            self._unpacked[key] = _UnpackedRecord(
                source.st_size, source.st_mtime_ns, len(payload), zlib.crc32(payload)
            )
            return UnpackedCopy(self._unpacked_path(key), True, evicted)

    def _write_unpacked(self, key: tuple[str, str], payload: bytes) -> bool:
        """Write a copy under a temporary name and rename it: a torn
        write never carries the name that is read.  False when scratch
        would not take it."""
        part_rel = self._unpacked_rel(key) + ".part"
        self._remove_from_scratch(part_rel)
        try:
            self._scratch.store(part_rel, payload)
            os.replace(self._scratch.local_path(part_rel), self._unpacked_path(key))
        except (ArchiveError, OSError, InjectedFault):
            self._remove_from_scratch(part_rel)
            return False
        return True

    def drop_unpacked(self, archive_id: str, rel_path: str) -> None:
        """Forget and delete the unpacked copy of an item, if there is one."""
        with self._unpacked_lock:
            self._drop_unpacked((archive_id, rel_path))

    def _drop_unpacked(self, key: tuple[str, str]) -> None:
        if self._unpacked.pop(key, None) is not None:
            self._remove_from_scratch(self._unpacked_rel(key))

    def _remove_from_scratch(self, scratch_rel: str) -> None:
        try:
            self._scratch.remove(scratch_rel)
        except ArchiveError:
            pass  # never written, already gone, or scratch offline

    @staticmethod
    def _unpacked_rel(key: tuple[str, str]) -> str:
        archive_id, rel_path = key
        return f"{_UNPACKED_DIR}/{archive_id}/{rel_path.removesuffix('.gz')}"

    def _unpacked_path(self, key: tuple[str, str]) -> Path:
        return self._scratch.root / self._unpacked_rel(key)

    def _copy_intact(self, key: tuple[str, str], record: _UnpackedRecord) -> bool:
        try:
            payload = self._unpacked_path(key).read_bytes()
        except OSError:
            return False
        return len(payload) == record.size and zlib.crc32(payload) == record.crc32

    # -- migration ----------------------------------------------------------------

    def migrate(self, rel_path: str, from_id: str, to_id: str) -> MigrationResult:
        """Move one item between archives.

        Copy-verify-delete with compensation: the source is removed only
        after the destination copy's checksum matches; on failure the
        destination copy is removed (the paper's §5.2 "compensating
        actions are taken if failures occur").
        """
        source = self.archive(from_id)
        destination = self.archive(to_id)
        if isinstance(source, TapeArchive):
            source.stage(rel_path)
        payload = source.retrieve(rel_path)
        # Never propagate a corrupt source copy to another tier.
        self._verify(from_id, rel_path, payload)
        expected = checksum_bytes(payload)
        item = destination.store(rel_path, payload)
        if item.checksum != expected:
            # Compensation: never leave a corrupt copy behind.
            destination.remove(rel_path)
            raise ArchiveError(
                f"checksum mismatch migrating {rel_path!r} {from_id}->{to_id}"
            )
        source.remove(rel_path)
        self.drop_unpacked(from_id, rel_path)
        if (from_id, rel_path) in self._checksums:
            self._checksums[(to_id, rel_path)] = self._checksums.pop(
                (from_id, rel_path)
            )
        else:
            self._checksums[(to_id, rel_path)] = expected
        result = MigrationResult(rel_path, from_id, to_id, item.size, item.checksum)
        self.migrations.append(result)
        return result

    # -- backup/restore ----------------------------------------------------------

    def backup(self, archive_id: str, backup_id: str) -> int:
        """Copy every item of one archive into a backup archive."""
        source = self.archive(archive_id)
        destination = self.archive(backup_id)
        copied = 0
        for rel_path in source.list_items():
            if destination.exists(rel_path):
                continue
            if isinstance(source, TapeArchive):
                source.stage(rel_path)
            destination.store(rel_path, source.retrieve(rel_path))
            copied += 1
        return copied

    def restore(self, backup_id: str, archive_id: str) -> int:
        """Restore missing items of an archive from its backup."""
        return StorageManager.backup(self, backup_id, archive_id)

    def total_status(self) -> list[dict]:
        return [archive.status() for archive in self._archives.values()]
