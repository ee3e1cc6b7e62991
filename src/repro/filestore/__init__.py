"""File archives: the half of HEDC's storage split that holds the data
(the other half, the metadata, lives in :mod:`repro.metadb`)."""

from .archive import (
    Archive,
    ArchiveError,
    ArchiveKind,
    ArchiveOffline,
    ChecksumError,
    DiskArchive,
    NotStaged,
    RemoteArchive,
    StoredItem,
    TapeArchive,
)
from .checksums import checksum_bytes, checksum_file, verify_file
from .hsm import MigrationResult, StorageManager, UnpackedCopy

__all__ = [
    "Archive",
    "ArchiveError",
    "ArchiveKind",
    "ArchiveOffline",
    "ChecksumError",
    "DiskArchive",
    "MigrationResult",
    "NotStaged",
    "RemoteArchive",
    "StorageManager",
    "StoredItem",
    "TapeArchive",
    "UnpackedCopy",
    "checksum_bytes",
    "checksum_file",
    "verify_file",
]
