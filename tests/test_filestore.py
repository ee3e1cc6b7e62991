"""Tests for archives, checksums and hierarchical storage management."""

import gzip
import tempfile
from pathlib import Path

import pytest

from repro.filestore import (
    ArchiveError,
    ArchiveOffline,
    DiskArchive,
    NotStaged,
    RemoteArchive,
    StorageManager,
    TapeArchive,
    checksum_bytes,
    checksum_file,
    verify_file,
)


class TestChecksums:
    def test_bytes_and_file_agree(self, tmp_path):
        payload = b"photon data" * 1000
        path = tmp_path / "data.bin"
        path.write_bytes(payload)
        assert checksum_bytes(payload) == checksum_file(path)
        assert verify_file(path, checksum_bytes(payload))
        assert not verify_file(path, "0" * 64)


class TestDiskArchive:
    def test_store_retrieve_round_trip(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        item = archive.store("raw/unit1.fits", b"DATA")
        assert item.size == 4
        assert archive.retrieve("raw/unit1.fits") == b"DATA"
        assert archive.exists("raw/unit1.fits")

    def test_data_is_read_only(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        archive.store("x", b"1")
        with pytest.raises(ArchiveError, match="read-only"):
            archive.store("x", b"2")

    def test_capacity_enforced(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a", capacity_bytes=10)
        archive.store("x", b"12345")
        with pytest.raises(ArchiveError, match="full"):
            archive.store("y", b"123456789")
        assert archive.capacity_left == 5

    def test_path_escape_rejected(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        with pytest.raises(ArchiveError):
            archive.store("../../etc/passwd", b"nope")

    @pytest.mark.parametrize("operation", ["store", "retrieve", "exists", "local_path"])
    def test_every_operation_refuses_the_three_escapes(self, tmp_path, operation):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "x").write_bytes(b"secret")
        (tmp_path / "x").write_bytes(b"secret")
        archive = DiskArchive("a", tmp_path / "a")
        (archive.root / "link").symlink_to(outside)
        for rel_path in ("../x", str(outside / "x"), "link/x"):
            with pytest.raises(ArchiveError, match="escapes"):
                if operation == "store":
                    archive.store(rel_path, b"nope")
                else:
                    getattr(archive, operation)(rel_path)
        assert (outside / "x").read_bytes() == b"secret"

    def test_root_reached_through_a_symlink_still_serves_its_items(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "real")
        archive = DiskArchive("a", tmp_path / "alias" / "a")
        archive.store("raw/x", b"1")
        assert archive.retrieve("raw/x") == b"1"
        assert archive.local_path("raw/x") == (tmp_path / "real" / "a" / "raw" / "x")

    def test_one_resolve_call_per_operation(self, tmp_path, monkeypatch):
        archive = DiskArchive("a", tmp_path / "a")
        calls = []
        resolve = Path.resolve

        def counting_resolve(self, *args, **kwargs):
            calls.append(self)
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting_resolve)
        archive.store("raw/x", b"1")
        archive.retrieve("raw/x")
        archive.exists("raw/x")
        archive.local_path("raw/x")
        assert len(calls) == 4

    def test_offline_archive_refuses_access(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        archive.store("x", b"1")
        archive.online = False
        with pytest.raises(ArchiveOffline):
            archive.retrieve("x")
        assert not archive.exists("x")
        assert archive.list_items() == []

    def test_missing_item(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        with pytest.raises(ArchiveError):
            archive.retrieve("nothing")

    def test_remove_reclaims_space(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a", capacity_bytes=10)
        archive.store("x", b"1234567890")
        archive.remove("x")
        assert archive.capacity_left == 10
        archive.store("y", b"0123456789")

    def test_store_file_copies(self, tmp_path):
        source = tmp_path / "src.bin"
        source.write_bytes(b"payload")
        archive = DiskArchive("a", tmp_path / "a")
        item = archive.store_file("copied", source)
        assert archive.retrieve("copied") == b"payload"
        assert item.checksum == checksum_bytes(b"payload")

    def test_list_items_sorted(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        archive.store("b/2", b"x")
        archive.store("a/1", b"x")
        assert archive.list_items() == ["a/1", "b/2"]

    def test_status_report(self, tmp_path):
        archive = DiskArchive("a", tmp_path / "a")
        archive.store("x", b"123")
        status = archive.status()
        assert status["archive_id"] == "a"
        assert status["kind"] == "disk"
        assert status["bytes_stored"] == 3


class TestTapeArchive:
    def test_unstaged_access_rejected(self, tmp_path):
        tape = TapeArchive("t", tmp_path / "t")
        tape.store("x", b"cold data")
        with pytest.raises(NotStaged):
            tape.retrieve("x")

    def test_staged_access_works(self, tmp_path):
        tape = TapeArchive("t", tmp_path / "t")
        tape.store("x", b"cold data")
        tape.stage("x")
        assert tape.retrieve("x") == b"cold data"
        assert tape.is_staged("x")
        tape.unstage("x")
        with pytest.raises(NotStaged):
            tape.retrieve("x")

    def test_stage_is_idempotent(self, tmp_path):
        tape = TapeArchive("t", tmp_path / "t")
        tape.store("x", b"1")
        tape.stage("x")
        tape.stage("x")
        assert tape.stages == 1

    def test_stage_missing_item_rejected(self, tmp_path):
        tape = TapeArchive("t", tmp_path / "t")
        with pytest.raises(ArchiveError):
            tape.stage("missing")


class TestStorageManager:
    def _manager(self, tmp_path) -> StorageManager:
        manager = StorageManager(scratch_dir=tmp_path / "scratch")
        manager.register(DiskArchive("fast", tmp_path / "fast", capacity_bytes=100))
        manager.register(DiskArchive("big", tmp_path / "big"))
        manager.register(TapeArchive("tape", tmp_path / "tape"))
        return manager

    def test_duplicate_registration_rejected(self, tmp_path):
        manager = self._manager(tmp_path)
        with pytest.raises(ArchiveError):
            manager.register(DiskArchive("fast", tmp_path / "fast2"))

    def test_place_prefers_requested_archive(self, tmp_path):
        manager = self._manager(tmp_path)
        item = manager.place("x", b"12345", prefer="big")
        assert item.archive_id == "big"

    def test_place_spills_when_preferred_full(self, tmp_path):
        manager = self._manager(tmp_path)
        item = manager.place("x", b"a" * 200, prefer="fast")
        assert item.archive_id == "big"

    def test_place_skips_offline(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.archive("fast").online = False
        item = manager.place("x", b"123")
        assert item.archive_id == "big"

    def test_retrieve_stages_tape_transparently(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.archive("tape").store("cold", b"archived")
        assert manager.retrieve("tape", "cold") == b"archived"

    def test_local_path_for_tape_goes_via_scratch(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.archive("tape").store("cold", b"archived")
        path = manager.local_path("tape", "cold")
        assert path.read_bytes() == b"archived"
        assert "scratch" in str(path)

    def test_migrate_moves_and_verifies(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.place("x", b"move me", prefer="fast")
        result = manager.migrate("x", "fast", "big")
        assert result.checksum == checksum_bytes(b"move me")
        assert not manager.archive("fast").exists("x")
        assert manager.archive("big").retrieve("x") == b"move me"
        assert manager.migrations == [result]

    def test_migrate_to_tape_then_back(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.place("x", b"cold soon", prefer="big")
        manager.migrate("x", "big", "tape")
        assert manager.retrieve("tape", "x") == b"cold soon"
        manager.migrate("x", "tape", "big")
        assert manager.archive("big").retrieve("x") == b"cold soon"

    def test_backup_and_restore(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.register(DiskArchive("backup", tmp_path / "backup"))
        manager.place("a", b"1", prefer="big")
        manager.place("b", b"2", prefer="big")
        assert manager.backup("big", "backup") == 2
        # Simulate loss of one item.
        manager.archive("big").remove("a")
        assert manager.restore("backup", "big") == 1
        assert manager.archive("big").retrieve("a") == b"1"

    def test_unknown_archive_rejected(self, tmp_path):
        manager = self._manager(tmp_path)
        with pytest.raises(ArchiveError):
            manager.archive("nope")

    def test_scratch_path_without_a_scratch_disk_reuses_one_directory(self, monkeypatch):
        made = []
        mkdtemp = tempfile.mkdtemp

        def counting_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", counting_mkdtemp)
        manager = StorageManager()
        paths = {manager.scratch_path(f"job{index % 4}") for index in range(100)}
        assert len(made) == 1
        assert len(paths) == 4 and all(path.is_dir() for path in paths)
        assert {path.parent for path in paths} == {Path(made[0])}
        del manager     # the directory goes with the manager
        assert not Path(made[0]).exists()

    def test_unpacked_copy_of_a_tape_item(self, tmp_path):
        manager = self._manager(tmp_path)
        payload = b"photons " * 500
        item = manager.archive("tape").store("raw/u.fits.gz", gzip.compress(payload))
        manager.record_checksum("tape", "raw/u.fits.gz", item.checksum)
        cold = manager.unpacked_copy("tape", "raw/u.fits.gz", budget_bytes=10**6)
        warm = manager.unpacked_copy("tape", "raw/u.fits.gz", budget_bytes=10**6)
        assert (cold.inflated, warm.inflated) == (True, False)
        assert cold.path == warm.path and warm.path.read_bytes() == payload
        assert manager.unpacked_bytes == len(payload)
        manager.migrate("raw/u.fits.gz", "tape", "big")
        assert not cold.path.exists() and manager.unpacked_bytes == 0

    def test_no_scratch_disk_means_no_unpacking(self, tmp_path):
        manager = StorageManager()
        manager.register(DiskArchive("big", tmp_path / "big"))
        manager.place("raw/u.fits.gz", gzip.compress(b"photons"), prefer="big")
        assert manager.unpacked_copy("big", "raw/u.fits.gz", budget_bytes=10**6) is None
        with pytest.raises(ArchiveError, match="not found"):
            manager.unpacked_copy("big", "raw/missing.fits.gz", budget_bytes=10**6)

    def test_item_that_is_not_gzip_is_not_staged(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.place("raw/plain.fits", b"SIMPLE  =                    T", prefer="big")
        assert manager.unpacked_copy("big", "raw/plain.fits", budget_bytes=10**6) is None
        assert manager.unpacked_bytes == 0

    def test_total_status_lists_all(self, tmp_path):
        manager = self._manager(tmp_path)
        ids = {status["archive_id"] for status in manager.total_status()}
        assert ids == {"fast", "big", "tape"}


class TestRemoteArchive:
    def test_behaves_like_disk(self, tmp_path):
        remote = RemoteArchive("nfs", tmp_path / "nfs")
        remote.store("x", b"remote bytes")
        assert remote.retrieve("x") == b"remote bytes"
        assert remote.kind.value == "remote"
