"""The StreamCorder's two caching strategies (paper §6.2).

* :class:`StaticPathCache` — "calculates a unique but static file system
  path for each data-object ... based on fixed object attributes, such as
  type and creation date, the cache structure is predetermined."
* :class:`LocalCloneCache` — "adds a local DBMS installation for dynamic
  object references and meta data caching ... cache object-retrieval and
  -placement is identical to the way the server DM handles the server-side
  data archives", making every installation a clone of the HEDC server.

Both keep their public API but delegate index bookkeeping, eviction and
statistics to the unified :class:`repro.cache.Cache` core: the static
strategy gains an optional byte budget (evicted entries unlink their
backing file), and both report through the shared
:class:`repro.cache.CacheStats` — still mirrored to the registry under
the historical ``streamcorder.cache.*`` names, labelled by strategy.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Union

from ..cache import Cache, CacheStats
from ..metadb import Comparison, Select
from ..obs import Observability, resolve as resolve_obs


def _strategy_stats(strategy: str, obs: Optional[Observability]) -> CacheStats:
    return CacheStats(
        f"streamcorder.{strategy}", obs=obs,
        metric_prefix="streamcorder.cache", labels={"strategy": strategy},
    )


class StaticPathCache:
    """Version 1: deterministic paths from fixed object attributes.

    ``max_bytes`` bounds the resident payload bytes; hitting the budget
    evicts least-recently-used entries and unlinks their files.
    """

    def __init__(self, root: Union[str, Path],
                 obs: Optional[Observability] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        resolved = resolve_obs(obs)
        self.stats = _strategy_stats("static", resolved)
        self._index: Cache = Cache(
            "streamcorder.static", max_bytes=max_bytes,
            obs=resolved, stats=self.stats, on_evict=self._on_removed,
        )

    def _on_removed(self, key: str, path: Path, reason: str) -> None:
        if reason == "evicted":
            Path(path).unlink(missing_ok=True)

    def path_for(self, object_type: str, item_id: str, created_at: float = 0.0) -> Path:
        """The predetermined cache location for one data object."""
        digest = hashlib.sha1(item_id.encode()).hexdigest()[:12]
        day = int(created_at // 86_400)
        return self.root / object_type / f"d{day:06d}" / digest

    def get(self, object_type: str, item_id: str, created_at: float = 0.0) -> Optional[bytes]:
        path = self.path_for(object_type, item_id, created_at)
        if path.exists():
            # Adopt files a previous installation left behind (the path
            # scheme is static, so the index can always be rebuilt).
            if self._index.peek(str(path), touch=True) is None:
                self._index.put(str(path), path, size=path.stat().st_size)
            self.stats.record_hit()
            return path.read_bytes()
        self.stats.record_miss()
        return None

    def put(self, object_type: str, item_id: str, payload: bytes,
            created_at: float = 0.0) -> Path:
        path = self.path_for(object_type, item_id, created_at)
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            path.write_bytes(payload)
            self._index.put(str(path), path, size=len(payload))
        return path

    def contains(self, object_type: str, item_id: str, created_at: float = 0.0) -> bool:
        return self.path_for(object_type, item_id, created_at).exists()


class LocalCloneCache:
    """Version 2: a local DM (with its own DBMS and archive) as the cache.

    Retrieval and placement go through the local DM's name mapping and
    storage manager — the same code paths the server uses, because the
    local installation *is* a server clone (same schema).  The unified
    core keeps a presence index on top, so repeat lookups skip the local
    DBMS probe and byte accounting comes for free.
    """

    def __init__(self, local_dm, obs: Optional[Observability] = None):
        self.dm = local_dm
        resolved = obs if obs is not None else resolve_obs(getattr(local_dm, "obs", None))
        self.stats = _strategy_stats("clone", resolved)
        self._index: Cache = Cache(
            "streamcorder.clone", obs=resolved, stats=self.stats,
        )

    def _present(self, item_id: str) -> bool:
        if self._index.peek(item_id, touch=True) is not None:
            return True
        rows = self.dm.io.execute(
            Select("loc_files", where=Comparison("item_id", "=", item_id))
        )
        if rows:
            self._index.put(item_id, rows[0]["rel_path"],
                            size=rows[0].get("size_bytes") or 0)
            return True
        return False

    def get(self, item_id: str) -> Optional[bytes]:
        if not self._present(item_id):
            self.stats.record_miss()
            return None
        names = self.dm.io.names.resolve_files(item_id)
        self.stats.record_hit()
        return self.dm.io.read_item(names[0])

    def put(self, item_id: str, rel_path: str, payload: bytes) -> None:
        if self._present(item_id):
            return
        stored = self.dm.io.store_payload(rel_path, payload)
        self.dm.io.names.register_file(
            item_id, stored.archive_id, stored.rel_path,
            size_bytes=stored.size, checksum=stored.checksum,
        )
        self._index.put(item_id, stored.rel_path, size=len(payload))
