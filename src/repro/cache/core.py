"""The generic, thread-safe caching core.

One :class:`Cache` instance backs every cache in the system: the DM's
session cache, both StreamCorder strategies, and the PL's derived-product
cache.  Entries carry a byte size (for ``max_bytes`` budgets) and an
optional expiry; eviction is least-recently-used, the order kept by the
entry map itself; all outcomes land in one typed :class:`CacheStats`,
mirrored into the :mod:`repro.obs` registry so ``/hedc/metrics`` and
``DataManager.telemetry_report()`` can report per-cache hit ratios,
resident bytes and eviction counts without bespoke wiring: every cache
joins the ``caches`` section of its hub's report tree as it is built.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Optional

from ..obs import Observability, resolve as resolve_obs
from .singleflight import SingleFlight

_MISSING = object()

#: Why an entry left the cache (the third argument of ``on_evict``).
REMOVAL_REASONS = ("evicted", "expired", "invalidated", "replaced", "cleared")


#: The events :class:`CacheStats` mirrors as ``<prefix>.<event>`` counters.
_COUNTED_EVENTS = ("hits", "misses", "stale_hits", "evictions", "expirations",
                   "invalidations", "puts", "coalesced", "bytes_cached")


class CacheStats:
    """Typed hit/miss/eviction/byte counters, mirrored into ``repro.obs``.

    ``metric_prefix`` and ``labels`` control the mirrored metric names so
    pre-existing families (``dm.sessions.*``, ``streamcorder.cache.*``)
    keep their dashboards; new caches default to ``cache.*`` labelled by
    cache name.  The streamcorder-era API (``record_hit`` /
    ``record_miss(n)`` / ``record_cached(n_bytes)`` / ``hit_rate`` /
    ``bytes_cached``) is preserved verbatim.
    """

    def __init__(self, name: str = "cache", obs: Optional[Observability] = None,
                 metric_prefix: str = "cache",
                 labels: Optional[dict[str, str]] = None):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        self.puts = 0
        self.coalesced = 0
        self.bytes_cached = 0       # total bytes ever written
        self.size_bytes = 0         # bytes currently resident
        self.entries = 0            # entries currently resident
        # Metric handles resolved once: a cache hit pays a dict probe and
        # an increment, not a name format and a registry lookup.
        labels = dict(labels) if labels is not None else {"cache": name}
        self._counters: Optional[dict[str, Any]] = None
        if obs is not None:
            self._counters = {
                event: obs.counter(f"{metric_prefix}.{event}", **labels)
                for event in _COUNTED_EVENTS
            }
            self._entries_gauge = obs.gauge(f"{metric_prefix}.entries", **labels)
            self._size_gauge = obs.gauge(f"{metric_prefix}.size_bytes", **labels)

    # -- event recording (obs-mirrored) -------------------------------------

    def _count(self, event: str, n: float = 1) -> None:
        if self._counters is not None and n:
            self._counters[event].inc(n)

    def record_hit(self, n: int = 1) -> None:
        self.hits += n
        self._count("hits", n)

    def record_miss(self, n: int = 1) -> None:
        self.misses += n
        self._count("misses", n)

    def record_stale_hit(self, n: int = 1) -> None:
        self.stale_hits += n
        self._count("stale_hits", n)

    def record_eviction(self, n: int = 1) -> None:
        self.evictions += n
        self._count("evictions", n)

    def record_expiration(self, n: int = 1) -> None:
        self.expirations += n
        self._count("expirations", n)

    def record_invalidation(self, n: int = 1) -> None:
        self.invalidations += n
        self._count("invalidations", n)

    def record_put(self, n: int = 1) -> None:
        self.puts += n
        self._count("puts", n)

    def record_coalesced(self, n: int = 1) -> None:
        self.coalesced += n
        self._count("coalesced", n)

    def record_cached(self, n_bytes: int) -> None:
        self.bytes_cached += n_bytes
        self._count("bytes_cached", n_bytes)

    def set_size(self, entries: int, size_bytes: int) -> None:
        self.entries = entries
        self.size_bytes = size_bytes
        if self._counters is not None:
            self._entries_gauge.set(entries)
            self._size_gauge.set(size_bytes)

    # -- derived ------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    #: Alias: the session cache historically called this ``hit_ratio``.
    hit_ratio = hit_rate

    def snapshot(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_rate,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "puts": self.puts,
            "coalesced": self.coalesced,
            "entries": self.entries,
            "size_bytes": self.size_bytes,
            "bytes_cached": self.bytes_cached,
        }


def cache_report(caches: "list[Cache]") -> dict[str, dict]:
    """Per-cache stat snapshots keyed by cache name: the ``caches``
    section of the report tree.  Two caches sharing a name within one
    hub (every DM node's ``dm.sessions``) merge by summing counters."""
    report: dict[str, dict] = {}
    for cache in caches:
        snapshot = cache.stats.snapshot()
        existing = report.get(cache.name)
        if existing is None:
            report[cache.name] = snapshot
        else:
            for field, value in snapshot.items():
                if field != "hit_ratio":
                    existing[field] = existing.get(field, 0) + value
            total = existing["hits"] + existing["misses"]
            existing["hit_ratio"] = existing["hits"] / total if total else 0.0
    return report


class _Entry:
    __slots__ = ("value", "size", "created_at", "expires_at")

    def __init__(self, value: Any, size: int, created_at: float,
                 expires_at: Optional[float]):
        self.value = value
        self.size = size
        self.created_at = created_at
        self.expires_at = expires_at


class Cache:
    """Thread-safe LRU store with byte accounting.

    * ``max_entries`` / ``max_bytes`` — either, both or neither budget;
      over budget, the least recently used entry (read or written) goes
    * ``ttl_s`` — default entry lifetime (overridable per ``put``)
    * ``size_of`` — value → byte size (default: every entry costs 0 bytes
      and 1 entry, i.e. pure entry-count budgeting)
    * ``on_evict(key, value, reason)`` — fired on every removal with the
      reason (one of :data:`REMOVAL_REASONS`); this is where wrappers
      clean up side tables (cookie maps) or backing files
    """

    def __init__(
        self,
        name: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        size_of: Optional[Callable[[Any], int]] = None,
        on_evict: Optional[Callable[[Hashable, Any, str], None]] = None,
        obs: Optional[Observability] = None,
        stats: Optional[CacheStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.obs = resolve_obs(obs)
        self._size_of = size_of
        self._on_evict = on_evict
        self._clock = clock
        self._lock = threading.RLock()
        #: Least recently used first: a hit or a put moves a key to the end.
        self._data: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._bytes = 0
        self.stats = stats if stats is not None else CacheStats(name, obs=self.obs)
        self._flight = SingleFlight(obs=self.obs)
        self.obs.contribute("caches", cache_report, self)

    # -- internals ----------------------------------------------------------

    def _expired(self, entry: _Entry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def _remove(self, key: Hashable, reason: str) -> Optional[Any]:
        entry = self._data.pop(key, None)
        if entry is None:
            return None
        self._bytes -= entry.size
        if reason == "evicted":
            self.stats.record_eviction()
        elif reason == "expired":
            self.stats.record_expiration()
        elif reason == "invalidated":
            self.stats.record_invalidation()
        self.stats.set_size(len(self._data), self._bytes)
        if self._on_evict is not None:
            self._on_evict(key, entry.value, reason)
        return entry.value

    def _evict_over_budget(self) -> None:
        while self._data and (
            (self.max_entries is not None and len(self._data) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            self._remove(next(iter(self._data)), "evicted")

    # -- reads --------------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted read: hit refreshes recency, expired entries are
        dropped and count as misses."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.stats.record_miss()
                return default
            if self._expired(entry):
                self._remove(key, "expired")
                self.stats.record_miss()
                return default
            self._data.move_to_end(key)
            self.stats.record_hit()
            return entry.value

    def peek(self, key: Hashable, default: Any = None, touch: bool = False) -> Any:
        """Uncounted read for wrappers that apply their own hit semantics
        (e.g. the session cache rejects a resident entry on IP mismatch).
        Expired entries are still dropped — but count as expirations, not
        misses."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return default
            if self._expired(entry):
                self._remove(key, "expired")
                return default
            if touch:
                self._data.move_to_end(key)
            return entry.value

    def get_stale(self, key: Hashable, default: Any = None) -> Any:
        """Return the entry even if expired (stale-while-degraded reads);
        counts a stale hit when something is there."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return default
            self.stats.record_stale_hit()
            return entry.value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._data.get(key)
            return entry is not None and not self._expired(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._bytes

    # -- writes -------------------------------------------------------------

    def put(self, key: Hashable, value: Any, size: Optional[int] = None,
            ttl_s: Optional[float] = None) -> None:
        if size is None:
            size = self._size_of(value) if self._size_of is not None else 0
        lifetime = ttl_s if ttl_s is not None else self.ttl_s
        expires_at = self._clock() + lifetime if lifetime is not None else None
        with self._lock:
            if key in self._data:
                self._remove(key, "replaced")
            entry = _Entry(value, size, self._clock(), expires_at)
            self._data[key] = entry
            self._bytes += size
            self.stats.record_put()
            if size:
                self.stats.record_cached(size)
            self._evict_over_budget()
            self.stats.set_size(len(self._data), self._bytes)

    def get_or_load(self, key: Hashable, loader: Callable[[], Any],
                    size: Optional[int] = None,
                    ttl_s: Optional[float] = None) -> Any:
        """Counted read with a coalesced fill: concurrent misses for the
        same key run ``loader`` once, and every caller gets the value."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value

        def _fill() -> Any:
            # Another flight may have filled the key while we queued.
            cached = self.peek(key, _MISSING, touch=True)
            if cached is not _MISSING:
                return cached
            loaded = loader()
            self.put(key, loaded, size=size, ttl_s=ttl_s)
            return loaded

        value, leading = self._flight.do(key, _fill)
        if not leading:
            self.stats.record_coalesced()
        return value

    def invalidate(self, key: Hashable) -> bool:
        with self._lock:
            return self._remove(key, "invalidated") is not None

    def clear(self) -> int:
        with self._lock:
            n = len(self._data)
            for key in list(self._data):
                self._remove(key, "cleared")
            return n
