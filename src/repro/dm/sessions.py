"""Sessions and the session cache (paper §5.3).

"Creating database connections and user sessions are the two most
expensive parts of request processing" — so the DM caches up to three
sessions per user (one each for analyses, HLEs and catalogues), matching
clients to sessions by network IP and cookie.

Storage, eviction and statistics are delegated to the unified
:class:`repro.cache.Cache` core; this module keeps only the session
*semantics*: the IP/cookie match, the idle-TTL rule, and the per-user
eviction unit (a user's three kinds leave together).  The core's
``on_evict`` hook keeps the cookie reverse map in lockstep with the
session store, closing the historical leak where evicted or expired
sessions lingered in ``_by_cookie`` forever.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..cache import Cache, CacheStats
from ..obs import Observability, resolve as resolve_obs
from ..security import User

SESSION_KINDS = ("hle", "ana", "catalog")


@dataclass
class Session:
    """One cached user session: profile, status and a temporary view."""

    session_id: str
    user: User
    kind: str                       # hle | ana | catalog
    client_ip: str
    cookie: str
    created_at: float = field(default_factory=time.time)
    last_used_at: float = field(default_factory=time.time)
    #: "a temporary view (to speed up subsequent data access)" — cached
    #: rows keyed by a query fingerprint.
    view: dict[str, Any] = field(default_factory=dict)
    requests_served: int = 0

    def touch(self) -> None:
        self.last_used_at = time.time()
        self.requests_served += 1

    def cache_view(self, key: str, rows: list[dict]) -> None:
        self.view[key] = rows

    def cached_view(self, key: str) -> Optional[list[dict]]:
        return self.view.get(key)


class SessionCache:
    """Per-user session cache, three kinds per user, LRU-evicted."""

    def __init__(self, max_users: int = 256, ttl_s: float = 3600.0,
                 obs: Optional[Observability] = None):
        self.max_users = max_users
        self.ttl_s = ttl_s
        self.obs = resolve_obs(obs)
        self.creations = 0
        self._by_cookie: dict[str, tuple[int, str]] = {}
        # Metric names predate the unified core; keep them stable.
        self.stats = CacheStats("dm.sessions", obs=self.obs,
                                metric_prefix="dm.sessions", labels={})
        # max_entries is None: the capacity unit is *users*, enforced in
        # create(); the core handles storage, stats and cookie cleanup.
        self._cache: Cache = Cache(
            "dm.sessions", obs=self.obs, stats=self.stats,
            on_evict=self._on_removed,
        )
        self._creations_counter = self.obs.counter("dm.sessions.creations")
        self._size_gauge = self.obs.gauge("dm.sessions.size")

    # -- unified-stats views (legacy attribute names) ------------------------

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def hit_ratio(self) -> float:
        return self.stats.hit_rate

    @property
    def size(self) -> int:
        return len(self._cache)

    def _on_removed(self, key: tuple[int, str], session: Session,
                    reason: str) -> None:
        """Every removal path — eviction, expiry, invalidation, overwrite
        — drops the session's cookie, so ``_by_cookie`` can never outgrow
        the live session set, and refreshes the size gauge
        (:meth:`create` covers growth)."""
        self._by_cookie.pop(session.cookie, None)
        self._size_gauge.set(len(self._cache))

    def _expired(self, session: Session) -> bool:
        return time.time() - session.last_used_at > self.ttl_s

    def lookup(self, user: User, kind: str, client_ip: str, cookie: str) -> Optional[Session]:
        """Match a client to its session via IP and cookie (§5.3)."""
        key = (user.user_id, kind)
        session = self._cache.peek(key, touch=True)
        if session is None or self._expired(session):
            if session is not None:
                self._cache.invalidate(key)
            self.stats.record_miss()
            return None
        if session.client_ip != client_ip or session.cookie != cookie:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        session.touch()
        return session

    def create(self, user: User, kind: str, client_ip: str) -> Session:
        if kind not in SESSION_KINDS:
            raise ValueError(f"unknown session kind {kind!r}")
        self._evict_if_needed(user)
        cookie = os.urandom(8).hex()
        session = Session(
            session_id=f"s-{user.user_id}-{kind}-{cookie[:6]}",
            user=user,
            kind=kind,
            client_ip=client_ip,
            cookie=cookie,
        )
        # An overwrite removes the old session first (reason "replaced"),
        # which clears its cookie via _on_removed.
        self._cache.put((user.user_id, kind), session)
        self._by_cookie[cookie] = (user.user_id, kind)
        self.creations += 1
        self._creations_counter.inc()
        self._size_gauge.set(len(self._cache))
        return session

    def get_or_create(self, user: User, kind: str, client_ip: str,
                      cookie: Optional[str] = None) -> Session:
        if cookie is not None:
            session = self.lookup(user, kind, client_ip, cookie)
            if session is not None:
                return session
        else:
            self.stats.record_miss()
        return self.create(user, kind, client_ip)

    def by_cookie(self, cookie: str) -> Optional[Session]:
        """Match a request to its session by cookie alone (the servlets'
        lookup).  Counted like :meth:`lookup`: an unknown or expired
        cookie is a miss, a hit touches the session."""
        key = self._by_cookie.get(cookie)
        session = self._cache.peek(key) if key is not None else None
        if session is None or session.cookie != cookie:
            self.stats.record_miss()
            return None
        if self._expired(session):
            self._cache.invalidate(key)
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        session.touch()
        return session

    def invalidate_user(self, user_id: int) -> int:
        """Drop all of a user's sessions (logout / deactivation)."""
        dropped = 0
        for kind in SESSION_KINDS:
            if self._cache.invalidate((user_id, kind)):
                dropped += 1
        return dropped

    def prune_expired(self) -> int:
        """Sweep idle-expired sessions out of the store (and so out of
        the cookie map) without waiting for them to be observed."""
        dropped = 0
        for key in self._cache.keys():
            session = self._cache.peek(key)
            if session is not None and self._expired(session):
                if self._cache.invalidate(key):
                    dropped += 1
        return dropped

    def _evict_if_needed(self, user: User) -> None:
        active_users = {user_id for user_id, _kind in self._cache.keys()}
        if user.user_id in active_users or len(active_users) < self.max_users:
            return
        oldest: Optional[Session] = None
        for key in self._cache.keys():
            session = self._cache.peek(key)
            if session is None:
                continue
            if oldest is None or session.last_used_at < oldest.last_used_at:
                oldest = session
        if oldest is not None:
            self.invalidate_user(oldest.user.user_id)
