"""The derived-product cache (paper §3.5, §5.3).

The whole point of storing derived products is that "the same analysis
is never computed twice": before the frontend touches an IDL server it
looks up a canonical fingerprint of (algorithm, HLE id, parameters) — a
generalization of the per-call redundancy probe
``StrategyContext.check_existing`` — and, on a hit, serves the committed
product in O(lookup) instead of O(IDL).

Correctness rules:

* **Fingerprint** — canonical JSON of the request identity.  Volatile
  parameters the pipeline itself writes (``force``, ``degraded``,
  ``n_photons_used``, reuse/cache markers) are excluded, so a served
  request re-fingerprints identically to a fresh one.
* **Calibration epoch** — entries are stamped with
  ``ProcessLayer.cache_epoch`` at store time, *not* hashed into the key:
  write-path workflows (recalibration, relocation, new calibration
  versions) bump the epoch, which makes older entries stale — but still
  reachable by :meth:`lookup_stale` for the degraded path.
* **Visibility** — a hit is only served after the semantic layer shows
  the cached analysis to *this* user (``get_analysis`` raises for
  invisible rows).  Public products are therefore safely reusable across
  users; private ones fall back to a fresh run.  A purged analysis fails
  the same probe, so the entry is dropped instead of served dangling.
* **Stale-while-degraded** — when the IDL pool breaker is open, a stale
  (epoch-superseded or TTL-expired) entry may be served with
  ``degraded=True``, trading freshness for availability (:mod:`repro.resil`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from ..analysis import AnalysisProduct
from ..cache import Cache, SingleFlight
from ..obs import Observability, resolve as resolve_obs
from ..security import User

#: Parameters the pipeline mutates while serving a request; never part
#: of the cached identity.
VOLATILE_PARAMETERS = frozenset(
    {"force", "degraded", "n_photons_used", "reused_ana_id", "served_from_cache"}
)


def fingerprint(algorithm: str, hle_id: int, parameters: dict[str, Any]) -> str:
    """Canonical request fingerprint (stable across dict ordering)."""
    identity = {
        key: value
        for key, value in parameters.items()
        if key not in VOLATILE_PARAMETERS
    }
    blob = json.dumps([algorithm, hle_id, identity], sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class CachedProduct:
    """One committed analysis, ready to be served again."""

    product: AnalysisProduct
    ana_id: int
    algorithm: str
    epoch: int

    @property
    def size_bytes(self) -> int:
        return sum(len(payload) for payload in self.product.image_payloads)


class ProductCache:
    """Fingerprint → committed product, epoch-invalidated, coalesced."""

    #: Budgets: resident entries, and the bytes of their images.
    MAX_ENTRIES = 512
    MAX_BYTES = 64 * 2**20

    def __init__(self, dm, obs: Optional[Observability] = None):
        self.dm = dm
        self.obs = obs if obs is not None else resolve_obs(getattr(dm, "obs", None))
        self._cache: Cache = Cache(
            "pl.products",
            max_entries=self.MAX_ENTRIES,
            max_bytes=self.MAX_BYTES,
            size_of=lambda entry: entry.size_bytes,
            obs=self.obs,
        )
        self.stats = self._cache.stats
        #: Coalesces concurrent identical submits into one execution.
        self.flight = SingleFlight(obs=self.obs)

    # -- epoch --------------------------------------------------------------

    def current_epoch(self) -> int:
        return getattr(self.dm.process, "cache_epoch", 0)

    # -- lookups ------------------------------------------------------------

    def _visible_to(self, user: Optional[User], entry: CachedProduct) -> bool:
        from ..dm import EntityNotFound

        try:
            self.dm.semantic.get_analysis(user, entry.ana_id)
        except EntityNotFound:
            return False
        return True

    def lookup(self, user: Optional[User], key: str) -> Optional[CachedProduct]:
        """A *fresh* entry (current epoch, unexpired) visible to ``user``."""
        entry: Optional[CachedProduct] = self._cache.peek(key, touch=True)
        if entry is None:
            self.stats.record_miss()
            return None
        if entry.epoch != self.current_epoch():
            # Stale, but deliberately kept resident for lookup_stale.
            self.stats.record_miss()
            return None
        if not self._visible_to(user, entry):
            # Invisible or purged on the server: either way, not ours to
            # serve.  Purged rows never come back, so drop the entry.
            self._drop_if_purged(user, entry, key)
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return entry

    def lookup_stale(self, user: Optional[User], key: str) -> Optional[CachedProduct]:
        """Any resident entry visible to ``user``, fresh or stale — the
        breaker-open fallback."""
        entry: Optional[CachedProduct] = self._cache.get_stale(key)
        if entry is None or not self._visible_to(user, entry):
            return None
        return entry

    def _drop_if_purged(self, user: Optional[User], entry: CachedProduct,
                        key: str) -> None:
        from ..dm import EntityNotFound

        try:
            # The import user sees everything; if even it cannot, the row
            # is gone (maintenance purge), not merely private.
            self.dm.semantic.get_analysis(self.dm.import_user, entry.ana_id)
        except EntityNotFound:
            self._cache.invalidate(key)

    # -- writes -------------------------------------------------------------

    def store(self, key: str, algorithm: str, product: AnalysisProduct,
              ana_id: int) -> CachedProduct:
        entry = CachedProduct(
            product=product,
            ana_id=ana_id,
            algorithm=algorithm,
            epoch=self.current_epoch(),
        )
        self._cache.put(key, entry)
        return entry

    def invalidate(self, key: str) -> bool:
        return self._cache.invalidate(key)

    def clear(self) -> int:
        return self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
