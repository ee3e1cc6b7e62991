"""The unified caching core (``repro.cache``).

HEDC's middle tier lives or dies by reuse: §5.3 calls session creation
one of the two most expensive parts of request processing, and the whole
point of storing derived products is that the same analysis is never
computed twice.  This package is the one implementation behind every
cache in the repo: a thread-safe LRU :class:`Cache` with entry and
byte budgets, per-entry expiry, a typed
:class:`CacheStats` mirrored into :mod:`repro.obs`, and a
:class:`SingleFlight` request coalescer so N concurrent identical
requests do the work once.

Consumers:

* ``repro.dm.sessions.SessionCache`` — session storage/eviction/stats
* ``repro.streamcorder.cache`` — both fat-client cache strategies
* ``repro.pl.product_cache.ProductCache`` — the derived-product cache
  that short-circuits repeat analyses before any IDL invocation
"""

from .core import Cache, CacheStats
from .singleflight import SingleFlight

__all__ = [
    "Cache",
    "CacheStats",
    "SingleFlight",
]
