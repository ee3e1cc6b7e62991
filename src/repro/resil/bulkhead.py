"""Bulkheads: semaphore-based concurrency caps.

The paper's frontend already bounds the number of in-flight analysis
requests ("no more than 20 requests in the system at any given time",
§7.1); a :class:`Bulkhead` generalises that idea so any component can cap
the concurrency it admits and shed the excess immediately instead of
queueing without limit.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, TypeVar

from ..obs import Observability, resolve as resolve_obs

T = TypeVar("T")


class BulkheadFull(Exception):
    """The compartment is at capacity; the call was shed."""

    def __init__(self, name: str, limit: int):
        super().__init__(f"bulkhead {name!r} is full ({limit} concurrent calls)")
        self.name = name
        self.limit = limit
        self.retry_after_s = 1.0


class Bulkhead:
    """A named concurrency compartment."""

    def __init__(
        self,
        name: str = "bulkhead",
        max_concurrent: int = 8,
        obs: Optional[Observability] = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.name = name
        self.max_concurrent = max_concurrent
        self.obs = resolve_obs(obs)
        self._semaphore = threading.BoundedSemaphore(max_concurrent)
        self._in_use = 0
        self._lock = threading.Lock()
        self._in_use_gauge = self.obs.gauge("resil.bulkhead.in_use", bulkhead=name)
        self._shed_counter = self.obs.counter("resil.bulkhead.shed", bulkhead=name)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    def acquire(self) -> None:
        if not self._semaphore.acquire(blocking=False):
            self._shed_counter.inc()
            raise BulkheadFull(self.name, self.max_concurrent)
        with self._lock:
            self._in_use += 1
            self._in_use_gauge.set(self._in_use)

    def release(self) -> None:
        with self._lock:
            self._in_use -= 1
            self._in_use_gauge.set(self._in_use)
        self._semaphore.release()

    def __enter__(self) -> "Bulkhead":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        with self:
            return fn(*args, **kwargs)
