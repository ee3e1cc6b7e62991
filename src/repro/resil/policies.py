"""Retry policies: exponential backoff, seeded jitter, error classes.

One declarative policy object replaces per-call-site retry loops.  The
backoff schedule is **deterministic**: jitter for attempt *n* is drawn
from ``random.Random((seed, n))``, so two policies built with the same
parameters produce identical schedules — chaos runs replay exactly and
tests can assert the schedule instead of mocking time.

Exception classification is explicit: ``fatal`` types always propagate,
``retryable`` types are retried while attempts remain, anything else
propagates immediately (an :class:`IntegrityError` is not going to
succeed on the third try).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..obs import Observability, resolve as resolve_obs
from .deadline import Deadline, DeadlineExceeded
from .faults import InjectedFault

T = TypeVar("T")

#: Errors that are transient by nature anywhere in this codebase: injected
#: chaos, timeouts, and OS-level I/O hiccups.  Callers extend this with
#: their layer's own transient types (``LockTimeout``, ``ChecksumError``).
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    OSError,
)

class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.01,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        jitter: float = 0.1,
        seed: int = 0,
        retryable: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS,
        fatal: Tuple[Type[BaseException], ...] = (DeadlineExceeded,),
        sleep: Callable[[float], None] = time.sleep,
        name: str = "retry",
        obs: Optional[Observability] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.seed = seed
        self.retryable = retryable
        self.fatal = fatal
        self.name = name
        self.obs = resolve_obs(obs)
        self._sleep = sleep
        self._retry_counter = self.obs.counter("resil.retries", policy=name)
        self._exhausted_counter = self.obs.counter("resil.retries_exhausted",
                                                   policy=name)

    def replace(self, **overrides) -> "RetryPolicy":
        """A copy of this policy with some parameters overridden."""
        kwargs = dict(
            max_attempts=self.max_attempts,
            base_delay_s=self.base_delay_s,
            multiplier=self.multiplier,
            max_delay_s=self.max_delay_s,
            jitter=self.jitter,
            seed=self.seed,
            retryable=self.retryable,
            fatal=self.fatal,
            sleep=self._sleep,
            name=self.name,
            obs=self.obs,
        )
        kwargs.update(overrides)
        return RetryPolicy(**kwargs)

    # -- classification --------------------------------------------------------

    def classify(self, exc: BaseException) -> bool:
        """True when ``exc`` is worth another attempt."""
        if isinstance(exc, self.fatal):
            return False
        return isinstance(exc, self.retryable)

    # -- schedule --------------------------------------------------------------

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered
        deterministically from ``(seed, attempt)``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.max_delay_s,
                    self.base_delay_s * self.multiplier ** (attempt - 1))
        if self.jitter and delay > 0:
            unit = random.Random(f"{self.seed}:{attempt}").uniform(-1.0, 1.0)
            delay *= 1.0 + self.jitter * unit
        return max(0.0, delay)

    def schedule(self) -> list[float]:
        """The full backoff schedule (one delay per possible retry)."""
        return [self.backoff_s(attempt) for attempt in range(1, self.max_attempts)]

    # -- execution ---------------------------------------------------------------

    def call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """Run ``fn`` under this policy; re-raises the final failure."""
        attempt = 1
        while True:
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not self.classify(exc):
                    raise
                if attempt >= self.max_attempts:
                    self._exhausted_counter.inc()
                    raise
                # Never sleep past the ambient deadline: fail fast instead.
                delay = self.backoff_s(attempt)
                deadline = Deadline.current()
                if deadline is not None and deadline.remaining() <= delay:
                    raise
                self._retry_counter.inc()
                if delay > 0:
                    self._sleep(delay)
                attempt += 1
