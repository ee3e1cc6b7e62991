"""repro.resil — unified resilience policies and fault injection.

The paper claims the middle tier's interactions "are self-recovering and
tolerate failure and restart" (§5.1) and that "compensating actions are
taken if failures occur" (§5.2).  This package turns those claims into
reusable machinery instead of per-call-site heroics:

* :class:`RetryPolicy` — exponential backoff, deterministic seeded
  jitter, retryable/fatal exception classification;
* :class:`CircuitBreaker` — closed/open/half-open with a sliding
  failure-rate window and cooldown;
* :class:`Deadline` — a contextvars-propagated time budget flowing
  web → DM → metadb/PL, so blown requests fail fast instead of queueing;
* :class:`Bulkhead` — semaphore concurrency caps with load shedding;
* :class:`FaultInjector` — named, seeded, probabilistic injection
  points threaded through every tier (see :mod:`repro.resil.faults` for
  the point inventory), so chaos scenarios are reproducible library
  code.

All policies emit to :mod:`repro.obs`: ``resil.retries``,
``resil.breaker.state``/``trips``/``rejections``, ``resil.bulkhead.shed``
and ``resil.faults.injected``.
"""

from .breaker import BreakerOpen, BreakerState, CircuitBreaker
from .bulkhead import Bulkhead, BulkheadFull
from .deadline import Deadline, DeadlineExceeded
from .faults import (
    ConnectionDropped,
    DEFAULT_INJECTOR,
    FaultInjector,
    FaultPoint,
    InjectedFault,
    fire,
    get_default_injector,
    maybe_corrupt,
    set_default_injector,
    use_injector,
)
from .policies import RetryPolicy, TRANSIENT_ERRORS

__all__ = [
    "BreakerOpen",
    "BreakerState",
    "Bulkhead",
    "BulkheadFull",
    "CircuitBreaker",
    "ConnectionDropped",
    "DEFAULT_INJECTOR",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPoint",
    "InjectedFault",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "fire",
    "get_default_injector",
    "maybe_corrupt",
    "set_default_injector",
    "use_injector",
]
