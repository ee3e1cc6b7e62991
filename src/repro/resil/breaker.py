"""Circuit breakers: stop hammering a failing dependency.

Classic three-state machine over a sliding outcome window:

* **closed** — calls flow; outcomes are recorded.  When at least
  ``min_calls`` of the last ``window`` outcomes exist and the failure
  rate reaches ``failure_rate``, the breaker trips **open**.
* **open** — calls are rejected immediately with :class:`BreakerOpen`
  (callers shed load / fail over instead of queueing on a dead
  dependency).  After ``cooldown_s`` the breaker moves to half-open.
* **half-open** — one trial call at a time is admitted; one success
  closes the breaker, one failure re-opens it for another cooldown.

State is exported to ``repro.obs`` as a gauge (0 closed, 1 open, 2
half-open) plus a ``resil.breaker.trips`` counter, and every breaker
joins the ``breakers`` section of its hub's report tree as it is built.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Callable, Optional, TypeVar

from ..obs import Observability, resolve as resolve_obs

T = TypeVar("T")


def breaker_report(breakers: "list[CircuitBreaker]") -> dict[str, dict]:
    """Per-breaker state snapshots (window reduced to counts), keyed by
    breaker name: the ``breakers`` section of the report tree."""
    report: dict[str, dict] = {}
    for breaker in breakers:
        snapshot = breaker.snapshot()
        window = snapshot.pop("window")
        snapshot["window"] = {
            "calls": len(window),
            "failures": sum(1 for ok in window if not ok),
            "capacity": breaker.window,
        }
        report[breaker.name] = snapshot
    return report


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


_STATE_GAUGE = {BreakerState.CLOSED: 0, BreakerState.OPEN: 1, BreakerState.HALF_OPEN: 2}


class BreakerOpen(Exception):
    """The call was rejected because the circuit is open."""

    def __init__(self, name: str, retry_after_s: float):
        super().__init__(
            f"circuit {name!r} is open; retry in {max(0.0, retry_after_s):.2f}s"
        )
        self.name = name
        self.retry_after_s = max(0.0, retry_after_s)


class CircuitBreaker:
    """Closed/open/half-open breaker over a sliding failure window."""

    def __init__(
        self,
        name: str = "breaker",
        window: int = 20,
        min_calls: int = 5,
        failure_rate: float = 0.5,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        obs: Optional[Observability] = None,
    ):
        if window < 1 or min_calls < 1:
            raise ValueError("window and min_calls must be >= 1")
        if not 0.0 < failure_rate <= 1.0:
            raise ValueError("failure_rate must be within (0, 1]")
        self.name = name
        self.window = window
        self.min_calls = min_calls
        self.failure_rate = failure_rate
        self.cooldown_s = cooldown_s
        self.obs = resolve_obs(obs)
        self._clock = clock
        self._lock = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._state = BreakerState.CLOSED
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self.trips = 0
        self._state_gauge = self.obs.gauge("resil.breaker.state", breaker=name)
        self._trip_counter = self.obs.counter("resil.breaker.trips", breaker=name)
        self._reject_counter = self.obs.counter("resil.breaker.rejections",
                                                breaker=name)
        self.obs.contribute("breakers", breaker_report, self)

    # -- state machine (all transitions hold the lock) --------------------------

    def _set_state(self, state: BreakerState) -> None:
        previous = self._state
        self._state = state
        self._state_gauge.set(_STATE_GAUGE[state])
        if previous is not state:
            self.obs.event(
                "warn" if state is BreakerState.OPEN else "info",
                "resil", "breaker.transition",
                f"breaker {self.name!r}: {previous.value} -> {state.value}",
                breaker=self.name, from_state=previous.value,
                to_state=state.value,
            )

    def _trip(self) -> None:
        self._set_state(BreakerState.OPEN)
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self._outcomes.clear()
        self.trips += 1
        self._trip_counter.inc()

    def _close(self) -> None:
        self._set_state(BreakerState.CLOSED)
        self._opened_at = None
        self._probes_in_flight = 0
        self._outcomes.clear()

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._set_state(BreakerState.HALF_OPEN)
            self._probes_in_flight = 0

    # -- public API -------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def retry_after_s(self) -> float:
        """Seconds until the breaker would admit a probe again."""
        with self._lock:
            if self._state is not BreakerState.OPEN or self._opened_at is None:
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """True when a call may proceed right now (counts half-open probes)."""
        # Lock-free fast path: CLOSED is the steady state, and the only
        # transition out of it happens inside record_failure, so a racy
        # read here at worst admits one extra call while the breaker
        # trips.  This keeps the hot metadb execute path within its <5%
        # overhead budget (benchmarks/test_resil_overhead.py).
        if self._state is BreakerState.CLOSED:
            return True
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                self._reject_counter.inc()
                return False
            if self._probes_in_flight < 1:
                self._probes_in_flight += 1
                return True
            self._reject_counter.inc()
            return False

    def check(self) -> None:
        """Raise :class:`BreakerOpen` unless a call may proceed."""
        if not self.allow():
            raise BreakerOpen(self.name, self.retry_after_s())

    def record_success(self) -> None:
        # Same lock-free CLOSED fast path as allow(); deque.append is
        # atomic under the GIL.
        if self._state is BreakerState.CLOSED:
            self._outcomes.append(True)
            return
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._close()
            elif self._state is BreakerState.CLOSED:
                self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            if self._state is not BreakerState.CLOSED:
                return
            self._outcomes.append(False)
            if len(self._outcomes) >= self.min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= self.failure_rate:
                    self._trip()

    def call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """Run ``fn`` through the breaker, recording the outcome."""
        self.check()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def reset(self) -> None:
        with self._lock:
            self._close()

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state.value,
                "trips": self.trips,
                "window": list(self._outcomes),
                "retry_after_s": (
                    max(0.0, self.cooldown_s - (self._clock() - self._opened_at))
                    if self._state is BreakerState.OPEN and self._opened_at is not None
                    else 0.0
                ),
            }
