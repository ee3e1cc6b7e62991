"""Named, seeded, probabilistic fault injection points.

The paper's middle tier promises interactions that "are self-recovering
and tolerate failure and restart" (§5.1).  Proving that requires faults,
and faults sprinkled through test subclasses (``_CorruptingArchive`` and
friends) are neither reusable nor reproducible.  A :class:`FaultInjector`
makes chaos a library feature: production code calls :func:`fire` at a
named injection point, which is a near-free no-op until a scenario
configures that point with a probability, an error, a stall, or payload
corruption — all driven by one seeded RNG so a chaos run replays
identically.

Injection points wired through the tiers:

=========================  ====================================================
``metadb.statement``       :meth:`Database.execute` raises before execution
``metadb.pool.acquire``    :meth:`ConnectionPool.acquire` stalls (``delay_s``)
``metadb.wal.fsync``       :meth:`Journal._fsync` raises (failed fsync)
``metadb.shard.<id>.statement``  every router-dispatched statement to one
                           shard of a :class:`ShardedDatabase` raises —
                           kills that time range's shard mid-scatter
``metadb.shard.<id>.wal.fsync``  one shard's journal fsync fails (fires
                           alongside the global ``metadb.wal.fsync``)
``repl.ship``              a :class:`~repro.repl.LogShipper` batch is lost
                           in flight before the follower applies it
``repl.ack``               the follower applied a shipped batch but the
                           ack is lost; the re-ship is deduplicated by LSN
``repl.replica.<name>.crash``  one replica-group copy crashes: fires on
                           every ship apply and read routed to that copy
``filestore.store``        :meth:`Archive.store` raises (write I/O error)
``filestore.read``         :meth:`Archive.retrieve` raises (read I/O error)
``filestore.corrupt``      :meth:`Archive.retrieve` flips a payload byte
``idl.crash``              :meth:`IdlServer.invoke` crashes the interpreter
``idl.hang``               :meth:`IdlServer.invoke` stalls past its timeout
``web.connection_drop``    :meth:`WebServer.handle` drops the connection
=========================  ====================================================
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..obs import Observability, resolve as resolve_obs


class InjectedFault(Exception):
    """A deliberately injected failure (transient by definition)."""


class ConnectionDropped(InjectedFault):
    """The simulated network dropped the client's connection."""


ErrorSpec = Union[BaseException, type, None]


@dataclass
class FaultPoint:
    """One configured injection point."""

    name: str
    rate: float = 1.0
    error: ErrorSpec = InjectedFault
    delay_s: float = 0.0
    corrupt: bool = False
    times: Optional[int] = None  # fire at most this many times, then disarm
    evaluated: int = 0
    fired: int = 0

    def build_error(self) -> Optional[BaseException]:
        if self.error is None:
            return None
        if isinstance(self.error, BaseException):
            return self.error
        return self.error(f"injected fault at {self.name!r}")


@dataclass
class _Decision:
    fired: bool
    delay_s: float = 0.0
    error: Optional[BaseException] = None
    corrupt: bool = False


class FaultInjector:
    """A registry of injection points sharing one seeded RNG.

    Unconfigured points never touch the RNG, so adding instrumentation to
    a new call site does not perturb existing seeded scenarios.
    """

    def __init__(self, seed: int = 0, obs: Optional[Observability] = None,
                 sleep=time.sleep):
        self.seed = seed
        self.obs = resolve_obs(obs)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._points: dict[str, FaultPoint] = {}
        self._lock = threading.Lock()

    # -- configuration -------------------------------------------------------

    def inject(
        self,
        name: str,
        rate: float = 1.0,
        error: ErrorSpec = InjectedFault,
        delay_s: float = 0.0,
        corrupt: bool = False,
        times: Optional[int] = None,
    ) -> FaultPoint:
        """Arm an injection point.  ``rate`` is the per-call probability;
        ``error`` an exception class/instance (or None for stall/corrupt
        only); ``times`` bounds the total number of firings."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        point = FaultPoint(name=name, rate=rate, error=error, delay_s=delay_s,
                           corrupt=corrupt, times=times)
        with self._lock:
            self._points[name] = point
        return point

    def clear(self, name: Optional[str] = None) -> None:
        with self._lock:
            if name is None:
                self._points.clear()
            else:
                self._points.pop(name, None)

    @property
    def active(self) -> bool:
        return bool(self._points)

    def point(self, name: str) -> Optional[FaultPoint]:
        return self._points.get(name)

    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                name: {"evaluated": p.evaluated, "fired": p.fired}
                for name, p in self._points.items()
            }

    def report(self) -> dict[str, dict]:
        """Full armed-point detail for the operator's instrument panel:
        configuration plus firing counts, per injection point."""
        with self._lock:
            points = list(self._points.values())
        report: dict[str, dict] = {}
        for point in points:
            error = point.error
            report[point.name] = {
                "rate": point.rate,
                "delay_s": point.delay_s,
                "corrupt": point.corrupt,
                "times": point.times,
                "evaluated": point.evaluated,
                "fired": point.fired,
                "error": (
                    None if error is None
                    else error.__name__ if isinstance(error, type)
                    else type(error).__name__
                ),
            }
        return report

    # -- firing --------------------------------------------------------------

    def _decide(self, name: str) -> _Decision:
        point = self._points.get(name)
        if point is None:
            return _Decision(False)
        with self._lock:
            point.evaluated += 1
            if point.times is not None and point.fired >= point.times:
                return _Decision(False)
            if point.rate < 1.0 and self._rng.random() >= point.rate:
                return _Decision(False)
            point.fired += 1
        self.obs.count("resil.faults.injected", point=name)
        self.obs.event("warn", "resil", "fault.fired",
                       f"injection point {name!r} fired",
                       point=name, delay_s=point.delay_s,
                       corrupt=point.corrupt)
        return _Decision(True, point.delay_s, point.build_error(), point.corrupt)

    def fire(self, name: str) -> None:
        """Evaluate an injection point: maybe stall, maybe raise."""
        if not self._points:
            return
        decision = self._decide(name)
        if not decision.fired:
            return
        if decision.delay_s > 0:
            self._sleep(decision.delay_s)
        if decision.error is not None:
            raise decision.error

    def corrupt_payload(self, name: str, payload: bytes) -> bytes:
        """Maybe flip one byte of ``payload`` (a flaky disk or link)."""
        if not self._points or not payload:
            return payload
        decision = self._decide(name)
        if not decision.fired:
            return payload
        with self._lock:
            index = self._rng.randrange(len(payload))
        return payload[:index] + bytes([payload[index] ^ 0xFF]) + payload[index + 1:]


#: The process-wide injector every wired call site resolves by default.
#: It starts with no points armed, so :func:`fire` costs one dict
#: truthiness check on production paths.
DEFAULT_INJECTOR = FaultInjector()
_default = DEFAULT_INJECTOR


def get_default_injector() -> FaultInjector:
    return _default


def set_default_injector(injector: FaultInjector) -> FaultInjector:
    global _default
    previous = _default
    _default = injector
    return previous


@contextlib.contextmanager
def use_injector(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Temporarily install ``injector`` as the process default."""
    previous = set_default_injector(injector)
    try:
        yield injector
    finally:
        set_default_injector(previous)


def fire(name: str) -> None:
    """Fire a named point on the default injector (hot-path helper)."""
    injector = _default
    if injector._points:
        injector.fire(name)


def maybe_corrupt(name: str, payload: bytes) -> bytes:
    injector = _default
    if injector._points:
        return injector.corrupt_payload(name, payload)
    return payload
