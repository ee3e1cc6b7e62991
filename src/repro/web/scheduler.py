"""Request scheduling for the web tier: executors and admission control.

The paper's middle tier scaled by adding servlet threads per node (§7.3);
this module gives the reproduction the same knob.  A :class:`WebServer`
hands every request to an *executor*:

* :class:`SynchronousExecutor` — dispatch inline on the caller's thread,
  preserving the historical single-threaded semantics (the default, and
  what the test suite runs on);
* :class:`WorkerPoolExecutor` — a fixed pool of worker threads draining a
  bounded :class:`AdmissionController` queue, so thousands of in-flight
  sessions interleave instead of serialising.

Anything with ``mode``, ``n_workers``, ``needs_context``, ``submit(task)``,
``shutdown()`` and ``report()`` plugs in as an executor — the server also
accepts a factory callable for custom schedulers.

Admission control is class-based and strictly prioritised: **analysis**
traffic (the scientists' bread and butter) is admitted ahead of
**browse**, which is admitted ahead of **bulk**/static transfers.  When
the queue is full, the controller sheds the *least important* queued
request to make room for a more important arrival — browse is dropped
before analysis under overload — and every shed rides the PR-2
503/``Retry-After`` path with a wait estimate derived from the queue
depth and a service-time EWMA.  Queue depth, wait time and shed counts
are first-class metrics (``web.sched.*``) surfaced by ``/hedc/metrics``
and ``/hedc/debug``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from ..obs import Observability, resolve as resolve_obs
from ..resil import Deadline
from .http import HttpRequest, HttpResponse

CLASS_ANALYSIS = "analysis"
CLASS_BROWSE = "browse"
CLASS_BULK = "bulk"

#: Admission classes, most important first.  Lower number = admitted
#: first, shed last.
CLASS_PRIORITY = {CLASS_ANALYSIS: 0, CLASS_BROWSE: 1, CLASS_BULK: 2}

#: Strict-priority drain order.
CLASS_ORDER = (CLASS_ANALYSIS, CLASS_BROWSE, CLASS_BULK)

#: Default route → admission class.  Operator telemetry rides in the
#: analysis class: losing visibility *during* an overload is how the §7
#: "moving target" goes unnoticed.
DEFAULT_ROUTE_CLASSES = {
    "/hedc/analyze": CLASS_ANALYSIS,
    "/hedc/search": CLASS_ANALYSIS,
    "/hedc/ana": CLASS_ANALYSIS,
    "/hedc/metrics": CLASS_ANALYSIS,
    "/hedc/debug": CLASS_ANALYSIS,
    "/hedc/dashboard": CLASS_ANALYSIS,
    "/hedc/login": CLASS_BROWSE,
    "/hedc/catalogs": CLASS_BROWSE,
    "/hedc/catalog": CLASS_BROWSE,
    "/hedc/hle": CLASS_BROWSE,
    "/hedc/image": CLASS_BROWSE,
    "/hedc/download": CLASS_BULK,
    "/static": CLASS_BULK,
}

#: Default per-route concurrency caps (on top of class admission): the
#: paper's frontend kept "no more than 20 requests in the system at any
#: given time" (§7.1) for analysis submissions; bulk downloads get a
#: tighter cap so they cannot monopolise workers.
DEFAULT_ROUTE_LIMITS = {
    "/hedc/analyze": 20,
    "/hedc/download": 8,
}


def classify_route(route: str,
                   overrides: Optional[dict[str, str]] = None) -> str:
    """Admission class for a route prefix; unknown routes count as browse."""
    if overrides:
        cls = overrides.get(route)
        if cls is not None:
            return cls
    return DEFAULT_ROUTE_CLASSES.get(route, CLASS_BROWSE)


class ScheduledRequest:
    """One request travelling through an executor.

    Resolution is write-once: the first of {worker, admission shed,
    caller abandonment} to call :meth:`resolve` wins, everyone else gets
    ``False`` back, and the waiting caller is released exactly once.
    ``deadline`` is created at *admission* so time spent queued counts
    against the request's budget; ``context`` (a ``contextvars`` copy)
    carries the submitter's trace span and ambient state onto the worker.
    """

    __slots__ = ("request", "route", "request_class", "created_at",
                 "resolved_at", "deadline", "context", "response", "exemplar",
                 "wait_s", "on_resolve", "_event", "_lock")

    def __init__(
        self,
        request: HttpRequest,
        route: str,
        request_class: str = CLASS_BROWSE,
        deadline: Optional[Deadline] = None,
        context=None,
        on_resolve: Optional[Callable[["ScheduledRequest"], None]] = None,
    ):
        self.request = request
        self.route = route
        self.request_class = request_class
        self.created_at = time.perf_counter()
        self.deadline = deadline
        self.context = context
        self.on_resolve = on_resolve
        self.response: Optional[HttpResponse] = None
        self.resolved_at: Optional[float] = None
        self.exemplar: Optional[tuple] = None
        self.wait_s = 0.0
        #: Built by the first :meth:`result` that waits; never for a sync one.
        self._event: Optional[threading.Event] = None
        self._lock = threading.Lock()

    @property
    def priority(self) -> int:
        return CLASS_PRIORITY[self.request_class]

    @property
    def done(self) -> bool:
        return self._event is _RESOLVED

    def resolve(self, response: HttpResponse) -> bool:
        """Install the response; returns False if someone beat us to it."""
        with self._lock:
            if self.response is not None:
                return False
            self.response = response
            self.resolved_at = time.perf_counter()
        if self.on_resolve is not None:
            self.on_resolve(self)
        with self._lock:
            waiting, self._event = self._event, _RESOLVED
        if waiting is not None:
            waiting.set()
        return True

    def result(self, timeout: Optional[float] = None) -> Optional[HttpResponse]:
        """Block until resolved (or ``timeout``); None on timeout."""
        with self._lock:
            event = self._event = self._event or threading.Event()
        if event is not _RESOLVED:
            event.wait(timeout)
        return self.response


#: A resolved request's event: set for good.
_RESOLVED = threading.Event()
_RESOLVED.set()


class AdmissionController:
    """A bounded admission queue with strict class priorities.

    ``priorities=False`` degrades it to a plain bounded FIFO (every class
    in one queue, arrivals shed when full) — the A/B baseline the serving
    benchmark compares against.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        priorities: bool = True,
        obs: Optional[Observability] = None,
        server: str = "web0",
    ):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.priorities = priorities
        self.obs = resolve_obs(obs)
        self.server = server
        #: Set by the owning executor; sizes the Retry-After estimate.
        self.n_workers = 1
        #: EWMA of per-request service time, fed by workers.
        self.service_ewma_s = 0.05
        self._cond = threading.Condition()
        self._queues: dict[str, deque[ScheduledRequest]] = {
            cls: deque() for cls in CLASS_ORDER
        }
        self._closed = False
        self._depth_gauges = {
            cls: self.obs.gauge("web.sched.queue_depth", server=server, cls=cls)
            for cls in CLASS_ORDER
        }
        self._wait_hists = {
            cls: self.obs.histogram("web.sched.wait_s", server=server, cls=cls)
            for cls in CLASS_ORDER
        }
        self._admitted = {
            cls: self.obs.counter("web.sched.admitted", server=server, cls=cls)
            for cls in CLASS_ORDER
        }
        self._shed = {
            cls: self.obs.counter("web.sched.shed", server=server, cls=cls)
            for cls in CLASS_ORDER
        }
        self._expired = {
            cls: self.obs.counter("web.sched.expired", server=server, cls=cls)
            for cls in CLASS_ORDER
        }

    # -- admission ---------------------------------------------------------

    def depth(self) -> int:
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def retry_after_s(self) -> float:
        """How long a shed caller should back off: the time for the
        current backlog to drain through the pool, floored at 1s."""
        backlog = sum(len(q) for q in self._queues.values())
        estimate = (backlog / max(1, self.n_workers)) * self.service_ewma_s
        return min(30.0, max(1.0, estimate))

    def submit(self, task: ScheduledRequest) -> bool:
        """Admit ``task``, shedding a less important queued request if
        the queue is full.  Returns True if the task was queued; False if
        it was shed (its 503 response is already resolved)."""
        victim: Optional[ScheduledRequest] = None
        with self._cond:
            if self._closed:
                self._resolve_shed(task, closing=True)
                return False
            queue_class = task.request_class if self.priorities else CLASS_BROWSE
            total = sum(len(q) for q in self._queues.values())
            if total >= self.max_queue_depth:
                if self.priorities:
                    victim = self._evict_lower_priority(task)
                if victim is None:
                    # Nothing less important to drop: the arrival is shed.
                    self._resolve_shed(task)
                    return False
            queue = self._queues[queue_class]
            queue.append(task)
            self._depth_gauges[queue_class].set(len(queue))
            self._admitted[task.request_class].inc()
            self._cond.notify()
        if victim is not None:
            self._resolve_shed(victim)
        return True

    def _evict_lower_priority(
        self, arriving: ScheduledRequest
    ) -> Optional[ScheduledRequest]:
        """Pop the newest queued request of the least important class
        that is *strictly* less important than ``arriving``."""
        for cls in reversed(CLASS_ORDER):
            if CLASS_PRIORITY[cls] <= arriving.priority:
                return None
            queue = self._queues[cls]
            if queue:
                victim = queue.pop()
                self._depth_gauges[cls].set(len(queue))
                return victim
        return None

    def _resolve_shed(self, task: ScheduledRequest,
                      closing: bool = False) -> None:
        retry_after = self.retry_after_s()
        reason = "server shutting down" if closing else (
            f"admission queue full ({self.max_queue_depth})"
        )
        response = HttpResponse.error(503, f"service unavailable: {reason}")
        response.headers["Retry-After"] = str(max(1, round(retry_after)))
        if task.resolve(response):
            self._shed[task.request_class].inc()
            self.obs.count("web.shed", server=self.server, route=task.route)

    # -- draining ----------------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[ScheduledRequest]:
        """Pop the most important queued request; None on timeout/close."""
        with self._cond:
            while True:
                for cls in CLASS_ORDER:
                    queue = self._queues[cls]
                    if queue:
                        task = queue.popleft()
                        self._depth_gauges[cls].set(len(queue))
                        return task
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def note_wait(self, task: ScheduledRequest, wait_s: float) -> None:
        task.wait_s = wait_s
        self._wait_hists[task.request_class].observe(wait_s)

    def note_expired(self, task: ScheduledRequest) -> None:
        self._expired[task.request_class].inc()

    def note_service(self, elapsed_s: float) -> None:
        # Racy by design: an EWMA sample lost to a concurrent writer is
        # noise, and the GIL keeps the float store/load atomic.
        self.service_ewma_s = 0.8 * self.service_ewma_s + 0.2 * elapsed_s

    def close(self) -> None:
        drained: list[ScheduledRequest] = []
        with self._cond:
            self._closed = True
            for cls in CLASS_ORDER:
                drained.extend(self._queues[cls])
                self._queues[cls].clear()
                self._depth_gauges[cls].set(0)
            self._cond.notify_all()
        for task in drained:
            self._resolve_shed(task, closing=True)

    def report(self) -> dict[str, Any]:
        with self._cond:
            depth = {cls: len(self._queues[cls]) for cls in CLASS_ORDER}
        return {
            "max_queue_depth": self.max_queue_depth,
            "priorities": self.priorities,
            "depth": depth,
            "admitted": {cls: int(self._admitted[cls].value) for cls in CLASS_ORDER},
            "shed": {cls: int(self._shed[cls].value) for cls in CLASS_ORDER},
            "expired": {cls: int(self._expired[cls].value) for cls in CLASS_ORDER},
            "wait_p95_s": {
                cls: self._wait_hists[cls].quantile(0.95)
                if self._wait_hists[cls].count else 0.0
                for cls in CLASS_ORDER
            },
            "service_ewma_s": self.service_ewma_s,
            "retry_after_s": self.retry_after_s(),
        }


class SynchronousExecutor:
    """Dispatch inline on the caller's thread — today's semantics.

    No queue, no admission, no context copy: one attribute load and one
    call on top of the dispatch itself, so single-thread mode stays
    within the <5% overhead budget on a hot request.
    """

    mode = "sync"
    n_workers = 1
    needs_context = False

    def __init__(self, dispatch: Callable[[ScheduledRequest], None]):
        self._dispatch = dispatch

    def submit(self, task: ScheduledRequest) -> None:
        self._dispatch(task)

    def shutdown(self) -> None:
        pass

    def report(self) -> dict[str, Any]:
        return {"mode": self.mode, "n_workers": 1, "queue": None}


class WorkerPoolExecutor:
    """A fixed worker pool draining the admission queue.

    Workers run each task inside its captured ``contextvars`` context, so
    the submitter's trace span and ambient deadline nest correctly.  A
    task whose deadline expired while queued is resolved 504 *without*
    dispatching — it never occupies a worker.
    """

    mode = "pool"
    needs_context = True
    #: How long an idle worker waits on the queue before it looks at the
    #: stop flag again.
    POLL_S = 0.1

    def __init__(
        self,
        dispatch: Callable[[ScheduledRequest], None],
        n_workers: int = 8,
        admission: Optional[AdmissionController] = None,
        obs: Optional[Observability] = None,
        server: str = "web0",
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._dispatch = dispatch
        self.n_workers = n_workers
        self.obs = resolve_obs(obs)
        self.server = server
        self.admission = admission if admission is not None else AdmissionController(
            obs=self.obs, server=server
        )
        self.admission.n_workers = n_workers
        self._stop = False
        self._threads = [
            threading.Thread(target=self._run, name=f"{server}-worker{i}",
                             daemon=True)
            for i in range(n_workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, task: ScheduledRequest) -> None:
        self.admission.submit(task)

    def _run(self) -> None:
        while not self._stop:
            task = self.admission.take(timeout=self.POLL_S)
            if task is None:
                continue
            if task.response is not None:
                continue  # abandoned by the caller while queued
            self.admission.note_wait(task, time.perf_counter() - task.created_at)
            if task.deadline is not None and task.deadline.expired:
                self.admission.note_expired(task)
                task.resolve(HttpResponse.error(
                    504, "deadline exceeded in admission queue"
                ))
                continue
            started = time.perf_counter()
            if task.context is not None:
                task.context.run(self._dispatch, task)
            else:
                self._dispatch(task)
            self.admission.note_service(time.perf_counter() - started)

    def shutdown(self) -> None:
        self._stop = True
        self.admission.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def report(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "n_workers": self.n_workers,
            "queue": self.admission.report(),
        }
