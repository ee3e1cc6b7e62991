"""Queueing resources for the simulation kernel.

Two disciplines cover the performance models in the paper's evaluation:

* :class:`ProcessorSharing` — a multi-core CPU under round-robin/processor
  sharing; throughput of each in-flight job degrades as load grows.  This
  is what produces the degradation slope of Figure 4.
* :class:`FcfsServer` — a first-come-first-served station with ``k``
  servers (database connections, disks, network links).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .events import EventHandle, Simulator
from .process import AllOf, Future
from .stats import Tally, TimeWeighted


class ProcessorSharing:
    """A processor-sharing station with ``cores`` cores of speed ``speed``.

    Each job carries a fixed amount of *work* (seconds of single-core CPU
    time).  With ``n`` jobs in service, each receives service rate
    ``speed * min(1, cores / n)``.  ``service(work)`` returns a
    :class:`~repro.simkit.process.Future` that resolves when the job's work
    is exhausted.
    """

    def __init__(self, sim: Simulator, cores: int = 1, speed: float = 1.0, name: str = "cpu"):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self._sim = sim
        self.cores = cores
        self.speed = speed
        self.name = name
        self._jobs: list[dict] = []
        self._last_update = sim.now
        self._completion: Optional[EventHandle] = None
        self.utilization = TimeWeighted(sim)
        self.load = TimeWeighted(sim)
        self.completed_jobs = 0
        self.busy_time = 0.0

    def _rate_per_job(self, n_jobs: int) -> float:
        if n_jobs == 0:
            return 0.0
        return self.speed * min(1.0, self.cores / n_jobs)

    def _advance(self) -> None:
        """Account for service delivered since the last state change."""
        elapsed = self._sim.now - self._last_update
        if elapsed > 0 and self._jobs:
            rate = self._rate_per_job(len(self._jobs))
            for job in self._jobs:
                job["remaining"] -= elapsed * rate
            busy_cores = min(len(self._jobs), self.cores)
            self.busy_time += elapsed * busy_cores / self.cores
        self._last_update = self._sim.now

    def _reschedule(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self.utilization.record(min(len(self._jobs), self.cores) / self.cores)
        self.load.record(len(self._jobs))
        if not self._jobs:
            return
        rate = self._rate_per_job(len(self._jobs))
        shortest = min(job["remaining"] for job in self._jobs)
        delay = max(0.0, shortest / rate)
        self._completion = self._sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        epsilon = 1e-12
        finished = [job for job in self._jobs if job["remaining"] <= epsilon]
        self._jobs = [job for job in self._jobs if job["remaining"] > epsilon]
        self._reschedule()
        for job in finished:
            self.completed_jobs += 1
            job["future"].resolve(self._sim.now - job["start"])

    def service(self, work: float) -> Future:
        """Submit a job needing ``work`` seconds of single-core time."""
        if work < 0:
            raise ValueError("work must be non-negative")
        future = Future(self._sim)
        if work == 0:
            self._sim.schedule(0.0, lambda: future.resolve(0.0))
            return future
        self._advance()
        self._jobs.append({"remaining": work, "future": future, "start": self._sim.now})
        self._reschedule()
        return future


class FcfsServer:
    """A ``k``-server FCFS station.

    ``request(service_time)`` returns a future that resolves when the job
    has both waited for a free server and completed its service.
    """

    def __init__(self, sim: Simulator, servers: int = 1, name: str = "server"):
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self._sim = sim
        self.servers = servers
        self.name = name
        self._busy = 0
        self._queue: deque[tuple[float, Future, float]] = deque()
        self.utilization = TimeWeighted(sim)
        self.queue_length = TimeWeighted(sim)
        self.completed_jobs = 0
        self.busy_time = 0.0
        self._last_update = sim.now

    def _record(self) -> None:
        elapsed = self._sim.now - self._last_update
        self.busy_time += elapsed * self._busy / self.servers
        self._last_update = self._sim.now
        self.utilization.record(self._busy / self.servers)
        self.queue_length.record(len(self._queue))

    def request(self, service_time: float) -> Future:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        future = Future(self._sim)
        self._record()
        if self._busy < self.servers:
            self._start(service_time, future, self._sim.now)
        else:
            self._queue.append((service_time, future, self._sim.now))
        return future

    def _start(self, service_time: float, future: Future, arrival: float) -> None:
        self._busy += 1
        self._record()

        def finish() -> None:
            self._record()
            self._busy -= 1
            self.completed_jobs += 1
            if self._queue:
                next_service, next_future, next_arrival = self._queue.popleft()
                self._start(next_service, next_future, next_arrival)
            self._record()
            future.resolve(self._sim.now - arrival)

        self._sim.schedule(service_time, finish)

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._queue)


class PriorityFcfsServer:
    """A ``k``-server station with strict-priority classes and a bounded
    queue — the discrete-event counterpart of the web tier's admission
    controller (:mod:`repro.web.scheduler`).

    ``request(service_time, priority)`` takes a priority (lower number =
    more important); when every server is busy the job waits in its
    class's FCFS queue, drained most-important-first.  With ``max_queue``
    set, a full queue sheds the *newest* waiting job of a strictly less
    important class to admit a more important arrival, otherwise the
    arrival itself is shed.  Shed jobs resolve their future to ``None``,
    so a client process distinguishes completion from rejection by the
    yielded value.
    """

    def __init__(
        self,
        sim: Simulator,
        servers: int = 1,
        max_queue: Optional[int] = None,
        name: str = "server",
    ):
        if servers < 1:
            raise ValueError("servers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self._sim = sim
        self.servers = servers
        self.max_queue = max_queue
        self.name = name
        self._busy = 0
        self._queues: dict[int, deque[tuple[float, Future, float]]] = {}
        self.utilization = TimeWeighted(sim)
        self.queue_length = TimeWeighted(sim)
        self.completed_jobs = 0
        self.shed_jobs: dict[int, int] = {}
        self.waits: dict[int, Tally] = {}
        self.busy_time = 0.0
        self._last_update = sim.now

    def _record(self) -> None:
        elapsed = self._sim.now - self._last_update
        self.busy_time += elapsed * self._busy / self.servers
        self._last_update = self._sim.now
        self.utilization.record(self._busy / self.servers)
        self.queue_length.record(self.queued)

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _shed(self, future: Future, priority: int) -> None:
        self.shed_jobs[priority] = self.shed_jobs.get(priority, 0) + 1
        future.resolve(None)

    def request(self, service_time: float, priority: int = 0) -> Future:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        future = Future(self._sim)
        self._record()
        if self._busy < self.servers:
            self._start(service_time, future, self._sim.now, priority)
            return future
        if self.max_queue is not None and self.queued >= self.max_queue:
            victim = self._evict_lower_priority(priority)
            if victim is None:
                self._shed(future, priority)
                return future
            victim_future, victim_priority = victim
            self._shed(victim_future, victim_priority)
        self._queues.setdefault(priority, deque()).append(
            (service_time, future, self._sim.now)
        )
        self._record()
        return future

    def _evict_lower_priority(
        self, arriving: int
    ) -> Optional[tuple[Future, int]]:
        """Pop the newest waiting job of the least important class that
        is strictly less important than ``arriving``."""
        for priority in sorted(self._queues, reverse=True):
            if priority <= arriving:
                return None
            queue = self._queues[priority]
            if queue:
                _service, future, _arrival = queue.pop()
                return future, priority
        return None

    def _take(self) -> Optional[tuple[float, Future, float, int]]:
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            if queue:
                service_time, future, arrival = queue.popleft()
                return service_time, future, arrival, priority
        return None

    def _start(self, service_time: float, future: Future, arrival: float,
               priority: int) -> None:
        self._busy += 1
        self.waits.setdefault(priority, Tally()).record(self._sim.now - arrival)
        self._record()

        def finish() -> None:
            self._record()
            self._busy -= 1
            self.completed_jobs += 1
            head = self._take()
            if head is not None:
                next_service, next_future, next_arrival, next_priority = head
                self._start(next_service, next_future, next_arrival,
                            next_priority)
            self._record()
            future.resolve(self._sim.now - arrival)

        self._sim.schedule(service_time, finish)


def scatter_gather(servers: Sequence["FcfsServer"], service_time: float) -> AllOf:
    """Fan one logical request out to every station and wait for all.

    Models a scatter-gather read against a partitioned resource: the
    caller resumes when the *slowest* branch finishes, so the returned
    :class:`~repro.simkit.process.AllOf` captures the straggler effect
    that distinguishes fan-out from a single queue visit.
    """
    if not servers:
        raise ValueError("scatter_gather needs at least one server")
    return AllOf([server.request(service_time) for server in servers])
