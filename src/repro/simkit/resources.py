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
from typing import Optional

from .events import EventHandle, Simulator
from .process import Future
from .stats import TimeWeighted


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
