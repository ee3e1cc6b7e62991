"""Discrete-event model of the concurrent serving tier (PR-8).

The live serving benchmark, ``bench/``'s ``serve_wire`` workload,
measures a real :class:`~repro.web.WebServer` behind a charged wire;
this model predicts the same two shapes analytically, so the measured
numbers can be sanity-checked against queueing theory:

* **worker scaling** — an open-loop arrival stream over a
  :class:`~repro.simkit.PriorityFcfsServer` with ``n_workers`` servers:
  throughput grows with the pool until the offered load is absorbed;
* **priority protection** — under overload, strict-priority admission
  (analysis > browse > bulk) keeps analysis-class goodput and waiting
  time near the uncontended level while browse is shed; with priorities
  off (one shared class) every class degrades together.

Service demands derive from the §7 calibration: each DM↔DBMS round trip
costs ``1 / DB_QUERIES_PER_SECOND``; a browse page pays
``PAGE_ROUND_TRIPS_BATCHED`` trips batched or ``QUERIES_PER_REQUEST``
unbatched, plus ``CPU_BASE_S`` of application logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simkit import PriorityFcfsServer, Simulator, StreamFactory, Tally, spawn
from .calibration import (
    CPU_BASE_S,
    DB_QUERIES_PER_SECOND,
    PAGE_ROUND_TRIPS_BATCHED,
    QUERIES_PER_REQUEST,
)

#: Admission classes in priority order, mirroring repro.web.scheduler.
SERVING_CLASSES = ("analysis", "browse", "bulk")

#: Default §7-style class mix for the overload experiment.
DEFAULT_CLASS_SHARES = {"analysis": 0.25, "browse": 0.60, "bulk": 0.15}

_RTT_S = 1.0 / DB_QUERIES_PER_SECOND


def _service_demands(batched: bool) -> dict[str, float]:
    """Per-class service time at a worker, from the calibration."""
    page_trips = PAGE_ROUND_TRIPS_BATCHED if batched else QUERIES_PER_REQUEST
    return {
        # A search is one indexed sweep at the DBMS plus app logic.
        "analysis": _RTT_S + CPU_BASE_S,
        # The §7.2 HLE page: its round trips plus app logic.
        "browse": page_trips * _RTT_S + CPU_BASE_S,
        # Static transfers never touch the database.
        "bulk": CPU_BASE_S,
    }


@dataclass(frozen=True)
class ServingModelResult:
    """Outcome of one simulated serving configuration."""

    n_workers: int
    arrival_rps: float
    priorities: bool
    batched: bool
    throughput_rps: float
    goodput_rps: dict[str, float]
    shed: dict[str, int]
    avg_wait_s: dict[str, float]
    worker_utilization: float


def simulate_serving(
    n_workers: int = 8,
    arrival_rps: float = 200.0,
    duration_s: float = 200.0,
    max_queue: Optional[int] = 64,
    priorities: bool = True,
    batched: bool = True,
    class_shares: Optional[dict[str, float]] = None,
    seed: int = 2003,
) -> ServingModelResult:
    """Open-loop arrivals of the three admission classes at one pool."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if arrival_rps <= 0:
        raise ValueError("arrival_rps must be positive")
    shares = class_shares if class_shares is not None else DEFAULT_CLASS_SHARES
    demands = _service_demands(batched)
    sim = Simulator()
    pool = PriorityFcfsServer(sim, servers=n_workers, max_queue=max_queue,
                              name="workers")
    streams = StreamFactory(seed)
    arrivals = streams.stream("arrivals")
    routing = streams.stream("routing")
    completed = {cls: 0 for cls in SERVING_CLASSES}
    shed = {cls: 0 for cls in SERVING_CLASSES}
    waits = {cls: Tally() for cls in SERVING_CLASSES}
    cumulative = []
    acc = 0.0
    for cls in SERVING_CLASSES:
        acc += shares.get(cls, 0.0)
        cumulative.append((acc, cls))

    def draw_class() -> str:
        roll = routing.uniform(0.0, acc)
        for threshold, cls in cumulative:
            if roll <= threshold:
                return cls
        return cumulative[-1][1]

    def one_request(cls: str, priority: int):
        elapsed = yield pool.request(demands[cls], priority=priority)
        if elapsed is None:
            shed[cls] += 1
        else:
            completed[cls] += 1
            waits[cls].record(elapsed - demands[cls])

    def arrival_process():
        while True:
            yield arrivals.exponential(1.0 / arrival_rps)
            cls = draw_class()
            # priorities=False degrades every class to one shared queue,
            # mirroring AdmissionController(priorities=False).
            priority = SERVING_CLASSES.index(cls) if priorities else 1
            spawn(sim, one_request(cls, priority))

    spawn(sim, arrival_process())
    sim.run(until=duration_s)

    return ServingModelResult(
        n_workers=n_workers,
        arrival_rps=arrival_rps,
        priorities=priorities,
        batched=batched,
        throughput_rps=sum(completed.values()) / duration_s,
        goodput_rps={cls: completed[cls] / duration_s
                     for cls in SERVING_CLASSES},
        shed=dict(shed),
        avg_wait_s={cls: waits[cls].mean for cls in SERVING_CLASSES},
        worker_utilization=pool.busy_time / duration_s,
    )


def worker_scaling_series(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    arrival_rps: float = 400.0,
    batched: bool = True,
    duration_s: float = 200.0,
) -> list[ServingModelResult]:
    """Throughput vs pool size at a fixed (overloading) arrival rate —
    the model's counterpart of the live worker-scaling benchmark."""
    return [
        simulate_serving(n_workers=n, arrival_rps=arrival_rps,
                         batched=batched, duration_s=duration_s)
        for n in worker_counts
    ]


def admission_ab(
    n_workers: int = 8,
    overload_factor: float = 2.0,
    batched: bool = True,
    duration_s: float = 200.0,
) -> dict[str, ServingModelResult]:
    """The admission-control A/B at ``overload_factor``× capacity:
    identical arrivals with strict priorities on and off."""
    demands = _service_demands(batched)
    mean_demand = sum(DEFAULT_CLASS_SHARES[cls] * demands[cls]
                      for cls in SERVING_CLASSES)
    capacity_rps = n_workers / mean_demand
    rate = overload_factor * capacity_rps
    return {
        "with_priorities": simulate_serving(
            n_workers=n_workers, arrival_rps=rate, priorities=True,
            batched=batched, duration_s=duration_s),
        "without_priorities": simulate_serving(
            n_workers=n_workers, arrival_rps=rate, priorities=False,
            batched=batched, duration_s=duration_s),
    }


def print_serving(results: list[ServingModelResult]) -> str:
    """Render a series as the paper-style text table."""
    lines = ["Serving model - throughput vs worker-pool size"]
    lines.append(f"{'workers':>8} {'offered':>8} {'req/s':>8} "
                 f"{'analysis':>9} {'browse':>8} {'bulk':>7} {'util%':>6}")
    for result in results:
        lines.append(
            f"{result.n_workers:>8} {result.arrival_rps:>8.0f} "
            f"{result.throughput_rps:>8.1f} "
            f"{result.goodput_rps['analysis']:>9.1f} "
            f"{result.goodput_rps['browse']:>8.1f} "
            f"{result.goodput_rps['bulk']:>7.1f} "
            f"{result.worker_utilization * 100:>6.0f}"
        )
    return "\n".join(lines)
