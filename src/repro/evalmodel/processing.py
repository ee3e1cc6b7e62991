"""Discrete-event model of the processing testbed (paper §8, Table 1).

Structure of one analysis job, following §8.1 and §8.4:

1. the central dispatcher (one instance — "the central scheduling in
   combination with the fault tolerant protocol among the services")
   hands the job to a location; handing off to the *remote client* is
   much more expensive than to the co-located server;
2. client-bound jobs pull their input over the 2 MB/s HTTP link unless it
   is already cached on the client's scratch space ('client/cached');
3. the job computes on its location — the server offers 1 or 2 analysis
   slots on 2 CPUs (concurrent server analyses interfere, strongly for
   the I/O-bound histograms), the client offers 1 slot;
4. 3 queries + 2 edits against the DM account for the (small, constant)
   data-management cost.

Submission: the imaging test's published sojourn times (109 s at a 60 s
service) imply requests were paced near capacity (~1.8 in system by
Little's law), while the histogram test's (98 s at ~5 s service) imply
the 20-request window was kept full; the model follows both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simkit import FcfsServer, Simulator, Tally, spawn
from .calibration import (
    CLIENT_CORES,
    DM_INTERACTION_S,
    HISTOGRAM_EDITS_PER_REQUEST,
    HISTOGRAM_INPUT_MB_PER_REQUEST,
    HISTOGRAM_OUTPUT_MB_TOTAL,
    HISTOGRAM_QUERIES_PER_REQUEST,
    HISTOGRAM_REQUESTS,
    HISTOGRAM_WORK_CLIENT_S,
    HISTOGRAM_WORK_SERVER_S,
    HTTP_BANDWIDTH_MB_S,
    IMAGING_EDITS_PER_REQUEST,
    IMAGING_INPUT_MB_PER_REQUEST,
    IMAGING_OUTPUT_MB_TOTAL,
    IMAGING_QUERIES_PER_REQUEST,
    IMAGING_REQUESTS,
    IMAGING_WORK_CLIENT_S,
    IMAGING_WORK_SERVER_S,
    PROCESSING_WINDOW,
    SERVER_CORES,
)

#: Dispatcher occupancy per job handoff (§8.4).  Remote handoffs carry
#: the fault-tolerant protocol's round trips over HTTP/RMI and push the
#: input data synchronously; co-located handoffs are cheap.
HANDOFF_SERVER_S = 0.3
HANDOFF_CLIENT_S = 5.5

#: Concurrent server analyses interfere (Table 1: two concurrent
#: histograms take 8.7 s each vs 6.4 s alone; imaging barely degrades).
SERVER_INTERFERENCE = {"imaging": 0.035, "histogram": 0.40}

#: Fraction of a job's wall time that is kernel/system time, by cause:
#: data movement and DM interactions (Table 1 reports 2-17% sys CPU,
#: higher for the I/O-bound histogram test).
SYS_FRACTION_PER_MB = 0.012


@dataclass(frozen=True)
class Workload:
    name: str
    n_requests: int
    input_mb: float            # per request (files overlap across requests)
    total_input_mb: float      # the test's distinct input volume (50 MB)
    output_mb_total: float
    work_server_s: float       # single-slot service time on the server
    work_client_s: float
    paced: bool                # True: submit near capacity; False: window
    queries_per_request: int   # DM queries and edits of one job (§8.4)
    edits_per_request: int


IMAGING = Workload(
    "imaging", IMAGING_REQUESTS, IMAGING_INPUT_MB_PER_REQUEST, 50.0,
    IMAGING_OUTPUT_MB_TOTAL, IMAGING_WORK_SERVER_S, IMAGING_WORK_CLIENT_S,
    paced=True, queries_per_request=IMAGING_QUERIES_PER_REQUEST,
    edits_per_request=IMAGING_EDITS_PER_REQUEST,
)
HISTOGRAM = Workload(
    "histogram", HISTOGRAM_REQUESTS, HISTOGRAM_INPUT_MB_PER_REQUEST, 50.0,
    HISTOGRAM_OUTPUT_MB_TOTAL, HISTOGRAM_WORK_SERVER_S, HISTOGRAM_WORK_CLIENT_S,
    paced=False, queries_per_request=HISTOGRAM_QUERIES_PER_REQUEST,
    edits_per_request=HISTOGRAM_EDITS_PER_REQUEST,
)


@dataclass(frozen=True)
class Configuration:
    """One column of Table 1."""

    label: str                 # e.g. "S", "S+C"
    server_slots: int          # concurrent analyses on the server (0 = none)
    client_slots: int          # concurrent analyses on the client (0 = none)
    client_cached: bool = False

    @property
    def concurrency_label(self) -> str:
        if self.server_slots and self.client_slots:
            return f"{self.server_slots}+{self.client_slots}"
        return str(self.server_slots or self.client_slots)


IMAGING_CONFIGS = (
    Configuration("S", 1, 0),
    Configuration("S", 2, 0),
    Configuration("C", 0, 1),
    Configuration("S+C", 2, 1),
)
HISTOGRAM_CONFIGS = (
    Configuration("S", 1, 0),
    Configuration("S", 2, 0),
    Configuration("C", 0, 1),
    Configuration("C/cached", 0, 1, client_cached=True),
    Configuration("S+C", 2, 1),
)


@dataclass
class ProcessingResult:
    """One Table 1 column's measured outputs."""

    workload: str
    label: str
    concurrency: str
    overall_duration_s: float
    turnover_gb_per_day: float
    avg_sojourn_s: float
    sys_cpu_server_pct: float
    usr_cpu_server_pct: float
    sys_cpu_client_pct: float
    usr_cpu_client_pct: float
    queries: int
    edits: int


def _server_service(workload: Workload, slots: int) -> float:
    interference = SERVER_INTERFERENCE[workload.name]
    return workload.work_server_s * (1.0 + interference * (slots - 1))


def _capacity(workload: Workload, config: Configuration) -> float:
    """Analytic jobs/second capacity, used to pace the submitter.

    Handoff and compute pipeline, so the client path's cycle time is the
    maximum of its compute time and its (handoff + transfer) time.
    """
    rate = 0.0
    if config.server_slots:
        rate += config.server_slots / (
            _server_service(workload, config.server_slots) + DM_INTERACTION_S
        )
    if config.client_slots:
        transfer = 0.0 if config.client_cached else workload.input_mb / HTTP_BANDWIDTH_MB_S
        cycle = max(workload.work_client_s, HANDOFF_CLIENT_S + transfer)
        rate += config.client_slots / cycle
    return rate


def simulate_processing(workload: Workload, config: Configuration) -> ProcessingResult:
    """Simulate one workload/configuration cell of Table 1."""
    if not config.server_slots and not config.client_slots:
        raise ValueError("configuration must offer at least one slot")
    sim = Simulator()
    dispatcher = FcfsServer(sim, servers=1, name="dispatcher")
    server = (
        FcfsServer(sim, servers=config.server_slots, name="server")
        if config.server_slots
        else None
    )
    client = (
        FcfsServer(sim, servers=config.client_slots, name="client")
        if config.client_slots
        else None
    )
    dm = FcfsServer(sim, servers=1, name="dm")
    sojourns = Tally()
    state = {
        "in_system": 0,
        "completed": 0,
        "finish_time": 0.0,
        "client_jobs": 0,
        "server_busy": 0.0,
        "client_busy": 0.0,
        "bytes_moved_mb": 0.0,
    }
    server_service = _server_service(workload, config.server_slots or 1)

    transfer_s = 0.0 if config.client_cached else workload.input_mb / HTTP_BANDWIDTH_MB_S

    def choose_client() -> bool:
        """Expected-finish routing, evaluated at dispatch time."""
        if client is None:
            return False
        if server is None:
            return True
        server_backlog = server.busy + server.queued
        client_backlog = client.busy + client.queued
        server_eta = (server_backlog + 1) / config.server_slots * server_service
        client_eta = (client_backlog + 1) * max(
            workload.work_client_s, HANDOFF_CLIENT_S + transfer_s
        )
        return client_eta < server_eta

    def job():
        started = sim.now
        # Stage 1: the dispatcher picks a location (decision cost only).
        yield dispatcher.request(0.05)
        to_client = choose_client()
        if to_client:
            # Stage 2: synchronous remote handoff — the dispatcher stays
            # busy through the protocol round trips and the data push.
            state["client_jobs"] += 1
            if not config.client_cached:
                state["bytes_moved_mb"] += workload.input_mb
            yield dispatcher.request(HANDOFF_CLIENT_S + transfer_s)
        else:
            yield dispatcher.request(HANDOFF_SERVER_S)
        # DM queries (constant in all scenarios, §8.4).
        yield dm.request(DM_INTERACTION_S * 0.6)
        if to_client:
            state["client_busy"] += workload.work_client_s
            yield client.request(workload.work_client_s)
        else:
            state["server_busy"] += server_service
            yield server.request(server_service)
        # DM edits / result write-back.
        yield dm.request(DM_INTERACTION_S * 0.4)
        sojourns.record(sim.now - started)
        state["in_system"] -= 1
        state["completed"] += 1
        state["finish_time"] = sim.now

    def submitter():
        pacing = 0.98 / _capacity(workload, config) if workload.paced else 0.0
        for _index in range(workload.n_requests):
            while state["in_system"] >= PROCESSING_WINDOW:
                yield 0.5
            state["in_system"] += 1
            spawn(sim, job())
            if pacing:
                yield pacing

    spawn(sim, submitter())
    sim.run()

    duration = state["finish_time"]
    turnover = workload.total_input_mb / 1000.0 / duration * 86_400.0
    # CPU accounting: usr = analysis compute; sys = data movement + DM.
    server_cores_time = duration * SERVER_CORES
    usr_server = state["server_busy"] / server_cores_time * 100.0 if config.server_slots else 0.0
    dm_time = workload.n_requests * DM_INTERACTION_S
    moved = state["bytes_moved_mb"]
    sys_server = (dm_time + moved * SYS_FRACTION_PER_MB * 40) / server_cores_time * 100.0
    client_cores_time = duration * CLIENT_CORES
    usr_client = state["client_busy"] / client_cores_time * 100.0 if config.client_slots else 0.0
    sys_client = (moved * SYS_FRACTION_PER_MB * 30) / client_cores_time * 100.0 if config.client_slots else 0.0
    return ProcessingResult(
        workload=workload.name,
        label=config.label,
        concurrency=config.concurrency_label,
        overall_duration_s=duration,
        turnover_gb_per_day=turnover,
        avg_sojourn_s=sojourns.mean,
        sys_cpu_server_pct=sys_server,
        usr_cpu_server_pct=usr_server,
        sys_cpu_client_pct=sys_client,
        usr_cpu_client_pct=usr_client,
        queries=workload.n_requests * workload.queries_per_request,
        edits=workload.n_requests * workload.edits_per_request,
    )


def table1_imaging() -> list[ProcessingResult]:
    """All Table 1 (left) imaging configurations."""
    return [simulate_processing(IMAGING, config) for config in IMAGING_CONFIGS]


def table1_histogram() -> list[ProcessingResult]:
    """All Table 1 (right) histogram configurations."""
    return [simulate_processing(HISTOGRAM, config) for config in HISTOGRAM_CONFIGS]


def print_table1(results: list[ProcessingResult]) -> str:
    """Render one Table 1 half as the paper-style text table."""
    workload = results[0].workload
    lines = [f"Table 1 ({workload} test)"]
    header = f"{'config':>10} {'conc':>5} {'duration':>9} {'GB/day':>7} {'sojourn':>8} " \
             f"{'sysS%':>6} {'usrS%':>6} {'sysC%':>6} {'usrC%':>6}"
    lines.append(header)
    for result in results:
        lines.append(
            f"{result.label:>10} {result.concurrency:>5} "
            f"{result.overall_duration_s:>9.0f} {result.turnover_gb_per_day:>7.1f} "
            f"{result.avg_sojourn_s:>8.0f} {result.sys_cpu_server_pct:>6.1f} "
            f"{result.usr_cpu_server_pct:>6.1f} {result.sys_cpu_client_pct:>6.1f} "
            f"{result.usr_cpu_client_pct:>6.1f}"
        )
    return "\n".join(lines)
