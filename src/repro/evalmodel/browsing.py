"""Discrete-event model of the web-browsing testbed (paper §7).

Closed-loop clients with zero think time cycle through: middle-tier CPU
work (processor sharing; per-request demand grows with the node's
connected-client count) followed by seven database queries (FCFS at the
shared DBMS).  Clients are spread evenly over the middle-tier nodes
(§7.2: "If multiple servers are used, the client requests are spread
evenly").

``simulate_browsing`` returns throughput and utilisation for one
configuration; :func:`figure4_series` and :func:`figure5_series` sweep
the paper's x-axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simkit import FcfsServer, ProcessorSharing, Simulator, Tally, spawn
from .calibration import (
    CPU_BASE_S,
    CPU_PER_CLIENT_S,
    DB_QUERIES_PER_SECOND,
    QUERIES_PER_REQUEST,
)


@dataclass(frozen=True)
class BrowsingResult:
    """Measured outcome of one simulated configuration."""

    n_clients: int
    n_middle_tier: int
    throughput_rps: float      # completed web requests / second
    db_queries_per_s: float
    avg_response_s: float
    middle_tier_utilization: float
    db_utilization: float


def simulate_browsing(
    n_clients: int,
    n_middle_tier: int = 1,
    duration_s: float = 400.0,
    warmup_s: float = 50.0,
) -> BrowsingResult:
    """Simulate one (clients, middle-tier nodes) configuration."""
    if n_clients < 1 or n_middle_tier < 1:
        raise ValueError("need at least one client and one middle-tier node")
    sim = Simulator()
    dbms = FcfsServer(sim, servers=1, name="dbms")
    nodes = [
        ProcessorSharing(sim, cores=1, speed=1.0, name=f"app{node}")
        for node in range(n_middle_tier)
    ]
    clients_per_node = [
        n_clients // n_middle_tier + (1 if node < n_clients % n_middle_tier else 0)
        for node in range(n_middle_tier)
    ]
    query_service = 1.0 / DB_QUERIES_PER_SECOND
    response_times = Tally()   # one sample per request completed after warm-up

    def client_loop(node_index: int):
        node = nodes[node_index]
        cpu_demand = CPU_BASE_S + CPU_PER_CLIENT_S * clients_per_node[node_index]
        while True:
            started = sim.now
            yield node.service(cpu_demand)
            for _query in range(QUERIES_PER_REQUEST):
                yield dbms.request(query_service)
            if sim.now > warmup_s:
                response_times.record(sim.now - started)

    for node_index, count in enumerate(clients_per_node):
        for _client in range(count):
            spawn(sim, client_loop(node_index))
    sim.run(until=duration_s)

    throughput = response_times.count / (duration_s - warmup_s)
    return BrowsingResult(
        n_clients=n_clients,
        n_middle_tier=n_middle_tier,
        throughput_rps=throughput,
        db_queries_per_s=throughput * QUERIES_PER_REQUEST,
        avg_response_s=response_times.mean,
        middle_tier_utilization=sum(node.busy_time for node in nodes)
        / (duration_s * len(nodes)),
        db_utilization=dbms.busy_time / duration_s,
    )


def figure4_series(
    client_counts: tuple[int, ...] = (16, 32, 48, 64, 80, 96),
    duration_s: float = 400.0,
) -> list[BrowsingResult]:
    """Figure 4: browse throughput versus number of clients, one node."""
    return [
        simulate_browsing(n_clients, n_middle_tier=1, duration_s=duration_s)
        for n_clients in client_counts
    ]


def figure5_series(
    node_counts: tuple[int, ...] = (1, 2, 3, 5),
    n_clients: int = 96,
    duration_s: float = 400.0,
) -> list[BrowsingResult]:
    """Figure 5: throughput versus middle-tier nodes at 96 clients."""
    return [
        simulate_browsing(n_clients, n_middle_tier=n_nodes, duration_s=duration_s)
        for n_nodes in node_counts
    ]


def print_figure4(results: list[BrowsingResult]) -> str:
    """Render the Figure 4 series as the paper-style text table."""
    lines = ["Figure 4 - browse throughput vs clients (single middle-tier server)"]
    lines.append(f"{'clients':>8} {'req/s':>8} {'db q/s':>8} {'resp s':>8} {'cpu%':>6} {'db%':>6}")
    for result in results:
        lines.append(
            f"{result.n_clients:>8} {result.throughput_rps:>8.1f} "
            f"{result.db_queries_per_s:>8.1f} {result.avg_response_s:>8.2f} "
            f"{result.middle_tier_utilization * 100:>6.0f} {result.db_utilization * 100:>6.0f}"
        )
    return "\n".join(lines)


def print_figure5(results: list[BrowsingResult]) -> str:
    """Render the Figure 5 series as the paper-style text table."""
    lines = ["Figure 5 - browse throughput vs middle-tier servers (96 clients)"]
    lines.append(f"{'nodes':>6} {'req/s':>8} {'db q/s':>8} {'resp s':>8} {'db%':>6}")
    for result in results:
        lines.append(
            f"{result.n_middle_tier:>6} {result.throughput_rps:>8.1f} "
            f"{result.db_queries_per_s:>8.1f} {result.avg_response_s:>8.2f} "
            f"{result.db_utilization * 100:>6.0f}"
        )
    return "\n".join(lines)
