"""Scaling projection for the sharded catalog (extends Figure 5).

The paper's Figure 5 scales the *middle tier* and observes the shared
DBMS saturate — "the bottleneck becomes the database".  The
:mod:`repro.shard` subsystem removes that wall by partitioning the
catalog itself, so this model extends the browsing simulation with a
partitioned DBMS tier and answers the question the paper leaves open:
how far does the three-tier design carry once the catalog shards?

Two instruments, cross-validated in the tests:

* :func:`simulate_sharded_browsing` — the discrete-event model of
  browsing (closed-loop clients, processor-sharing middle tier) with the
  single FCFS "dbms" station replaced by ``n_shards`` independent
  stations.  A *pruned* query (fraction ``pruned_fraction``, measured
  from the router's route counters) visits one shard at full service
  time; an unpruned query scatter-gathers across all shards, each
  branch costing the fixed overhead plus ``1/S`` of the work.
* :func:`project_scaling` — the closed-form counterpart: per-request
  shard load under the same routing mix, capacity in requests/second,
  and the supported *registered user population* under the standard
  think-time/activity assumptions.  This is what carries the curve to
  millions of users without simulating millions of processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..simkit import FcfsServer, ProcessorSharing, Simulator, Tally, scatter_gather, spawn
from .calibration import (
    CPU_BASE_S,
    CPU_PER_CLIENT_S,
    DB_QUERIES_PER_SECOND,
    QUERIES_PER_REQUEST,
)

#: Fraction of page queries the router resolves to a single shard.  The
#: HLE detail page issues seven queries: the point lookups and the
#: time-window neighbour scan prune to one shard once shards are
#: day-scale; the catalog joins and rate-band scans scatter.  Measured
#: route counters (tests) land near this default.
DEFAULT_PRUNED_FRACTION = 0.6

#: Per-branch fixed cost of a scatter query, as a fraction of the full
#: single-node service time: statement dispatch, predicate re-parse and
#: merge bookkeeping that does not shrink when the data volume per shard
#: does.
SCATTER_FIXED_FRACTION = 0.1

#: Standard population assumptions for converting a sustained request
#: rate into a registered user population: a browsing scientist clicks
#: every ~30 s, and ~1% of registered users are active at a time.
THINK_TIME_S = 30.0
ACTIVE_FRACTION = 0.01


def _scatter_service_fraction(n_shards: int,
                              fixed_fraction: float = SCATTER_FIXED_FRACTION) -> float:
    """Per-shard service time of a scatter query, relative to single-node."""
    return fixed_fraction + (1.0 - fixed_fraction) / n_shards


@dataclass(frozen=True)
class ShardedBrowsingResult:
    """Measured outcome of one simulated sharded configuration."""

    n_clients: int
    n_middle_tier: int
    n_shards: int
    pruned_fraction: float
    throughput_rps: float      # completed web requests / second
    db_queries_per_s: float    # logical queries (scatter counts once)
    avg_response_s: float
    middle_tier_utilization: float
    shard_utilization: float   # mean busy fraction across shards
    max_shard_utilization: float


def simulate_sharded_browsing(
    n_clients: int,
    n_middle_tier: int = 1,
    n_shards: int = 1,
    pruned_fraction: float = DEFAULT_PRUNED_FRACTION,
    scatter_fixed_fraction: float = SCATTER_FIXED_FRACTION,
    duration_s: float = 400.0,
    warmup_s: float = 50.0,
    seed: int = 0,
) -> ShardedBrowsingResult:
    """Simulate one (clients, nodes, shards) configuration.

    With ``n_shards=1`` every query is a single full-cost visit to the
    one shared DBMS: that is the paper's testbed, and
    :func:`~repro.evalmodel.browsing.simulate_browsing` is this model
    with one shard.
    """
    if n_clients < 1 or n_middle_tier < 1 or n_shards < 1:
        raise ValueError("need at least one client, node and shard")
    if not 0.0 <= pruned_fraction <= 1.0:
        raise ValueError("pruned_fraction must be within [0, 1]")
    sim = Simulator()
    shards = [
        FcfsServer(sim, servers=1, name=f"shard{index}") for index in range(n_shards)
    ]
    nodes = [
        ProcessorSharing(sim, cores=1, speed=1.0, name=f"app{node}")
        for node in range(n_middle_tier)
    ]
    clients_per_node = [
        n_clients // n_middle_tier + (1 if node < n_clients % n_middle_tier else 0)
        for node in range(n_middle_tier)
    ]
    full_service = 1.0 / DB_QUERIES_PER_SECOND
    scatter_service = full_service * _scatter_service_fraction(
        n_shards, scatter_fixed_fraction
    )
    rng = random.Random(seed)
    response_times = Tally()
    completions = {"after_warmup": 0}

    def client_loop(node_index: int):
        node = nodes[node_index]
        cpu_demand = CPU_BASE_S + CPU_PER_CLIENT_S * clients_per_node[node_index]
        while True:
            started = sim.now
            yield node.service(cpu_demand)
            for _query in range(QUERIES_PER_REQUEST):
                if n_shards == 1:
                    yield shards[0].request(full_service)
                elif rng.random() < pruned_fraction:
                    # Pruned: the router touched exactly one shard.
                    yield rng.choice(shards).request(full_service)
                else:
                    # Scatter-gather: all shards in parallel, resume on
                    # the slowest branch.
                    yield scatter_gather(shards, scatter_service)
            elapsed = sim.now - started
            if sim.now > warmup_s:
                completions["after_warmup"] += 1
                response_times.record(elapsed)

    for node_index, count in enumerate(clients_per_node):
        for _client in range(count):
            spawn(sim, client_loop(node_index))
    sim.run(until=duration_s)

    window = duration_s - warmup_s
    throughput = completions["after_warmup"] / window
    utilizations = [shard.busy_time / duration_s for shard in shards]
    return ShardedBrowsingResult(
        n_clients=n_clients,
        n_middle_tier=n_middle_tier,
        n_shards=n_shards,
        pruned_fraction=pruned_fraction,
        throughput_rps=throughput,
        db_queries_per_s=throughput * QUERIES_PER_REQUEST,
        avg_response_s=response_times.mean,
        middle_tier_utilization=sum(node.busy_time for node in nodes)
        / (duration_s * len(nodes)),
        shard_utilization=sum(utilizations) / n_shards,
        max_shard_utilization=max(utilizations),
    )


def figure5_sharded_series(
    shard_counts: tuple[int, ...] = (1, 4, 16),
    n_clients: int = 96,
    n_middle_tier: int = 5,
    pruned_fraction: float = DEFAULT_PRUNED_FRACTION,
    duration_s: float = 400.0,
) -> list[ShardedBrowsingResult]:
    """Figure 5 extended: throughput versus catalog shards.

    The paper's series stops where five middle-tier nodes saturate the
    one shared database; this holds the middle tier at that saturating
    configuration and grows the database tier instead.
    """
    return [
        simulate_sharded_browsing(
            n_clients,
            n_middle_tier=n_middle_tier,
            n_shards=n_shards,
            pruned_fraction=pruned_fraction,
            duration_s=duration_s,
        )
        for n_shards in shard_counts
    ]


@dataclass(frozen=True)
class ScalingProjection:
    """Closed-form capacity of one sharded configuration."""

    n_shards: int
    pruned_fraction: float
    #: Expected shard-seconds of service per web request (the bottleneck
    #: shard's load under even spread).
    shard_load_per_request_s: float
    capacity_rps: float        # sustainable web requests / second
    users_supported: int       # registered users at the standard activity mix
    replicas_per_shard: int = 1
    #: Read copies a shard effectively fields once replication losses
    #: (staleness skips, failover blips, shipping overhead) are charged.
    effective_copies: float = 1.0


def replica_efficiency(
    stale_skip_fraction: float = 0.0,
    failover_blip_s: float = 0.0,
    mtbf_s: float = float("inf"),
    ship_overhead_fraction: float = 0.0,
) -> float:
    """Fraction of a follower's nominal read capacity actually usable.

    The replica group (:mod:`repro.repl`) does not deliver a full extra
    copy of read capacity per follower; three measured costs shave it:

    * ``stale_skip_fraction`` — share of read attempts that skip a
      follower because its lag exceeds ``max_lag`` (the bounded-staleness
      contract): from the ``repl.stale_skips`` counter over total reads.
    * ``failover_blip_s`` / ``mtbf_s`` — when a copy dies, reads retry
      against the next copy; the blip (measured by the ``repl``
      benchmark) times the failure rate is capacity lost to re-routing.
    * ``ship_overhead_fraction`` — the primary spends this fraction of
      its write budget appending to the replication log and shipping
      (guarded < 5% by ``benchmarks/test_resil_overhead.py``), which
      contends with reads on the same copy.

    All defaults are zero, i.e. a perfectly efficient follower.
    """
    if not 0.0 <= stale_skip_fraction <= 1.0:
        raise ValueError("stale_skip_fraction must be within [0, 1]")
    if failover_blip_s < 0.0 or mtbf_s <= 0.0:
        raise ValueError("failover_blip_s must be >= 0 and mtbf_s > 0")
    if not 0.0 <= ship_overhead_fraction <= 1.0:
        raise ValueError("ship_overhead_fraction must be within [0, 1]")
    unavailable = failover_blip_s / mtbf_s if mtbf_s != float("inf") else 0.0
    efficiency = (
        (1.0 - stale_skip_fraction)
        * (1.0 - min(1.0, unavailable))
        * (1.0 - ship_overhead_fraction)
    )
    return max(0.0, min(1.0, efficiency))


def project_scaling(
    n_shards: int,
    pruned_fraction: float = DEFAULT_PRUNED_FRACTION,
    scatter_fixed_fraction: float = SCATTER_FIXED_FRACTION,
    replicas_per_shard: int = 1,
    replica_read_efficiency: float = 1.0,
    think_time_s: float = THINK_TIME_S,
    active_fraction: float = ACTIVE_FRACTION,
) -> ScalingProjection:
    """Project the supported user population for ``n_shards``.

    Per web request, each shard serves ``7 * (p/S + (1-p) * (f + (1-f)/S))``
    query-equivalents: pruned queries spread ``1/S`` of their full cost
    onto a given shard, scatter queries put their (shrunken) per-branch
    cost on *every* shard.  Capacity is where the busiest shard reaches
    100%; the user population follows from one click per ``think_time_s``
    by the ``active_fraction`` of registered users.

    ``replicas_per_shard`` copies multiply read capacity, discounted by
    ``replica_read_efficiency`` (see :func:`replica_efficiency`): the
    primary always counts as one full copy; each follower contributes
    ``efficiency`` of a copy.  The default efficiency of 1.0 reproduces
    the pre-replication-aware projection exactly.
    """
    if n_shards < 1 or replicas_per_shard < 1:
        raise ValueError("need at least one shard and one replica")
    if not 0.0 <= replica_read_efficiency <= 1.0:
        raise ValueError("replica_read_efficiency must be within [0, 1]")
    full_service = 1.0 / DB_QUERIES_PER_SECOND
    scatter_per_shard = full_service * _scatter_service_fraction(
        n_shards, scatter_fixed_fraction
    )
    per_shard_load = QUERIES_PER_REQUEST * (
        pruned_fraction * full_service / n_shards
        + (1.0 - pruned_fraction) * scatter_per_shard
    )
    effective_copies = 1.0 + (replicas_per_shard - 1) * replica_read_efficiency
    capacity = effective_copies / per_shard_load
    active_rps_per_user = active_fraction / think_time_s
    return ScalingProjection(
        n_shards=n_shards,
        pruned_fraction=pruned_fraction,
        shard_load_per_request_s=per_shard_load,
        capacity_rps=capacity,
        users_supported=int(capacity / active_rps_per_user),
        replicas_per_shard=replicas_per_shard,
        effective_copies=effective_copies,
    )


def scaling_series(
    shard_counts: tuple[int, ...] = (1, 4, 16, 64, 256),
    pruned_fraction: float = DEFAULT_PRUNED_FRACTION,
    replicas_per_shard: int = 1,
) -> list[ScalingProjection]:
    """The projection swept to population scale (§1's "millions of
    users of the WWW" ambition, quantified)."""
    return [
        project_scaling(n_shards, pruned_fraction=pruned_fraction,
                        replicas_per_shard=replicas_per_shard)
        for n_shards in shard_counts
    ]


def print_sharded_figure5(results: list[ShardedBrowsingResult]) -> str:
    """Render the sharded Figure 5 extension as a paper-style table."""
    lines = ["Figure 5 (extended) - browse throughput vs catalog shards"]
    lines.append(
        f"{'shards':>7} {'req/s':>8} {'db q/s':>8} {'resp s':>8} "
        f"{'shard%':>7} {'max%':>6}"
    )
    for result in results:
        lines.append(
            f"{result.n_shards:>7} {result.throughput_rps:>8.1f} "
            f"{result.db_queries_per_s:>8.1f} {result.avg_response_s:>8.2f} "
            f"{result.shard_utilization * 100:>7.0f} "
            f"{result.max_shard_utilization * 100:>6.0f}"
        )
    return "\n".join(lines)


def print_scaling_projection(results: list[ScalingProjection]) -> str:
    """Render the analytic projection: shards to supported users."""
    lines = ["Projected catalog capacity vs shards "
             f"(think {THINK_TIME_S:.0f}s, {ACTIVE_FRACTION:.0%} active)"]
    lines.append(f"{'shards':>7} {'cap req/s':>10} {'users':>12}")
    for result in results:
        lines.append(
            f"{result.n_shards:>7} {result.capacity_rps:>10.1f} "
            f"{result.users_supported:>12,}"
        )
    return "\n".join(lines)
