"""§7.3 ablation — replicating the database.

"Further scalability can be achieved by replicating the database using
standard techniques."  We measure read throughput against 0, 1 and 3
log-shipped followers (reads rotate across copies; every commit ships
before it returns) and verify, by range checksums, that no follower has
diverged after a mixed workload.
"""


import pytest

from repro.metadb import (
    Column,
    ColumnType,
    Comparison,
    Database,
    Insert,
    Select,
    TableSchema,
    Update,
)
from repro.repl import ReplicaGroup

N_ROWS = 2_000
N_READS = 600


def _build(n_replicas: int) -> ReplicaGroup:
    primary = Database(name="p")
    primary.create_table(TableSchema(
        "events",
        [Column("event_id", ColumnType.INTEGER, nullable=False),
         Column("rate", ColumnType.REAL)],
        primary_key="event_id",
        indexes=[("rate",)],
    ))
    for row in range(N_ROWS):
        primary.execute(Insert("events", {"event_id": row, "rate": float(row % 97)}))
    return ReplicaGroup(primary, n_replicas=n_replicas)


def _read_sweep(replicated: ReplicaGroup) -> int:
    total = 0
    for index in range(N_READS):
        rows = replicated.execute(
            Select("events", where=Comparison("event_id", "=", index % N_ROWS))
        )
        total += len(rows)
    return total


@pytest.mark.parametrize("n_replicas", [0, 1, 3])
def test_read_path_with_replicas(benchmark, n_replicas):
    replicated = _build(n_replicas)
    total = benchmark(_read_sweep, replicated)
    assert total == N_READS
    # Reads are spread evenly across the copies.
    counts = list(replicated.reads_by_copy.values())
    assert max(counts) - min(counts) <= 1
    benchmark.extra_info["copies"] = replicated.n_copies
    benchmark.extra_info["paper_values"] = "§7.3: replicate the DB for further scaling"


def test_consistency_under_mixed_load(benchmark):
    replicated = _build(2)

    def mixed():
        for index in range(100):
            replicated.execute(
                Update("events", {"rate": float(index)},
                       Comparison("event_id", "=", index))
            )
            replicated.execute(
                Select("events", where=Comparison("rate", "=", float(index)))
            )

    benchmark.pedantic(mixed, rounds=1, iterations=1)
    assert replicated.verify() == {"p-r1": {}, "p-r2": {}}
    benchmark.extra_info["verified"] = "no follower diverged after mixed workload"
