"""Overhead guards: resilience wiring must stay out of the hot path.

A direct wall-clock A/B of two loops is too noisy on shared runners
(block-to-block variance alone exceeds a 5% budget), so each guard
measures the two quantities that make up its ratio separately, each as
a min-of-repeats per-call cost (min converges to the quiet-window time):

* the replication commit hook against the journaled write it rides;
* the module-level ``fire()`` fault point, armed with nothing, against
  an empty call.
"""

from __future__ import annotations

import time

from conftest import min_per_call
from repro.metadb import Column, ColumnType, Database, Insert, TableSchema

REPEATS = 9
MAX_OVERHEAD = 0.05


def test_log_shipping_hook_overhead_under_five_percent(tmp_path):
    """The replication commit hook (append to the in-memory log, update
    the head-LSN gauge) must cost <5% of the hot write it piggybacks on.
    The baseline write is journaled: log shipping replicates the durable
    WAL, so the write it rides always pays for journaling.  Shipping
    itself is excluded: applying the write on a follower is the work
    replication exists to do, not wiring overhead."""
    from repro.repl import ReplicaGroup

    writer = Database(path=tmp_path / "writer", name="bench-writer")
    writer.create_table(TableSchema(
        "t",
        [Column("a", ColumnType.INTEGER, nullable=False),
         Column("b", ColumnType.REAL, nullable=False)],
        primary_key="a",
    ))
    next_key = iter(range(10_000_000)).__next__

    def hot_write(_arg):
        key = next_key()
        writer.execute(Insert("t", {"a": key, "b": float(key)}))

    write_s = min_per_call(hot_write, 1, calls=2_000)

    group = ReplicaGroup(name="bench-hook", auto_ship=False)
    redo = [{"op": "insert", "table": "t", "rowid": 1,
             "row": {"a": 1, "b": 1.0}}]
    group._on_primary_commit(1, redo)  # warm (gauge handle, bytecode)
    hook_calls = 2_000  # below the log's retention cap per block
    best = float("inf")
    for _repeat in range(REPEATS):
        group.log.truncate_to(group.log.head_lsn)  # no eviction in-loop
        started = time.perf_counter()
        for _call in range(hook_calls):
            group._on_primary_commit(1, redo)
        best = min(best, time.perf_counter() - started)
    hook_s = best / hook_calls

    overhead = hook_s / write_s
    print(f"\nwrite {write_s * 1e6:.1f}us/call  hook {hook_s * 1e6:.2f}us/call  "
          f"overhead {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD


def test_fire_is_noop_with_no_points_armed():
    """The module-level fire() helper must cost ~nothing when no chaos
    scenario is active — it guards every metadb statement."""
    from repro.resil.faults import fire

    def bare(_x):
        return None

    def firing(_x):
        fire("metadb.statement")

    bare_s = min_per_call(bare, 1, calls=100_000)
    firing_s = min_per_call(firing, 1, calls=100_000)
    # Sub-microsecond per call: just bounds it from becoming accidentally
    # expensive (an RNG draw, a lock) rather than asserting exact cost.
    per_call_us = (firing_s - bare_s) * 1e6
    print(f"\nfire() disabled cost: {per_call_us:.3f}us/call")
    assert per_call_us < 1.0
