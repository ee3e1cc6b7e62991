"""Overhead guard: the telemetry collector must stay off the hot path.

The PR-10 contract is structural — instrumented code only touches the
registry's atomic counters; ring-buffer history grows exclusively on
collector ticks, from the collector's own thread.  So a running
collector may cost the hot path only incidental interference (GIL
slices while a tick walks the registry), never per-request work.

The guard measures one hot ``metadb`` execute with the collector stopped
and again with it running at a 50 ms cadence — 20x denser than the 1 s
production default, so the budget is tested under exaggerated pressure.
Both sides use min-of-repeats (as in ``test_obs_overhead.py``): min
converges to the quiet-window time, and any repeat window that dodges a
tick shows the true per-call cost.  The budget is <5%.
"""

from __future__ import annotations

import pytest

from conftest import min_per_call
from repro.metadb import (
    Column,
    ColumnType,
    Comparison,
    Database,
    Insert,
    Select,
    TableSchema,
)
from repro.obs import Observability

N_ROWS = 300
SCAN_CALLS = 100
MAX_OVERHEAD = 0.05
COLLECTOR_INTERVAL_S = 0.05


@pytest.fixture(scope="module")
def scan_db():
    database = Database(obs=Observability(name="tsdb-bench"))
    database.create_table(TableSchema(
        "t",
        [Column("a", ColumnType.INTEGER, nullable=False),
         Column("b", ColumnType.REAL, nullable=False)],
        primary_key="a",
    ))
    for index in range(N_ROWS):
        database.execute(Insert("t", {"a": index, "b": float(index)}))
    return database


def test_collector_on_execute_overhead_under_five_percent(scan_db):
    select = Select("t", where=Comparison("b", ">=", 0.0))
    collector = scan_db.obs.collector
    assert not collector.running

    off_s = min_per_call(scan_db.execute, select, calls=SCAN_CALLS)
    collector.start(interval_s=COLLECTOR_INTERVAL_S)
    try:
        on_s = min_per_call(scan_db.execute, select, calls=SCAN_CALLS)
    finally:
        collector.stop()
    assert collector.samples > 0, "collector never ticked during the run"

    overhead = on_s / off_s - 1.0
    print(f"\nscan off {off_s * 1e6:.1f}us/call  on {on_s * 1e6:.1f}us/call  "
          f"overhead {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD


def test_hot_executes_never_write_history(scan_db):
    """The structural half of the budget: history length is a pure
    function of collector ticks, not of hot-path traffic."""
    select = Select("t", where=Comparison("b", ">=", 0.0))
    collector = scan_db.obs.collector
    collector.sample_once(now=0.0)
    series_before = len(collector.store)
    for _call in range(500):
        scan_db.execute(select)
    assert len(collector.store) == series_before
    collector.sample_once(now=1.0)
    assert len(collector.store) >= series_before


def test_one_tick_is_a_tiny_fraction_of_the_interval(scan_db):
    """A tick walks the whole registry; against the 1 s production
    cadence it must be duty-cycle noise even on a populated hub."""
    select = Select("t", where=Comparison("b", ">=", 0.0))
    for _call in range(50):                      # populate metric families
        scan_db.execute(select)
    collector = scan_db.obs.collector
    collector.sample_once(now=0.0)               # warm series allocation

    clock = {"now": 0.0}

    def tick(_arg):
        clock["now"] += 1.0
        collector.sample_once(now=clock["now"])

    tick_s = min_per_call(tick, None, calls=50)
    print(f"\ncollector tick {tick_s * 1e3:.3f}ms "
          f"({tick_s / 1.0 * 100:.3f}% of a 1 s interval)")
    assert tick_s < 0.010
