"""Overhead guard: default-off diagnostics must stay out of the hot path.

The deep-diagnostics layer (event log, slow log, sampling profiler) is
wired through every tier, but with no thresholds configured, tracing off
and the profiler stopped its entire hot-path footprint on ``metadb``
execute is one ``threshold_for`` dict lookup plus the pre-existing
``enabled`` check.  The wiring budget is <5% of one hot execute.

A direct wall-clock A/B of two full execute loops is too noisy on shared
runners (block-to-block variance alone exceeds the budget), so — exactly
like ``test_resil_overhead.py`` — the guard measures the two quantities
that make up the ratio separately, each the stable way:

* the per-call cost of one hot-path ``execute`` (min-of-repeats over a
  few-hundred-row scan — min converges to the quiet-window time);
* the per-call cost of the disabled diagnostic checks, measured as the
  delta between a checking and a bare trivial callable in tight loops.

The assertion is ``diagnostic_cost / scan_cost < 5%``.
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
CHECK_CALLS = 50_000
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def scan_db():
    # Default hub: tracing off, no slow thresholds, profiler stopped —
    # the configuration every production-path caller sees by default.
    database = Database(obs=Observability())
    database.create_table(TableSchema(
        "t",
        [Column("a", ColumnType.INTEGER, nullable=False),
         Column("b", ColumnType.REAL, nullable=False)],
        primary_key="a",
    ))
    for index in range(N_ROWS):
        database.execute(Insert("t", {"a": index, "b": float(index)}))
    return database


def test_default_off_diagnostics_overhead_under_five_percent(scan_db):
    select = Select("t", where=Comparison("b", ">=", 0.0))
    scan_s = min_per_call(scan_db.execute, select, calls=SCAN_CALLS)

    obs = scan_db.obs
    assert obs.slowlog.threshold_for("metadb.execute") is None
    assert not obs.enabled and not obs.profiler.running

    def bare(_x):
        return None

    def checking(_x):
        # The exact per-call guard Database.execute runs when everything
        # is off: one threshold lookup and the enabled flag.
        if not obs.enabled and obs.slowlog.threshold_for("metadb.execute") is None:
            return None

    bare_s = min_per_call(bare, 1, calls=CHECK_CALLS)
    checking_s = min_per_call(checking, 1, calls=CHECK_CALLS)
    check_s = checking_s - bare_s

    overhead = check_s / scan_s
    print(f"\nscan {scan_s * 1e6:.1f}us/call  diag-check {check_s * 1e6:.3f}us/call  "
          f"overhead {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD


def test_disabled_event_log_emit_is_cheap():
    """A disabled event log must cost ~nothing per emit call — resil
    breakers and fault points call it unconditionally."""
    from repro.obs.events import EventLog

    log = EventLog()
    log.enabled = False

    def bare(_x):
        return None

    def emitting(_x):
        log.emit("info", "bench", "noop", "disabled emit")

    bare_s = min_per_call(bare, 1, calls=100_000)
    emitting_s = min_per_call(emitting, 1, calls=100_000)
    # Sub-microsecond per call: bounds it from becoming accidentally
    # expensive (lock acquisition, field dict builds) when switched off.
    per_call_us = (emitting_s - bare_s) * 1e6
    print(f"\ndisabled emit cost: {per_call_us:.3f}us/call")
    assert per_call_us < 1.0


def test_hot_path_results_identical_with_diagnostics_armed(scan_db):
    """Arming the slow log must not change what execute returns."""
    select = Select("t", where=Comparison("b", ">=", 0.0))
    raw_rows = scan_db.execute(select)
    scan_db.obs.slowlog.configure("metadb.execute", 10.0)  # never trips
    try:
        armed_rows = scan_db.execute(select)
    finally:
        scan_db.obs.slowlog.configure("metadb.execute", None)
    assert len(armed_rows) == N_ROWS
    assert armed_rows == raw_rows
