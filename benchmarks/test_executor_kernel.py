"""Executor kernel guards: a candidate row costs one Python call, and a
``SELECT *`` row is handed out, not copied.

Over 300 warm HLE pages (``DataManager.fetch_page``, the §7.2 page's
seven statements as one batch) of the benchmark catalogue
(``bench/datagen.py``, seed 2003, 16 000 events) on one in-memory
``Database``, two counts are taken inside ``query.execute_select``.

**Calls.**  The Python-level calls it makes (``sys.setprofile`` "call"
events, generator resumes included), divided by the rows it returned.
The index scans, the row fetch and the filter are C-level iterators, so
the one call a candidate row costs is the compiled residual WHERE; what
is left is per-statement work (flattening the WHERE, the seek, compiling
the residual) spread over the nine or so rows a statement returns.  The
row loop that resumed a generator per rowid, called ``Table.row``, a
generator filter and ``_project`` per row, and tested again the range
the index had enforced counted 10.8 calls per returned row here; with
the WHERE flattened in one call and a seek's stored type read from the
schema's column plan, 2.8.  The bound is 4.

**Bytes.**  What ``tracemalloc`` sees the call allocate at its peak,
above what was allocated when it began, per row a ``SELECT *``
statement returned.  A row is a read-only view of the stored row: the
result list's slot and the view, with the statement's transient lists,
come to about 140 B a row.  A copy of each row (``map(dict, rows)``; a
26-column ``hle`` row is about 1.2 kB) read 930 B.  The bound is 200 B.

Both counts repeat exactly: no timing is involved.  Run from the
repository root.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from repro.metadb import database as database_module
from repro.metadb.database import Database
from repro.obs import Observability

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import datagen  # noqa: E402
import deploy  # noqa: E402

SEED = 2003
N_EVENTS = 16_000
N_PAGES = 300
MAX_CALLS_PER_ROW = 4.0
MAX_BYTES_PER_STAR_ROW = 200


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A seeded plain node, its user and the HLE ids of 300 pages it may
    see, each page fetched once: every shape planned and kept."""
    catalogue = datagen.make_catalogue(SEED, N_EVENTS)
    obs = Observability(name="kernel")
    database = Database(None, name="kernel", obs=obs)
    dm, user = deploy.seeded_data_manager(
        database, tmp_path_factory.mktemp("kernel"), obs, catalogue, deploy.no_tick)
    ledger, rng = datagen.Ledger(catalogue), Random(SEED)
    hle_ids = [datagen.draw_hle_id(ledger, rng) for _ in range(N_PAGES)]
    for hle_id in hle_ids:
        dm.fetch_page(user, hle_id)
    return dm, user, hle_ids


def test_a_candidate_row_costs_one_python_call(warm, monkeypatch):
    dm, user, hle_ids = warm
    real = database_module.execute_select
    calls = rows = statements = 0

    def counted(*args, **kwargs):
        nonlocal calls, rows, statements
        seen = 0

        def profile(_frame, event, _arg):
            nonlocal seen
            if event == "call":
                seen += 1
        sys.setprofile(profile)
        try:
            result = real(*args, **kwargs)
        finally:
            sys.setprofile(None)
        calls, rows, statements = calls + seen, rows + len(result), statements + 1
        return result

    monkeypatch.setattr(database_module, "execute_select", counted)
    for hle_id in hle_ids:
        dm.fetch_page(user, hle_id)

    per_row = calls / rows
    print(f"\n{statements} statements, {rows} rows, {calls} calls: "
          f"{per_row:.2f} calls per returned row")
    assert statements == 7 * N_PAGES
    assert per_row <= MAX_CALLS_PER_ROW, per_row


def test_a_select_star_row_is_not_copied(warm, monkeypatch):
    dm, user, hle_ids = warm
    real = database_module.execute_select
    allocated = rows = statements = 0

    def measured(tables, select, plan=None):
        nonlocal allocated, rows, statements
        if select.columns or select.aggregates:
            return real(tables, select, plan=plan)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = real(tables, select, plan=plan)
        allocated += tracemalloc.get_traced_memory()[1] - before
        rows, statements = rows + len(result), statements + 1
        return result

    monkeypatch.setattr(database_module, "execute_select", measured)
    tracemalloc.start()
    try:
        for hle_id in hle_ids:
            dm.fetch_page(user, hle_id)
    finally:
        tracemalloc.stop()

    per_row = allocated / rows
    print(f"\n{statements} SELECT * statements, {rows} rows, {allocated} B: "
          f"{per_row:.0f} B per returned row")
    assert rows > N_PAGES
    assert per_row <= MAX_BYTES_PER_STAR_ROW, per_row
