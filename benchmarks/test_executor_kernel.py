"""Executor kernel guard: a candidate row costs one Python call.

Over 300 warm HLE pages (``DataManager.fetch_page``, the §7.2 page's
seven statements as one batch) of the benchmark catalogue
(``bench/datagen.py``, seed 2003, 16 000 events) on one in-memory
``Database``, count the Python-level calls made inside
``query.execute_select`` (``sys.setprofile`` "call" events, generator
resumes included) and divide by the rows it returned.

The index scans, the row fetch, the filter and the ``SELECT *`` copy are
C-level iterators, so the one call a candidate row costs is the compiled
residual WHERE; what is left is per-statement work (flattening the
WHERE, the seek, compiling the residual) spread over the nine or so rows
a statement returns.  The row loop that resumed a generator per rowid,
called ``Table.row``, a generator filter and ``_project`` per row, and
tested again the range the index had enforced counted 10.8 calls per
returned row here; this one counts 3.1.  The bound is 4.

The count repeats exactly: no timing is involved.  Run from the
repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path
from random import Random

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


def _pages(tmp_path):
    """A seeded plain node and the HLE ids of 300 pages its user may see."""
    catalogue = datagen.make_catalogue(SEED, N_EVENTS)
    obs = Observability(name="kernel")
    database = Database(None, name="kernel", obs=obs)
    dm, user = deploy.seeded_data_manager(database, tmp_path, obs, catalogue,
                                          deploy.no_tick)
    ledger, rng = datagen.Ledger(catalogue), Random(SEED)
    return dm, user, [datagen.draw_hle_id(ledger, rng) for _ in range(N_PAGES)]


def test_a_candidate_row_costs_one_python_call(tmp_path, monkeypatch):
    dm, user, hle_ids = _pages(tmp_path)
    for hle_id in hle_ids:              # warm: every shape planned and kept
        dm.fetch_page(user, hle_id)

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
