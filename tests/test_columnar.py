"""Columnar segments and the vectorized executor.

The load-bearing property is *differential equivalence*: against a twin
table declared ``columnar=False`` and holding the same rows, every query
must return byte-identical rows, order and aggregates — the columnar
copy is an access path, never a semantics change.  The suite drives randomized
predicates over a seeded schema (single-node and sharded), the NULL and
LIKE edge cases that bit the row path historically, zone-map pruning,
epoch-based rebuild after mutations, and the bulk-delete statistics
regression.
"""

from __future__ import annotations

import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadb import (
    Aggregate,
    And,
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    Delete,
    In,
    Insert,
    IsNull,
    Like,
    Not,
    Or,
    Select,
    TableSchema,
    Update,
    partitioned,
)
from repro.metadb import query as query_module
from repro.metadb.columnar import SEGMENT_ROWS
from repro.metadb.query import COLUMNAR_MIN_ROWS
from repro.metadb.storage import Table

from .oracle_ordering import ordered

N_ROWS = SEGMENT_ROWS + 2000  # two segments, second partial
KINDS = ["flare", "quiet", "storm", "abc\n", "ab%c"]


def events_schema(columnar: bool = True) -> TableSchema:
    return TableSchema(
        "ev",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("kind", ColumnType.TEXT),          # low-card -> dictionary
            Column("comment", ColumnType.TEXT),       # high-card -> object
            Column("val", ColumnType.REAL),
            Column("n", ColumnType.INTEGER),
            Column("flag", ColumnType.BOOLEAN),
            Column("at", ColumnType.TIMESTAMP),
        ],
        primary_key="id",
        indexes=[("val",), ("kind",)],
        columnar=columnar,
    )


def seed_rows(n: int = N_ROWS, seed: int = 11) -> list[dict]:
    """Deterministic rows: dyadic rationals for REAL (so vectorized and
    sequential summation agree bit for bit) and NULLs in every column."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append({
            "id": i,
            "kind": rng.choice(KINDS) if rng.random() > 0.1 else None,
            "comment": f"note-{rng.randrange(10_000)}" if rng.random() > 0.1 else None,
            "val": rng.randint(0, 4000) / 4 if rng.random() > 0.1 else None,
            "n": rng.randint(0, 100) if rng.random() > 0.05 else None,
            "flag": rng.random() > 0.5 if rng.random() > 0.1 else None,
            "at": float(rng.randrange(0, 1_000_000)) if rng.random() > 0.1 else None,
        })
    return rows


@pytest.fixture(scope="module")
def big_db() -> Database:
    db = Database(name="colm")
    db.create_table(events_schema())
    for row in seed_rows():
        db.execute(Insert("ev", row))
    return db


#: db -> (mutation epoch of its ``ev`` when copied, the twin); an entry
#: goes with its database, so a later one at the same address starts clean.
_ROW_TWINS: "weakref.WeakKeyDictionary[Database, tuple[int, Database]]" = (
    weakref.WeakKeyDictionary())


def row_twin(db: Database) -> Database:
    """The row path's oracle: a twin of ``db`` whose ``ev`` is declared
    ``columnar=False`` and holds the same rows in the same iteration
    order.  Rebuilt only after ``db`` mutated."""
    source = db.table("ev")
    epoch, twin = _ROW_TWINS.get(db, (None, None))
    if epoch != source.mutation_epoch:
        twin = Database(name=f"{db.name}-rows")
        twin.create_table(events_schema(columnar=False))
        for row in source.rows():
            twin.execute(Insert("ev", dict(row)))
        _ROW_TWINS[db] = (source.mutation_epoch, twin)
    return twin


def both_paths(db: Database, select: Select):
    """(columnar_result, row_result) for the same statement."""
    vectorized = db.execute(select)
    twin = row_twin(db)
    assert twin.explain_plan(select)["access"] != "columnar_scan"
    return vectorized, twin.execute(select)


def multiset(rows) -> list[str]:
    return sorted(repr(sorted(row.items())) for row in rows)


def assert_equivalent(db: Database, select: Select) -> None:
    """Columnar ≡ row path: exact (order included) under ORDER BY, as
    multisets otherwise — unordered output order is unspecified and the
    row path may legally stream from an index in key order."""
    vectorized, row = both_paths(db, select)
    if select.order_by or select.aggregates:
        assert vectorized == row
    else:
        assert multiset(vectorized) == multiset(row)


def random_predicate(rng: random.Random, depth: int = 0):
    choices = ["cmp", "between", "in", "like", "isnull"]
    if depth < 2:
        choices += ["and", "or", "not"]
    pick = rng.choice(choices)
    if pick == "cmp":
        column, value = rng.choice([
            ("kind", rng.choice(KINDS + ["zzz", "abc"])),
            ("comment", f"note-{rng.randrange(10_000)}"),
            ("val", rng.randint(0, 4000) / 4),
            ("n", rng.randint(0, 100)),
            ("flag", rng.random() > 0.5),
            ("at", float(rng.randrange(0, 1_000_000))),
            ("id", rng.randrange(N_ROWS)),
        ])
        return Comparison(column, rng.choice(["=", "!=", "<", "<=", ">", ">="]), value)
    if pick == "between":
        low = rng.randint(0, 3000) / 4
        return Between("val", low, low + rng.randint(0, 2000) / 4)
    if pick == "in":
        return In("kind", rng.sample(KINDS + ["zzz"], rng.randint(1, 3)))
    if pick == "like":
        column = rng.choice(["kind", "comment"])
        pattern = rng.choice(["fla%", "%c", "abc_", "abc%", "%o%", "note-1%", "q__et"])
        return Like(column, pattern)
    if pick == "isnull":
        return IsNull(rng.choice(["kind", "val", "n", "flag"]),
                      negated=rng.random() > 0.5)
    if pick == "not":
        return Not(random_predicate(rng, depth + 1))
    parts = [random_predicate(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return And(parts) if pick == "and" else Or(parts)


class TestPlanChoice:
    def test_full_sweep_takes_columnar_scan(self, big_db):
        plan = big_db.explain_plan(Select("ev", where=Comparison("n", ">=", 0)))
        assert plan["access"] == "columnar_scan"
        assert plan["segments_total"] == 2
        assert "COLUMNAR SCAN" in plan["description"]

    def test_selective_index_still_wins(self, big_db):
        plan = big_db.explain_plan(Select("ev", where=Comparison("id", "=", 17)))
        assert plan["access"] == "pk_probe"
        plan = big_db.explain_plan(
            Select("ev", where=Between("val", 10.0, 10.5))
        )
        assert plan["access"] == "range_scan"

    def test_small_tables_stay_row_oriented(self):
        db = Database(name="small")
        db.create_table(events_schema())
        for row in seed_rows(COLUMNAR_MIN_ROWS - 1, seed=3):
            db.execute(Insert("ev", row))
        plan = db.explain_plan(Select("ev", where=Comparison("n", ">", 5)))
        assert plan["access"] == "full_scan"

    def test_bounded_ordered_fallback_beats_columnar(self, big_db):
        plan = big_db.explain_plan(
            Select("ev", order_by=[("val", "asc")], limit=5)
        )
        assert plan["access"] == "range_scan"
        assert plan["ordered"] is True

    def test_zone_maps_prune_segments(self, big_db):
        # id is insertion-ordered, so the first segment's zone map
        # excludes predicates anchored past SEGMENT_ROWS.
        plan = big_db.explain_plan(
            Select("ev", where=Comparison("id", ">", SEGMENT_ROWS + 100))
        )
        assert plan["access"] == "columnar_scan"
        assert plan["segments_pruned"] == 1
        rows, expected = both_paths(
            big_db, Select("ev", where=Comparison("id", ">", SEGMENT_ROWS + 100))
        )
        assert rows == expected

    def test_access_path_and_columnar_counters(self, big_db):
        big_db.execute(Select("ev", where=Comparison("n", ">=", 0)))
        counter = big_db.obs.counter(
            "metadb.access_path", db=big_db.name, access="columnar_scan"
        )
        assert counter.value >= 1
        scanned = big_db.obs.counter(
            "metadb.columnar.segments_scanned", db=big_db.name
        )
        assert scanned.value >= 2


class TestDifferentialRandomized:
    def test_random_filters_match_row_path(self, big_db):
        rng = random.Random(4000)
        for _ in range(60):
            assert_equivalent(big_db, Select("ev", where=random_predicate(rng)))

    def test_random_order_limit_offset(self, big_db):
        rng = random.Random(4100)
        for _ in range(25):
            select = Select(
                "ev",
                where=random_predicate(rng),
                order_by=[(rng.choice(["val", "n", "id", "kind"]),
                           rng.choice(["asc", "desc"])), ("id", "asc")],
                limit=rng.choice([None, 0, 7, 500]),
                offset=rng.choice([0, 3]),
            )
            vectorized, row = both_paths(big_db, select)
            assert vectorized == row

    def test_random_aggregates(self, big_db):
        rng = random.Random(4200)
        for _ in range(30):
            aggregates = [
                Aggregate("count", "*", "c"),
                Aggregate(rng.choice(["sum", "avg", "min", "max"]),
                          rng.choice(["n", "val"]), "x"),
                Aggregate(rng.choice(["min", "max"]), "kind", "k"),
                Aggregate("count", "comment", "cc"),
            ]
            group_by = rng.choice([(), ("kind",), ("n",), ("flag",)])
            select = Select(
                "ev", where=random_predicate(rng),
                group_by=group_by, aggregates=aggregates,
            )
            vectorized, row = both_paths(big_db, select)
            assert vectorized == row

    def test_projection_applies_on_columnar_path(self, big_db):
        select = Select("ev", columns=["id", "kind"],
                        where=Comparison("n", ">", 50))
        vectorized, row = both_paths(big_db, select)
        assert multiset(vectorized) == multiset(row)
        assert set(vectorized[0]) == {"id", "kind"}


class TestNullAndLikeEdges:
    def test_nulls_last_both_directions(self, big_db):
        for direction in ("asc", "desc"):
            select = Select(
                "ev", where=Comparison("n", ">=", 0),
                order_by=[("val", direction), ("id", "asc")],
            )
            vectorized, row = both_paths(big_db, select)
            assert vectorized == row
            tail_nulls = [r["val"] for r in vectorized if r["val"] is None]
            assert [r["val"] for r in vectorized][-len(tail_nulls):] == tail_nulls

    def test_comparisons_never_match_null(self, big_db):
        for op in ("=", "!=", "<", ">="):
            vectorized, row = both_paths(
                big_db, Select("ev", where=Comparison("kind", op, "flare"))
            )
            assert multiset(vectorized) == multiset(row)
            assert all(r["kind"] is not None for r in vectorized)

    def test_not_over_comparison_excludes_nulls(self, big_db):
        # SQL-approximated semantics: NOT(kind = x) is true on NULL rows
        # in this engine (matches returns False, Not flips it).
        vectorized, row = both_paths(
            big_db, Select("ev", where=Not(Comparison("kind", "=", "flare")))
        )
        assert multiset(vectorized) == multiset(row)

    def test_avg_of_empty_group_is_null(self, big_db):
        select = Select(
            "ev", where=Comparison("n", ">", 100_000),
            aggregates=[Aggregate("avg", "val", "a"), Aggregate("count", "*", "c")],
        )
        vectorized, row = both_paths(big_db, select)
        assert vectorized == row == [{"a": None, "c": 0}]

    def test_grouped_aggregate_with_null_group_key(self, big_db):
        select = Select(
            "ev", group_by=["kind"],
            aggregates=[Aggregate("count", "*", "c"), Aggregate("sum", "n", "s")],
        )
        vectorized, row = both_paths(big_db, select)
        assert vectorized == row
        assert any(group["kind"] is None for group in vectorized)

    def test_like_newline_regression(self, big_db):
        # PR-4 regression: patterns must not let '%' match across a
        # newline boundary differently from the row path.
        for pattern in ("abc%", "abc_", "abc", "%\n", "ab%"):
            vectorized, row = both_paths(
                big_db, Select("ev", where=Like("kind", pattern))
            )
            assert multiset(vectorized) == multiset(row)
        matched, _ = both_paths(big_db, Select("ev", where=Like("kind", "abc_")))
        assert {r["kind"] for r in matched} == {"abc\n"}

    def test_like_on_numeric_column_matches_nothing(self, big_db):
        vectorized, row = both_paths(
            big_db, Select("ev", where=Like("n", "1%"))
        )
        assert vectorized == row == []

    def test_mixed_type_comparison_is_false_per_row(self, big_db):
        vectorized, row = both_paths(
            big_db, Select("ev", where=Comparison("n", "<", "banana"))
        )
        assert vectorized == row == []


class TestConsistencyWithRowStore:
    def test_rebuild_after_insert_update_delete(self):
        db = Database(name="mut")
        db.create_table(events_schema())
        for row in seed_rows(COLUMNAR_MIN_ROWS + 200, seed=5):
            db.execute(Insert("ev", row))
        sweep = Select("ev", where=Comparison("n", ">=", 0))
        assert db.explain_plan(sweep)["access"] == "columnar_scan"
        before = db.execute(sweep)

        store = db.table("ev")._columnar_store
        rebuilds = store.rebuilds
        db.execute(Insert("ev", {"id": 10_000, "kind": "flare", "n": 1}))
        db.execute(Update("ev", {"n": 99}, where=Comparison("id", "=", 10_000)))
        db.execute(Delete("ev", where=Comparison("id", "=", 0)))
        vectorized, row = both_paths(db, sweep)
        assert vectorized == row
        assert vectorized != before
        assert store.rebuilds == rebuilds + 1  # one lazy rebuild, not three

    def test_scan_order_matches_row_store_iteration(self, big_db):
        vectorized, row = both_paths(big_db, Select("ev"))
        assert vectorized == row  # includes order

    def test_rollback_invalidates_columnar_copy(self):
        db = Database(name="txm")
        db.create_table(events_schema())
        for row in seed_rows(COLUMNAR_MIN_ROWS + 50, seed=9):
            db.execute(Insert("ev", row))
        sweep = Select("ev", where=Comparison("n", ">=", 0))
        baseline = db.execute(sweep)
        tx = db.begin()
        db.execute(Insert("ev", {"id": 77_000, "kind": "storm", "n": 3}), tx=tx)
        assert db.execute(sweep, tx=tx) != baseline
        db.rollback(tx)
        vectorized, row = both_paths(db, sweep)
        assert vectorized == row == baseline


class TestStatsStalenessRegression:
    def test_plan_flips_back_after_bulk_delete(self):
        """Bulk DELETE must refresh cached planner statistics: the sweep
        plan drops the columnar path once the table shrinks below the
        vectorization threshold, and table_rows reflects the survivors."""
        db = Database(name="bulk")
        db.create_table(events_schema())
        n = 2000
        for row in seed_rows(n, seed=13):
            db.execute(Insert("ev", row))
        sweep = Select("ev", where=Comparison("n", ">=", 0))
        plan = db.explain_plan(sweep)
        assert plan["access"] == "columnar_scan"
        assert plan["table_rows"] == n
        db.execute(Delete("ev", where=Comparison("id", ">=", 100)))
        plan = db.explain_plan(sweep)
        assert plan["access"] == "full_scan"
        assert plan["table_rows"] == 100

    def test_stats_cache_reused_within_threshold(self):
        db = Database(name="cache")
        db.create_table(events_schema(columnar=False))
        for row in seed_rows(1000, seed=17):
            db.execute(Insert("ev", row))
        table = db.table("ev")
        first = table.stats()
        assert table.stats() is first          # no mutations: cache hit
        db.execute(Insert("ev", {"id": 90_001, "kind": "quiet", "n": 2}))
        assert table.stats() is first          # 1 < 1000/20 mutations
        for i in range(60):
            db.execute(Insert("ev", {"id": 90_100 + i, "kind": "quiet", "n": 2}))
        refreshed = table.stats()
        assert refreshed is not first          # threshold crossed
        assert refreshed.row_count == 1061


class TestShardedColumnar:
    def test_scatter_gather_is_layout_agnostic(self):
        from repro.schema import install_all, install_generic
        from repro.schema.rhessi_schema import hle
        from repro.shard import ShardedDatabase

        day = 86_400.0
        single = Database(name="colsingle")
        sharded = ShardedDatabase(boundaries=(day, 2 * day), name="colshard")
        # The row-path oracles: the same deployments with ``hle``
        # declared columnar=False (install_all keeps a table it finds).
        single_rows = Database(name="colsingle-rows")
        sharded_rows = ShardedDatabase(boundaries=(day, 2 * day),
                                       name="colshard-rows")
        for db in (single_rows, sharded_rows):
            install_generic(db)
            db.create_table(TableSchema.from_dict(
                {**hle().to_dict(), "columnar": False}))
        databases = (single, sharded, single_rows, sharded_rows)
        for db in databases:
            install_all(db)
            db.execute(Insert("admin_users", {
                "user_id": 1, "login": "alice", "password_hash": "x",
            }))
        rng = random.Random(23)
        times = rng.sample(range(0, int(3 * day)), 1800)
        for index, t in enumerate(times, start=1):
            row = {
                "hle_id": index, "item_id": f"hle-{index}", "owner_id": 1,
                "start_time": float(t), "end_time": float(t + 60),
                "kind": rng.choice(["flare", "quiet", "storm"]),
                "peak_rate": rng.randint(0, 4000) / 4,
                "created_at": 1000.0,
            }
            for db in databases:
                db.execute(Insert("hle", row))

        sweeps = [
            Select("hle", where=Comparison("peak_rate", ">=", 0.0),
                   order_by=[("start_time", "asc")]),
            Select("hle", where=Like("kind", "f%"),
                   order_by=[("hle_id", "asc")]),
            Select("hle", group_by=["kind"],
                   aggregates=[Aggregate("count", "*", "c"),
                               Aggregate("max", "peak_rate", "p")]),
        ]
        assert single.explain_plan(sweeps[0])["access"] == "columnar_scan"
        assert single_rows.explain_plan(sweeps[0])["access"] != "columnar_scan"
        for select in sweeps:
            expected = single.execute(select)
            assert sharded.execute(select) == expected
            assert sharded_rows.execute(select) == expected
            assert single_rows.execute(select) == expected

    def test_shard_explain_surfaces_columnar_path(self):
        from repro.schema import install_all
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(boundaries=(86_400.0,), name="colexp")
        install_all(sharded)
        sharded.execute(Insert("admin_users", {
            "user_id": 1, "login": "alice", "password_hash": "x",
        }))
        for i in range(COLUMNAR_MIN_ROWS + 10):
            sharded.execute(Insert("hle", {
                "hle_id": i + 1, "item_id": f"hle-{i}", "owner_id": 1,
                "start_time": float(i), "end_time": float(i + 1),
                "kind": "flare", "peak_rate": float(i % 7),
            }))
        plan = sharded.explain_plan(
            Select("hle", where=Comparison("peak_rate", ">=", 0.0))
        )
        assert plan["access"] == "columnar_scan"


# -- ORDER BY on the selection vector ----------------------------------------
#
# Twin tables again, but every value comes from a small pool, so ties are
# the rule: the vector order has to leave them exactly where the stable
# row sort does.  Three answers are compared as lists: the columnar
# table's, the row twin's, and the pre-PR-18 sort key's (oracle_ordering).

FLOATS = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, 5e-324, None]
INTS = [0, 1, -1, 2**63 - 1, -2**63, None]
BOOLS = [True, False, None]
CODES = ["a", "ab", "b", "", None]          # few values -> dictionary
ORDER_COLUMNS = ["f", "i8", "b", "code", "note", "at", "id", "ghost"]


def order_schema(columnar: bool) -> TableSchema:
    """No secondary index: nothing competes with the scan."""
    return TableSchema(
        "ev",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("at", ColumnType.TIMESTAMP, nullable=False),
            Column("f", ColumnType.REAL),
            Column("i8", ColumnType.INTEGER),
            Column("b", ColumnType.BOOLEAN),
            Column("code", ColumnType.TEXT),
            Column("note", ColumnType.TEXT),
        ],
        primary_key="id",
        columnar=columnar,
        placement=partitioned("at"),      # read by the sharded build only
    )


def twin_databases(rows: list[dict]) -> tuple[Database, Database]:
    pair = []
    for columnar in (True, False):
        db = Database(name=f"ord-{columnar}")
        db.create_table(order_schema(columnar))
        for row in rows:
            db.execute(Insert("ev", dict(row)))
        pair.append(db)
    return tuple(pair)


def oracle_answer(db: Database, select: Select) -> list[dict]:
    """The statement answered with the old sort key over the row store."""
    matches = (lambda row: True) if select.where is None else select.where.compile()
    rows = ordered([row for row in db.table("ev").rows() if matches(row)],
                   select.order_by)
    stop = None if select.limit is None else select.offset + select.limit
    columns = select.columns
    return [dict(row) if columns is None else {c: row[c] for c in columns}
            for row in rows[select.offset:stop]]


order_rows = st.lists(
    st.fixed_dictionaries({
        "f": st.sampled_from(FLOATS),
        "i8": st.sampled_from(INTS),
        "b": st.sampled_from(BOOLS),
        "code": st.sampled_from(CODES),
        # wide pool: past 16 rows this column is too distinct for a dictionary
        "note": st.one_of(st.none(), st.integers(0, 500).map("n{}".format)),
    }),
    max_size=48,
).map(lambda rows: [{"id": i, "at": float(i), **row} for i, row in enumerate(rows)])

order_statements = st.builds(
    Select,
    table=st.just("ev"),
    columns=st.sampled_from([None, ["id"], ["id", "code"]]),
    where=st.sampled_from([
        None, Comparison("id", ">=", 0), Comparison("id", "<", 0),
        IsNull("f"), Comparison("code", "=", "a"), Comparison("f", "<=", 0.0),
    ]),
    order_by=st.lists(
        st.tuples(st.sampled_from(ORDER_COLUMNS), st.sampled_from(["asc", "desc"])),
        min_size=1, max_size=3,
    ),
    limit=st.sampled_from([None, 0, 1, 7, 100, 5000]),
    offset=st.sampled_from([0, 1, 13, 5000]),
)


@pytest.fixture(scope="module")
def tied_rows() -> list[dict]:
    """1200 rows in ``at`` order (so four time shards hold them in the
    plain database's iteration order), every other column tie-heavy."""
    rng = random.Random(18)
    return [{
        "id": i, "at": float(i),
        "f": rng.choice(FLOATS), "i8": rng.choice(INTS), "b": rng.choice(BOOLS),
        "code": rng.choice(CODES),
        "note": f"n{rng.randrange(900)}" if rng.random() > 0.1 else None,
    } for i in range(1200)]


@pytest.fixture(scope="module")
def tied_twins(tied_rows):
    return twin_databases(tied_rows)


@pytest.fixture(scope="module")
def tied_shards(tied_rows):
    from repro.shard import ShardedDatabase

    sharded = ShardedDatabase(
        boundaries=(300.0, 600.0, 900.0), name="ord-4x2", replicas_per_shard=2,
    )
    sharded.create_table(order_schema(columnar=True))
    for row in tied_rows:
        sharded.execute(Insert("ev", dict(row)))
    yield sharded
    sharded.close()


class TestVectorOrder:
    @settings(max_examples=120, deadline=None)
    @given(rows=order_rows, select=order_statements)
    def test_random_tables_match_row_path_as_lists(self, rows, select):
        with mock.patch.object(query_module, "COLUMNAR_MIN_ROWS", 0):
            vector_db, row_db = twin_databases(rows)
            assert vector_db.explain_plan(select)["access"] == "columnar_scan"
            assert row_db.explain_plan(select)["access"] != "columnar_scan"
            answer = vector_db.execute(select)
            assert answer == row_db.execute(select)
        assert answer == oracle_answer(row_db, select)

    @settings(max_examples=150, deadline=None)
    @given(select=order_statements)
    def test_tied_table_matches_row_path_and_shards(self, tied_twins,
                                                    tied_shards, select):
        vector_db, row_db = tied_twins
        assert vector_db.explain_plan(select)["access"] == "columnar_scan"
        answer = vector_db.execute(select)
        assert answer == row_db.execute(select)
        assert answer == oracle_answer(row_db, select)
        assert tied_shards.execute(select) == answer

    def test_bounded_order_gathers_only_the_rows_returned(self, tied_twins,
                                                          monkeypatch):
        vector_db, row_db = tied_twins
        calls = []
        real_row = Table.row
        monkeypatch.setattr(
            Table, "row", lambda self, rowid: calls.append(rowid) or real_row(self, rowid))
        for order_by in ([("f", "desc")], [("code", "asc"), ("i8", "desc")],
                         [("ghost", "asc"), ("b", "desc")]):
            select = Select("ev", where=Comparison("id", ">=", 0),
                            order_by=order_by, limit=7, offset=3)
            calls.clear()
            answer = vector_db.execute(select)
            assert len(calls) <= 10
            last = vector_db.table("ev")._columnar_store.last_scan
            assert (last["rows_matched"], last["rows_gathered"]) == (1200, 7)
            assert answer == row_db.execute(select)
        plan = vector_db.explain_plan(select)
        assert plan["array_order"] is True
        assert "ORDER BY on column arrays" in plan["description"]
        gathered = vector_db.obs.counter("metadb.columnar.rows_gathered",
                                         db=vector_db.name)
        assert 0 < gathered.value < vector_db.obs.counter(
            "metadb.columnar.rows_matched", db=vector_db.name).value

    def test_object_column_orders_on_gathered_rows(self, tied_twins):
        vector_db, row_db = tied_twins
        select = Select("ev", order_by=[("note", "desc"), ("f", "asc")], limit=5)
        plan = vector_db.explain_plan(select)
        assert plan["access"] == "columnar_scan" and plan["array_order"] is False
        assert vector_db.execute(select) == row_db.execute(select)
        last = vector_db.table("ev")._columnar_store.last_scan
        assert last["rows_gathered"] == last["rows_matched"] == 1200

    def test_nan_key_takes_the_row_sort(self):
        rng = random.Random(5)
        rows = [{"id": i, "at": float(i),
                 "f": rng.choice([math.nan, 1.0, 2.0, -3.0, None]),
                 "i8": rng.choice([0, 1, 2])} for i in range(300)]
        vector_db, row_db = twin_databases(rows)
        store = vector_db.table("ev").columnar_store()
        for direction in ("asc", "desc"):
            for order_by in ([("f", direction)], [("i8", "asc"), ("f", direction)]):
                # NaN among the selected keys: python's sort places it by
                # comparison history, which no array sort reproduces.
                select = Select("ev", columns=["id"], order_by=order_by,
                                limit=20, offset=2)
                assert vector_db.explain_plan(select)["access"] == "columnar_scan"
                assert vector_db.execute(select) == row_db.execute(select)
                assert store.last_scan["rows_gathered"] == 300
                # NaN fails every comparison, so this WHERE selects none
                # of them and the arrays order what is left.
                select = Select("ev", columns=["id"], where=Comparison("f", ">", -10.0),
                                order_by=order_by, limit=20, offset=2)
                assert vector_db.execute(select) == row_db.execute(select)
                assert store.last_scan["rows_gathered"] == 20

    def test_unordered_limit_gathers_only_the_rows_returned(self, tied_twins):
        vector_db, row_db = tied_twins
        select = Select("ev", where=Comparison("id", ">=", 0), limit=9, offset=4)
        assert vector_db.execute(select) == row_db.execute(select)
        assert vector_db.table("ev")._columnar_store.last_scan["rows_gathered"] == 9

    def test_scan_reuses_the_planner_pruning_pass(self, big_db, monkeypatch):
        from repro.metadb import columnar

        passes = []
        real_checks = columnar._prune_checks
        monkeypatch.setattr(
            columnar, "_prune_checks",
            lambda where: passes.append(where) or real_checks(where))
        select = Select("ev", where=Comparison("id", ">", SEGMENT_ROWS + 100))
        rows = big_db.execute(select)
        assert len(passes) == 1
        last = big_db.table("ev")._columnar_store.last_scan
        assert (last["segments_pruned"], last["segments_scanned"]) == (1, 1)
        # A write moves the epoch: the kept answer is for the old copy.
        big_db.execute(Update("ev", {"n": 5}, where=Comparison("id", "=", 0)))
        assert big_db.execute(select) == rows
        assert len(passes) == 2
