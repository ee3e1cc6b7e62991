"""Tests for predicates, indexes, planning and query execution."""

import itertools
import math
import random

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
    Join,
    Like,
    Not,
    Or,
    Param,
    PreparedBatch,
    QueryError,
    SchemaError,
    Select,
    TableSchema,
    Update,
    parse,
    partitioned,
)
from repro.metadb.index import HashIndex, OrderedIndex
from repro.metadb.predicate import conjuncts, equality_on, range_on
from repro.metadb.query import Plan, _apply_order, _finalize, execute_select, order_and_cut
from repro.metadb.storage import Table

from .oracle_ordering import ordered
from .oracle_predicate import matches


RANGE_CONJUNCT = st.one_of(
    st.tuples(st.sampled_from([">", ">=", "<", "<="]), st.integers(0, 6)).map(
        lambda pair: Comparison("x", pair[0], pair[1])),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda pair: Between("x", min(pair), max(pair))),
)


class TestPredicates:
    def test_comparison_operators(self):
        row = {"x": 5}
        assert matches(Comparison("x", "=", 5), row)
        assert matches(Comparison("x", "!=", 4), row)
        assert matches(Comparison("x", "<", 6), row)
        assert matches(Comparison("x", ">=", 5), row)
        assert not matches(Comparison("x", ">", 5), row)

    def test_comparison_with_null_is_false(self):
        assert not matches(Comparison("x", "=", 5), {"x": None})
        assert not matches(Comparison("x", "=", None), {"x": 5})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("x", "~", 1)

    def test_between_inclusive(self):
        predicate = Between("x", 1, 3)
        assert matches(predicate, {"x": 1})
        assert matches(predicate, {"x": 3})
        assert not matches(predicate, {"x": 4})

    def test_in_and_like(self):
        assert matches(In("k", ["a", "b"]), {"k": "a"})
        assert not matches(In("k", ["a", "b"]), {"k": "c"})
        assert matches(Like("s", "fla%"), {"s": "flare"})
        assert matches(Like("s", "f_are"), {"s": "flare"})
        assert not matches(Like("s", "fla%"), {"s": "burst"})

    def test_like_non_string_is_false(self):
        assert not matches(Like("s", "%"), {"s": 5})

    def test_like_rejects_trailing_newline(self):
        # Regression: a $-anchored re.match accepted "abc\n" for LIKE 'abc'.
        assert not matches(Like("s", "abc"), {"s": "abc\n"})
        assert not matches(Like("s", "ab_"), {"s": "abc\n"})
        assert matches(Like("s", "abc"), {"s": "abc"})
        assert matches(Like("s", "abc%"), {"s": "abc\n"})  # % may span newlines
        assert matches(Like("s", "ab_"), {"s": "ab\n"})    # _ is any single char

    def test_is_null(self):
        assert matches(IsNull("x"), {"x": None})
        assert matches(IsNull("x", negated=True), {"x": 1})

    def test_boolean_combinators(self):
        predicate = (Comparison("a", ">", 1) & Comparison("a", "<", 5)) | Comparison("b", "=", 0)
        assert matches(predicate, {"a": 3, "b": 9})
        assert matches(predicate, {"a": 99, "b": 0})
        assert not matches(predicate, {"a": 99, "b": 9})
        assert matches(~Comparison("a", "=", 1), {"a": 2})

    def test_conjunct_flattening(self):
        nested = And([Comparison("a", "=", 1), And([Comparison("b", "=", 2), Comparison("c", "=", 3)])])
        assert len(conjuncts(nested)) == 3

    def test_equality_extraction(self):
        predicate = And([Comparison("a", "=", 7), Comparison("b", ">", 1)])
        assert equality_on(predicate, "a") == 7
        assert equality_on(predicate, "b") is None

    def test_range_extraction_combines_bounds(self):
        predicate = And([Comparison("x", ">=", 1), Comparison("x", "<", 10)])
        assert range_on(predicate, "x") == (1, 10, True, False)

    def test_range_extraction_from_equality(self):
        assert range_on(Comparison("x", "=", 5), "x") == (5, 5, True, True)

    def test_range_extraction_keeps_the_stricter_of_two_equal_bounds(self):
        for first, second in itertools.permutations(
                [Comparison("x", ">", 5), Comparison("x", ">=", 5)]):
            assert range_on(And([first, second]), "x") == (5, None, False, True)
        for first, second in itertools.permutations(
                [Comparison("x", "<", 5), Between("x", 1, 5)]):
            assert range_on(And([first, second]), "x") == (1, 5, True, False)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(RANGE_CONJUNCT, min_size=1, max_size=4),
           st.one_of(st.none(), st.integers(0, 6)))
    def test_range_extraction_ignores_conjunct_order(self, ranges, point):
        """Every order of the same conjuncts gives the same bounds.  (At
        most one equality: two different ones match no row, and either
        point is then a right answer.)"""
        parts = ranges if point is None else [*ranges, Comparison("x", "=", point)]
        expected = range_on(And(parts), "x")
        for order in itertools.permutations(parts):
            assert range_on(And(list(order)), "x") == expected

    def test_explain_and_rows_agree_for_both_orders_of_a_tied_bound(self):
        database = Database(name="ties")
        database.create_table(TableSchema(
            "t", [Column("id", ColumnType.INTEGER, nullable=False),
                  Column("x", ColumnType.INTEGER)],
            primary_key="id", indexes=[("x",)]))
        for n in range(100):
            database.execute(Insert("t", {"id": n, "x": n // 2}))
        seen = set()
        for first, second in itertools.permutations(
                [Comparison("x", ">", 29), Comparison("x", ">=", 29)]):
            select = Select("t", where=And([first, second]))
            plan = database.explain_plan(select)
            rows = database.execute(select)
            assert len(rows) == plan["estimated_rows"] == 40
            seen.add(tuple(row["id"] for row in rows))
        assert len(seen) == 1

    def test_columns_collected(self):
        predicate = And([Comparison("a", "=", 1), Or([IsNull("b"), Like("c", "%")])])
        assert predicate.columns() == {"a", "b", "c"}


class TestIndexes:
    def test_hash_index_probe(self):
        index = HashIndex(["k"])
        index.insert(1, {"k": "x"})
        index.insert(2, {"k": "x"})
        index.insert(3, {"k": "y"})
        assert index.probe("x") == {1, 2}
        assert index.probe("missing") == set()

    def test_unique_hash_index_rejects_duplicates(self):
        from repro.metadb import IntegrityError

        index = HashIndex(["k"], unique=True)
        index.insert(1, {"k": "x"})
        with pytest.raises(IntegrityError):
            index.insert(2, {"k": "x"})

    def test_hash_index_null_bucket(self):
        index = HashIndex(["k"], unique=True)
        index.insert(1, {"k": None})
        index.insert(2, {"k": None})  # nulls never collide
        assert index.nulls() == {1, 2}

    def test_hash_index_remove(self):
        index = HashIndex(["k"])
        index.insert(1, {"k": "x"})
        index.remove(1, {"k": "x"})
        assert index.probe("x") == set()
        assert len(index) == 0

    def test_ordered_index_range_scan(self):
        index = OrderedIndex("t")
        for rowid, value in enumerate([5.0, 1.0, 3.0, 9.0, 7.0], start=1):
            index.insert(rowid, {"t": value})
        assert list(index.range(3.0, 7.0)) == [3, 1, 5]  # values 3, 5, 7

    def test_ordered_index_exclusive_bounds(self):
        index = OrderedIndex("t")
        for rowid, value in enumerate([1.0, 2.0, 3.0], start=1):
            index.insert(rowid, {"t": value})
        assert list(index.range(1.0, 3.0, low_inclusive=False, high_inclusive=False)) == [2]

    def test_ordered_index_descending_scan(self):
        index = OrderedIndex("t")
        for rowid, value in enumerate([2.0, 1.0, 3.0], start=1):
            index.insert(rowid, {"t": value})
        assert list(index.scan(descending=True)) == [3, 1, 2]

    def test_ordered_index_remove_specific_duplicate(self):
        index = OrderedIndex("t")
        index.insert(1, {"t": 5.0})
        index.insert(2, {"t": 5.0})
        index.remove(1, {"t": 5.0})
        assert list(index.range(5.0, 5.0)) == [2]


def _events_database(indexes=(("start_time",),)) -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "events",
            [
                Column("event_id", ColumnType.INTEGER, nullable=False),
                Column("kind", ColumnType.TEXT),
                Column("start_time", ColumnType.REAL),
                Column("rate", ColumnType.REAL),
                Column("flag", ColumnType.BOOLEAN),
                Column("at", ColumnType.TIMESTAMP),
            ],
            primary_key="event_id",
            indexes=indexes,
        )
    )
    kinds = ["flare", "flare", "grb", "quiet"]
    for index in range(40):
        database.execute(
            Insert(
                "events",
                {
                    "event_id": index,
                    "kind": kinds[index % 4],
                    "start_time": float(index * 10),
                    "rate": float((index * 37) % 100),
                    "flag": index % 3 == 0,
                    "at": 1000.0 + index,
                },
            )
        )
    return database


@pytest.fixture()
def events_db() -> Database:
    return _events_database()


class TestSelectExecution:
    def test_full_scan_where(self, events_db):
        rows = events_db.execute(Select("events", where=Comparison("kind", "=", "grb")))
        assert len(rows) == 10
        assert all(row["kind"] == "grb" for row in rows)

    def test_pk_probe_plan_and_result(self, events_db):
        select = Select("events", where=Comparison("event_id", "=", 7))
        assert events_db.explain_plan(select)["description"] == "PK_PROBE on event_id"
        rows = events_db.execute(select)
        assert len(rows) == 1 and rows[0]["event_id"] == 7

    def test_range_scan_plan_and_result(self, events_db):
        select = Select("events", where=Between("start_time", 100.0, 150.0))
        assert events_db.explain_plan(select)["description"] == "RANGE_SCAN on start_time"
        rows = events_db.execute(select)
        assert sorted(row["event_id"] for row in rows) == [10, 11, 12, 13, 14, 15]

    def test_order_by_asc_desc(self, events_db):
        asc = events_db.execute(Select("events", order_by=[("rate", "asc")], limit=3))
        desc = events_db.execute(Select("events", order_by=[("rate", "desc")], limit=3))
        assert asc[0]["rate"] <= asc[1]["rate"] <= asc[2]["rate"]
        assert desc[0]["rate"] >= desc[1]["rate"] >= desc[2]["rate"]

    def test_order_by_uses_ordered_index_when_available(self, events_db):
        select = Select("events", order_by=[("start_time", "desc")], limit=5)
        assert "RANGE_SCAN" in events_db.explain_plan(select)["description"]
        rows = events_db.execute(select)
        assert [row["event_id"] for row in rows] == [39, 38, 37, 36, 35]

    def test_multi_key_order_by(self, events_db):
        rows = events_db.execute(
            Select("events", order_by=[("kind", "asc"), ("rate", "desc")])
        )
        for previous, current in zip(rows, rows[1:]):
            if previous["kind"] == current["kind"]:
                assert previous["rate"] >= current["rate"]
            else:
                assert previous["kind"] <= current["kind"]

    def test_limit_and_offset(self, events_db):
        rows = events_db.execute(
            Select("events", order_by=[("event_id", "asc")], limit=5, offset=10)
        )
        assert [row["event_id"] for row in rows] == [10, 11, 12, 13, 14]

    def test_projection(self, events_db):
        rows = events_db.execute(Select("events", columns=["event_id"], limit=1))
        assert list(rows[0].keys()) == ["event_id"]

    def test_unknown_projection_column_rejected(self, events_db):
        with pytest.raises(QueryError):
            events_db.execute(Select("events", columns=["nope"], limit=1))

    def test_aggregates_without_group(self, events_db):
        rows = events_db.execute(
            Select(
                "events",
                aggregates=[
                    Aggregate("count", "*", "n"),
                    Aggregate("min", "rate", "lo"),
                    Aggregate("max", "rate", "hi"),
                    Aggregate("avg", "start_time", "mid"),
                ],
            )
        )
        assert rows[0]["n"] == 40
        assert rows[0]["lo"] == 0.0
        assert rows[0]["mid"] == pytest.approx(195.0)

    def test_group_by(self, events_db):
        rows = events_db.execute(
            Select("events", group_by=["kind"], aggregates=[Aggregate("count", "*", "n")])
        )
        assert {row["kind"]: row["n"] for row in rows} == {
            "flare": 20, "grb": 10, "quiet": 10,
        }

    def test_aggregate_over_empty_set_is_null(self, events_db):
        rows = events_db.execute(
            Select(
                "events",
                where=Comparison("kind", "=", "nothing"),
                aggregates=[Aggregate("sum", "rate", "total")],
            )
        )
        assert rows[0]["total"] is None

    def test_group_by_requires_aggregate(self):
        with pytest.raises(QueryError):
            Select("events", group_by=["kind"])

    def test_unknown_table_rejected(self, events_db):
        with pytest.raises(SchemaError):
            events_db.execute(Select("nope"))


class TestJoin:
    def test_inner_equijoin(self):
        database = Database()
        database.create_table(
            TableSchema(
                "hle",
                [Column("hle_id", ColumnType.INTEGER, nullable=False),
                 Column("kind", ColumnType.TEXT)],
                primary_key="hle_id",
            )
        )
        database.create_table(
            TableSchema(
                "ana",
                [Column("ana_id", ColumnType.INTEGER, nullable=False),
                 Column("hle_id", ColumnType.INTEGER),
                 Column("algorithm", ColumnType.TEXT)],
                primary_key="ana_id",
            )
        )
        for hle_id, kind in ((1, "flare"), (2, "grb")):
            database.execute(Insert("hle", {"hle_id": hle_id, "kind": kind}))
        for ana_id, hle_id in ((10, 1), (11, 1), (12, 2)):
            database.execute(
                Insert("ana", {"ana_id": ana_id, "hle_id": hle_id, "algorithm": "img"})
            )
        rows = database.execute(
            Select("ana", join=Join("hle", "hle_id", "hle_id"))
        )
        assert len(rows) == 3
        flare_rows = [row for row in rows if row["kind"] == "flare"]
        assert {row["ana_id"] for row in flare_rows} == {10, 11}


def _random_predicate(rng: random.Random, depth: int = 0):
    """A random predicate tree covering every node type."""
    columns = ("a", "b", "c")
    scalars = (0, 1, 5, -3, 2.5, "x", "flare", "")
    kind = rng.randrange(9 if depth < 3 else 6)
    column = rng.choice(columns)
    if kind == 0:
        return Comparison(column, rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                          rng.choice(scalars + (None,)))
    if kind == 1:
        low, high = rng.choice(scalars), rng.choice(scalars)
        return Between(column, low, high)
    if kind == 2:
        return In(column, [rng.choice(scalars) for _ in range(rng.randrange(1, 4))])
    if kind == 3:
        return Like(column, rng.choice(["fla%", "f_are", "%", "x", "", "%a%"]))
    if kind == 4:
        return IsNull(column, negated=rng.random() < 0.5)
    if kind == 5:
        from repro.metadb.predicate import ALWAYS
        return ALWAYS
    if kind == 6:
        return Not(_random_predicate(rng, depth + 1))
    operands = [_random_predicate(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
    return And(operands) if kind == 7 else Or(operands)


def _random_row(rng: random.Random) -> dict:
    values = (0, 1, 5, -3, 2.5, "x", "flare", "", "abc\n", None)
    return {column: rng.choice(values) for column in ("a", "b", "c")}


class TestPredicateCompilation:
    def test_differential_compile_vs_matches(self):
        """compile()(row) must agree with the oracle's tree walk for every
        node type."""
        rng = random.Random(1234)
        for _trial in range(300):
            predicate = _random_predicate(rng)
            compiled = predicate.compile()
            for _row in range(20):
                row = _random_row(rng)
                assert compiled(row) == matches(predicate, row), (predicate, row)

    def test_fused_and_or_closures(self):
        predicate = And([Comparison("a", ">", 1), Comparison("a", "<", 5),
                         Or([Comparison("b", "=", 0), IsNull("c")])])
        compiled = predicate.compile()
        assert compiled({"a": 3, "b": 0, "c": 1})
        assert compiled({"a": 3, "b": 9, "c": None})
        assert not compiled({"a": 3, "b": 9, "c": 1})
        assert not compiled({"a": 9, "b": 0, "c": None})


@pytest.fixture()
def nullable_db() -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "m",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("score", ColumnType.REAL),
            ],
            primary_key="id",
        )
    )
    for row_id, score in ((1, 5.0), (2, None), (3, -1.0), (4, None), (5, 0.0)):
        database.execute(Insert("m", {"id": row_id, "score": score}))
    return database


class TestNullOrdering:
    def test_nulls_last_ascending(self, nullable_db):
        rows = nullable_db.execute(Select("m", order_by=[("score", "asc")]))
        assert [row["id"] for row in rows] == [3, 5, 1, 2, 4]

    def test_nulls_last_descending(self, nullable_db):
        # NULL must not be treated as 0: it sorts after every real value
        # in both directions, and never interleaves with negatives.
        rows = nullable_db.execute(Select("m", order_by=[("score", "desc")]))
        assert [row["id"] for row in rows] == [1, 5, 3, 2, 4]

    def test_nulls_last_with_limit_topn(self, nullable_db):
        rows = nullable_db.execute(Select("m", order_by=[("score", "desc")], limit=3))
        assert [row["id"] for row in rows] == [1, 5, 3]

    @pytest.mark.parametrize("direction", ["asc", "desc"])
    @pytest.mark.parametrize("limit", [None, 9])
    def test_an_ordered_index_scan_keeps_null_keys_last(self, direction, limit):
        """``ORDER BY v`` answered by the ordered index on ``v``: the three
        rows whose ``v`` is NULL follow the seven others both ways, in
        rowid order, where the scan used to drop them."""
        database = Database()
        database.create_table(TableSchema(
            "t", [Column("k", ColumnType.INTEGER, nullable=False),
                  Column("v", ColumnType.REAL)],
            primary_key="k", indexes=[("v",)]))
        values = [3.0, None, 1.0, 4.0, None, 5.0, 9.0, 2.0, None, 6.0]
        for k, v in enumerate(values):
            database.execute(Insert("t", {"k": k, "v": v}))
        select = Select("t", order_by=[("v", direction)], limit=limit)
        plan = database.explain_plan(select)
        assert (plan["access"], plan["ordered"]) == ("range_scan", True)
        rows = database.execute(select)
        rated = sorted((v for v in values if v is not None), reverse=direction == "desc")
        assert [row["v"] for row in rows] == (rated + [None] * 3)[:limit]
        assert [row["k"] for row in rows][7:] == [1, 4, 8][:None if limit is None else 2]


class TestRowSortAgainstOldKey:
    """The row path sorts one column a pass with native keys; the tuple
    key it replaced (``oracle_ordering``) is the reference, ties and all."""

    VALUES = {
        "a": [None, 0.0, -0.0, 1.5, -2.5, float("inf"), float("-inf")],
        "b": [None, 0, 1, -1, 2**70, -(2**63)],
        "c": [None, "", "x", "xy", "y"],
        "d": [None, True, False],
    }

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_apply_order_matches_old_key_as_lists(self, data):
        rows = data.draw(st.lists(st.fixed_dictionaries(
            {name: st.sampled_from(pool) for name, pool in self.VALUES.items()}
        ), max_size=30))
        for index, row in enumerate(rows):
            row["n"] = index            # tells tied rows apart in the answer
        order_by = data.draw(st.lists(st.tuples(
            st.sampled_from(["a", "b", "c", "d", "ghost"]),
            st.sampled_from(["asc", "desc"])), min_size=1, max_size=4))
        assert _apply_order(list(rows), order_by) == ordered(rows, order_by)


class TestPlannerAndExplain:
    def test_explain_plan_pk_probe(self, events_db):
        plan = events_db.explain_plan(Select("events", where=Comparison("event_id", "=", 7)))
        assert plan["access"] == "pk_probe"
        assert plan["index_column"] == "event_id"
        assert plan["estimated_rows"] == 1
        assert plan["table_rows"] == 40

    def test_explain_plan_in_multi_probe(self, events_db):
        select = Select("events", where=In("event_id", [3, 5, 8]))
        plan = events_db.explain_plan(select)
        assert plan["access"] == "in_probe"
        assert plan["in_keys"] == 3
        rows = events_db.execute(select)
        assert sorted(row["event_id"] for row in rows) == [3, 5, 8]

    def test_explain_plan_topn(self, events_db):
        plan = events_db.explain_plan(
            Select("events", order_by=[("rate", "desc")], limit=5)
        )
        assert plan["topn"] is True
        assert plan["limit_pushdown"] is False

    def test_explain_plan_limit_pushdown(self, events_db):
        plan = events_db.explain_plan(
            Select("events", order_by=[("start_time", "desc")], limit=5)
        )
        assert plan["access"] == "range_scan"
        assert plan["ordered"] is True
        assert plan["limit_pushdown"] is True
        assert plan["topn"] is False

    def test_planner_prefers_selective_conjunct(self, events_db):
        # kind has no index; start_time's range narrows to 3 rows while a
        # hypothetical full scan would touch 40 — the range must win.
        select = Select(
            "events",
            where=And([
                Comparison("kind", "=", "flare"),
                Between("start_time", 0.0, 20.0),
            ]),
        )
        plan = events_db.explain_plan(select)
        assert plan["access"] == "range_scan"
        assert plan["index_column"] == "start_time"
        assert plan["estimated_rows"] == 3

    def test_planner_prefers_probe_over_wide_range(self, events_db):
        # Equality on the pk (1 row) must beat a range covering all rows.
        select = Select(
            "events",
            where=And([
                Comparison("event_id", "=", 7),
                Between("start_time", 0.0, 1e9),
            ]),
        )
        plan = events_db.explain_plan(select)
        assert plan["access"] == "pk_probe"

    def test_explain_statement_execution(self, events_db):
        rows = events_db.execute("EXPLAIN SELECT * FROM events WHERE event_id = 7")
        assert rows[0]["access"] == "pk_probe"
        assert rows[0]["table"] == "events"

    def test_access_path_counters_mirrored(self, events_db):
        events_db.execute(Select("events", where=Comparison("event_id", "=", 7)))
        counter = events_db.obs.counter(
            "metadb.access_path", db=events_db.name, access="pk_probe"
        )
        assert counter.value >= 1

    def test_descending_bounded_range_streams_in_order(self, events_db):
        rows = events_db.execute(
            Select(
                "events",
                where=Between("start_time", 100.0, 200.0),
                order_by=[("start_time", "desc")],
                limit=4,
            )
        )
        assert [row["start_time"] for row in rows] == [200.0, 190.0, 180.0, 170.0]

    def test_topn_matches_full_sort(self, events_db):
        full = events_db.execute(Select("events", order_by=[("rate", "asc"), ("event_id", "desc")]))
        bounded = events_db.execute(
            Select("events", order_by=[("rate", "asc"), ("event_id", "desc")], limit=7, offset=3)
        )
        assert bounded == full[3:10]


class TestUpdateDelete:
    def test_update_returns_affected_count(self, events_db):
        affected = events_db.execute(
            Update("events", {"kind": "renamed"}, Comparison("kind", "=", "quiet"))
        )
        assert affected == 10
        assert len(events_db.execute(Select("events", where=Comparison("kind", "=", "renamed")))) == 10

    def test_update_maintains_indexes(self, events_db):
        events_db.execute(
            Update("events", {"start_time": 9999.0}, Comparison("event_id", "=", 0))
        )
        rows = events_db.execute(Select("events", where=Between("start_time", 9000.0, 10000.0)))
        assert [row["event_id"] for row in rows] == [0]

    def test_delete_with_predicate(self, events_db):
        deleted = events_db.execute(Delete("events", Comparison("kind", "=", "grb")))
        assert deleted == 10
        assert len(events_db.execute(Select("events"))) == 30


# -- statements whose literal or column does not fit --------------------------

MISTYPED = [
    Comparison("rate", ">", "x"),
    Comparison("start_time", "<=", "x"),
    Between("start_time", "a", "b"),
    Comparison("kind", ">", 3),
    Comparison("kind", "=", 3),
    And([Comparison("start_time", ">", 5.0), Comparison("start_time", "<", "x")]),
]


class TestMistypedRanges:
    """A comparison between types that do not compare is false on every
    row, whether an ordered index could seek the column or not."""

    @pytest.mark.parametrize("where", MISTYPED, ids=[
        "rate>x", "start_time<=x", "start_time-between-a-b", "kind>3", "kind=3",
        "start_time>5-and-<x"])
    @pytest.mark.parametrize("order_by, limit", [((), None), ([("start_time", "desc")], 5)])
    def test_indexed_and_unindexed_columns_agree(self, where, order_by, limit):
        indexed = _events_database([("start_time",), ("rate",), ("kind",)])
        bare = _events_database(())
        select = Select("events", where=where, order_by=order_by, limit=limit)
        assert indexed.execute(select) == bare.execute(select) == []
        assert indexed.execute(Update("events", {"rate": 1.0}, where)) == 0
        assert indexed.execute(Delete("events", where)) == 0

    def test_a_kept_range_plan_bound_to_a_mistyped_literal_matches_nothing(self):
        database = _events_database([("rate",)])
        prepared = PreparedBatch([Select("events", where=Comparison("rate", ">", Param(0)))])
        (rows,) = database.execute_batch(prepared.bind((90.0,)))
        assert sorted(row["rate"] for row in rows) == [92.0, 95.0, 96.0, 99.0]
        batch = prepared.bind(("x",))
        assert database.explain_plan(batch[0])["cached_plan"] is True
        assert database.execute_batch(batch) == [[]]


class TestSummableColumns:
    """SUM and AVG add up INTEGER, REAL and TIMESTAMP columns; over any
    other declared type they are a QueryError, rows or no rows."""

    @pytest.mark.parametrize("func", ["sum", "avg"])
    @pytest.mark.parametrize("column", ["kind", "flag"])
    @pytest.mark.parametrize("group_by", [(), ("kind",)])
    def test_a_column_that_is_no_number_is_a_query_error(self, events_db, func, column,
                                                         group_by):
        select = Select("events", group_by=group_by,
                        aggregates=[Aggregate(func, column, "x")])
        with pytest.raises(QueryError):
            events_db.execute(select)
        events_db.execute(Delete("events"))
        with pytest.raises(QueryError):
            events_db.execute(select)

    def test_numbers_and_times_add_up(self, events_db):
        rows = events_db.execute("SELECT SUM(event_id) AS s, AVG(at) AS a, "
                                 "SUM(rate) AS r FROM events")
        assert rows == [{"s": 780, "a": 1019.5, "r": sum(float((n * 37) % 100)
                                                          for n in range(40))}]


class TestAggregateOrderAndCut:
    """ORDER BY, OFFSET and LIMIT apply to an aggregate's output rows."""

    def test_order_by_an_alias_then_limit(self, events_db):
        assert events_db.execute("SELECT kind, COUNT(*) AS n FROM events GROUP BY kind "
                                 "ORDER BY n DESC LIMIT 1") == [{"kind": "flare", "n": 20}]

    def test_order_by_a_group_column_with_offset(self, events_db):
        select = Select("events", group_by=["kind"], order_by=[("kind", "desc")], offset=1,
                        aggregates=[Aggregate("max", "rate", "top")])
        assert [row["kind"] for row in events_db.execute(select)] == ["grb", "flare"]

    def test_limit_zero_drops_the_one_row(self, events_db):
        assert events_db.execute("SELECT COUNT(*) AS n FROM events LIMIT 0") == []
        assert events_db.execute("SELECT COUNT(*) AS n FROM events LIMIT 1 OFFSET 1") == []

    def test_ties_keep_the_group_order(self, events_db):
        rows = events_db.execute("SELECT kind, COUNT(*) AS n FROM events GROUP BY kind "
                                 "ORDER BY n ASC")
        assert [row["kind"] for row in rows] == ["grb", "quiet", "flare"]

    def test_order_by_what_the_output_lacks_is_a_query_error(self):
        with pytest.raises(QueryError):
            Select("events", group_by=["kind"], order_by=[("rate", "asc")],
                   aggregates=[Aggregate("count", "*", "n")])
        with pytest.raises(QueryError):
            parse("SELECT COUNT(*) AS n FROM events ORDER BY kind")

    def test_a_join_is_cut_after_it_is_ordered(self):
        database = Database()
        database.create_table(TableSchema(
            "owners", [Column("owner_id", ColumnType.INTEGER, nullable=False),
                       Column("name", ColumnType.TEXT)], primary_key="owner_id"))
        database.create_table(TableSchema(
            "items", [Column("item_id", ColumnType.INTEGER, nullable=False),
                      Column("owner_id", ColumnType.INTEGER)], primary_key="item_id"))
        for owner_id, name in ((1, "b"), (2, "a")):
            database.execute(Insert("owners", {"owner_id": owner_id, "name": name}))
        for item_id in range(6):
            database.execute(Insert("items", {"item_id": item_id, "owner_id": item_id % 2 + 1}))
        join = Join("owners", "owner_id", "owner_id")
        rows = database.execute(Select("items", join=join, order_by=[("name", "asc")],
                                       columns=["item_id"], offset=1, limit=2))
        assert rows == [{"item_id": 3}, {"item_id": 5}]
        counted = database.execute(Select("items", join=join, group_by=["name"],
                                          aggregates=[Aggregate("count", "*", "n")],
                                          order_by=[("name", "desc")], limit=1))
        assert counted == [{"name": "b", "n": 3}]


# -- the row path on a wide table with NULLs in every column -------------------
#
# References: the predicate walk (``oracle_predicate``), the old sort key
# (``oracle_ordering``) and literal expectations.

KINDS = ["flare", "quiet", "storm", "abc\n", "ab%c"]
N_WIDE = 3000


def wide_schema(indexes=(("val",), ("kind",))) -> TableSchema:
    return TableSchema(
        "ev",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("kind", ColumnType.TEXT),
            Column("comment", ColumnType.TEXT),
            Column("val", ColumnType.REAL),
            Column("n", ColumnType.INTEGER),
            Column("flag", ColumnType.BOOLEAN),
            Column("at", ColumnType.TIMESTAMP),
        ],
        primary_key="id",
        indexes=indexes,
    )


def wide_rows(n: int = N_WIDE, seed: int = 11) -> list[dict]:
    """Deterministic rows: dyadic rationals for REAL (so any summation
    order gives the same total) and NULLs in every column."""
    rng = random.Random(seed)
    return [{
        "id": i,
        "kind": rng.choice(KINDS) if rng.random() > 0.1 else None,
        "comment": f"note-{rng.randrange(10_000)}" if rng.random() > 0.1 else None,
        "val": rng.randint(0, 4000) / 4 if rng.random() > 0.1 else None,
        "n": rng.randint(0, 100) if rng.random() > 0.05 else None,
        "flag": rng.random() > 0.5 if rng.random() > 0.1 else None,
        "at": float(rng.randrange(0, 1_000_000)) if rng.random() > 0.1 else None,
    } for i in range(n)]


def _filled(schema: TableSchema, rows: list[dict], name: str = "wide") -> Database:
    database = Database(name=name)
    database.create_table(schema)
    for row in rows:
        database.execute(Insert(schema.name, dict(row)))
    return database


@pytest.fixture(scope="module")
def wide_db() -> Database:
    return _filled(wide_schema(), wide_rows())


def oracle_answer(db: Database, select: Select) -> list[dict]:
    """``select`` answered over the row store by the oracles: the
    predicate walk, the old sort key, then OFFSET, LIMIT and projection."""
    rows = ordered([row for row in db.table(select.table).rows()
                    if select.where is None or matches(select.where, row)],
                   select.order_by)
    stop = None if select.limit is None else select.offset + select.limit
    columns = select.columns
    return [dict(row) if columns is None else {c: row[c] for c in columns}
            for row in rows[select.offset:stop]]


def oracle_aggregates(db: Database, select: Select) -> list[dict]:
    """An aggregate ``select`` over the oracle's matches: groups in the
    order of their keys' reprs, a NULL-only input aggregating to NULL."""
    groups: dict[tuple, list[dict]] = {} if select.group_by else {(): []}
    for row in oracle_answer(db, Select(select.table, where=select.where)):
        groups.setdefault(tuple(row[c] for c in select.group_by), []).append(row)
    reduce = {"sum": sum, "min": min, "max": max,
              "avg": lambda values: sum(values) / len(values)}
    answer = []
    for key in sorted(groups, key=lambda key: tuple(map(repr, key))):
        out = dict(zip(select.group_by, key))
        for aggregate in select.aggregates:
            values = groups[key] if aggregate.column == "*" else \
                [row[aggregate.column] for row in groups[key]
                 if row[aggregate.column] is not None]
            if aggregate.func == "count":
                out[aggregate.alias] = len(values)
            else:
                out[aggregate.alias] = reduce[aggregate.func](values) if values else None
        answer.append(out)
    return answer


def multiset(rows) -> list[str]:
    return sorted(repr(sorted(row.items())) for row in rows)


def assert_oracle(db: Database, select: Select) -> list[dict]:
    """The row path equals the oracle: as lists under ORDER BY, as
    multisets otherwise (an index streams its rows in key order)."""
    answer = db.execute(select)
    expected = oracle_answer(db, select)
    if select.order_by:
        assert answer == expected
    else:
        assert multiset(answer) == multiset(expected)
    return answer


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
            ("id", rng.randrange(N_WIDE)),
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
    def test_selective_index_wins(self, wide_db):
        plan = wide_db.explain_plan(Select("ev", where=Comparison("id", "=", 17)))
        assert plan["access"] == "pk_probe"
        plan = wide_db.explain_plan(Select("ev", where=Between("val", 10.0, 10.5)))
        assert plan["access"] == "range_scan"

    def test_bounded_order_walks_the_index(self, wide_db):
        plan = wide_db.explain_plan(Select("ev", order_by=[("val", "asc")], limit=5))
        assert (plan["access"], plan["index_column"], plan["ordered"],
                plan["limit_pushdown"]) == ("range_scan", "val", True, True)


class TestDifferentialRandomized:
    def test_random_filters_match_the_oracle(self, wide_db):
        rng = random.Random(4000)
        for _ in range(60):
            assert_oracle(wide_db, Select("ev", where=random_predicate(rng)))

    def test_random_order_limit_offset(self, wide_db):
        rng = random.Random(4100)
        for _ in range(25):
            assert_oracle(wide_db, Select(
                "ev",
                where=random_predicate(rng),
                order_by=[(rng.choice(["val", "n", "id", "kind"]),
                           rng.choice(["asc", "desc"])), ("id", "asc")],
                limit=rng.choice([None, 0, 7, 500]),
                offset=rng.choice([0, 3]),
            ))

    def test_random_aggregates(self, wide_db):
        rng = random.Random(4200)
        for _ in range(30):
            select = Select(
                "ev", where=random_predicate(rng),
                group_by=rng.choice([(), ("kind",), ("n",), ("flag",)]),
                aggregates=[
                    Aggregate("count", "*", "c"),
                    Aggregate(rng.choice(["sum", "avg", "min", "max"]),
                              rng.choice(["n", "val"]), "x"),
                    Aggregate(rng.choice(["min", "max"]), "kind", "k"),
                    Aggregate("count", "comment", "cc"),
                ],
            )
            assert wide_db.execute(select) == oracle_aggregates(wide_db, select)

    def test_projection_applies_on_a_sweep(self, wide_db):
        rows = assert_oracle(wide_db, Select("ev", columns=["id", "kind"],
                                             where=Comparison("n", ">", 50)))
        assert set(rows[0]) == {"id", "kind"}


class TestNullAndLikeEdges:
    def test_nulls_last_both_directions(self, wide_db):
        for direction in ("asc", "desc"):
            rows = assert_oracle(wide_db, Select(
                "ev", where=Comparison("n", ">=", 0),
                order_by=[("val", direction), ("id", "asc")],
            ))
            values = [row["val"] for row in rows]
            first_null = values.index(None)
            assert set(values[first_null:]) == {None}
            assert None not in values[:first_null]

    def test_comparisons_never_match_null(self, wide_db):
        for op in ("=", "!=", "<", ">="):
            rows = assert_oracle(wide_db, Select("ev", where=Comparison("kind", op, "flare")))
            assert rows and all(row["kind"] is not None for row in rows)

    def test_not_over_comparison_excludes_nulls(self, wide_db):
        # NOT(kind = x) is true on a NULL kind in this engine: the
        # comparison is false there, and NOT flips it.
        rows = assert_oracle(wide_db, Select("ev", where=Not(Comparison("kind", "=", "flare"))))
        assert any(row["kind"] is None for row in rows)
        assert all(row["kind"] != "flare" for row in rows)

    def test_avg_of_empty_group_is_null(self, wide_db):
        select = Select(
            "ev", where=Comparison("n", ">", 100_000),
            aggregates=[Aggregate("avg", "val", "a"), Aggregate("count", "*", "c")],
        )
        assert wide_db.execute(select) == [{"a": None, "c": 0}]

    def test_grouped_aggregate_with_null_group_key(self, wide_db):
        select = Select(
            "ev", group_by=["kind"],
            aggregates=[Aggregate("count", "*", "c"), Aggregate("sum", "n", "s")],
        )
        rows = wide_db.execute(select)
        assert rows == oracle_aggregates(wide_db, select)
        assert rows[-1]["kind"] is None and rows[-1]["c"] > 0

    def test_like_newline_regression(self, wide_db):
        # '%' and '_' match a newline, and a pattern without a trailing
        # wildcard does not accept one.
        for pattern in ("abc%", "abc_", "abc", "%\n", "ab%"):
            assert_oracle(wide_db, Select("ev", where=Like("kind", pattern)))
        rows = wide_db.execute(Select("ev", where=Like("kind", "abc_")))
        assert {row["kind"] for row in rows} == {"abc\n"}
        assert wide_db.execute(Select("ev", where=Like("kind", "abc"))) == []

    def test_like_on_numeric_column_matches_nothing(self, wide_db):
        assert wide_db.execute(Select("ev", where=Like("n", "1%"))) == []

    def test_mixed_type_comparison_is_false_per_row(self, wide_db):
        assert wide_db.execute(Select("ev", where=Comparison("n", "<", "banana"))) == []


class TestConsistencyWithRowStore:
    def test_a_sweep_sees_insert_update_delete(self):
        db = _filled(wide_schema(), wide_rows(500, seed=5), name="mut")
        sweep = Select("ev", where=Comparison("n", ">=", 0))
        before = assert_oracle(db, sweep)
        db.execute(Insert("ev", {"id": 10_000, "kind": "flare", "n": 1}))
        db.execute(Update("ev", {"n": 99}, where=Comparison("id", "=", 10_000)))
        db.execute(Delete("ev", where=Comparison("id", "=", 0)))
        after = assert_oracle(db, sweep)
        assert {"id": 10_000, "kind": "flare", "comment": None, "val": None, "n": 99,
                "flag": None, "at": None} in after
        assert [row for row in after if row["id"] != 10_000] == \
            [row for row in before if row["id"] != 0]

    def test_scan_order_matches_row_store_iteration(self, wide_db):
        assert wide_db.execute(Select("ev")) == list(wide_db.table("ev").rows())

    def test_rollback_restores_the_sweep(self):
        db = _filled(wide_schema(), wide_rows(300, seed=9), name="txm")
        sweep = Select("ev", where=Comparison("n", ">=", 0))
        baseline = db.execute(sweep)
        tx = db.begin()
        db.execute(Insert("ev", {"id": 77_000, "kind": "storm", "n": 3}), tx=tx)
        assert db.execute(sweep, tx=tx) != baseline
        db.rollback(tx)
        assert db.execute(sweep) == baseline


class TestStatsStalenessRegression:
    def test_plan_flips_back_after_bulk_delete(self):
        """A bulk DELETE refreshes the planner statistics: ``table_rows``
        reflects the survivors, and a top-N that walked ``val``'s index
        over 2 000 rows takes the ``kind`` range over 100."""
        db = _filled(wide_schema(), wide_rows(2000, seed=13), name="bulk")
        top = Select("ev", where=Comparison("kind", "=", "flare"),
                     order_by=[("val", "desc")], limit=50)
        plan = db.explain_plan(top)
        assert (plan["index_column"], plan["ordered"], plan["table_rows"]) == \
            ("val", True, 2000)
        db.execute(Delete("ev", where=Comparison("id", ">=", 100)))
        plan = db.explain_plan(top)
        assert (plan["index_column"], plan["ordered"], plan["table_rows"]) == \
            ("kind", False, 100)
        assert_oracle(db, top)

    def test_stats_cache_reused_within_threshold(self):
        db = _filled(wide_schema(), wide_rows(1000, seed=17), name="cache")
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


class TestShardedScatter:
    def test_scatter_gather_is_layout_agnostic(self):
        from repro.schema import install_all
        from repro.shard import ShardedDatabase

        day = 86_400.0
        single = Database(name="single")
        sharded = ShardedDatabase(boundaries=(day, 2 * day), name="sharded")
        for db in (single, sharded):
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
            for db in (single, sharded):
                db.execute(Insert("hle", row))

        for select in (
            Select("hle", where=Comparison("peak_rate", ">=", 0.0),
                   order_by=[("start_time", "asc")]),
            Select("hle", where=Like("kind", "f%"), order_by=[("hle_id", "asc")]),
            Select("hle", group_by=["kind"],
                   aggregates=[Aggregate("count", "*", "c"),
                               Aggregate("max", "peak_rate", "p")]),
            Select("hle", group_by=["kind"], order_by=[("c", "desc")], limit=2,
                   aggregates=[Aggregate("count", "*", "c"),
                               Aggregate("avg", "peak_rate", "p")]),
        ):
            assert sharded.execute(select) == single.execute(select)


# -- ORDER BY over ties ----------------------------------------------------------
#
# Every value comes from a small pool, so ties are the rule: the row sort,
# the walk down an ordered index and the sharded merge have to leave them
# where the old sort key does.

FLOATS = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, 5e-324, None]
INTS = [0, 1, -1, 2**63 - 1, -2**63, None]
BOOLS = [True, False, None]
CODES = ["a", "ab", "b", "", None]
ORDER_COLUMNS = ["f", "i8", "b", "code", "note", "at", "id", "ghost"]


def order_schema(indexes=()) -> TableSchema:
    """No secondary index unless asked for: nothing competes with the scan."""
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
        indexes=indexes,
        placement=partitioned("at"),      # read by the sharded build only
    )


order_rows = st.lists(
    st.fixed_dictionaries({
        "f": st.sampled_from(FLOATS),
        "i8": st.sampled_from(INTS),
        "b": st.sampled_from(BOOLS),
        "code": st.sampled_from(CODES),
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

top_n_statements = st.builds(
    Select,
    table=st.just("ev"),
    where=st.sampled_from([
        None, Comparison("id", ">=", 3), Comparison("code", "=", "a"),
        Comparison("f", "<=", 0.0), Between("f", -1.5, 1.5), IsNull("f", negated=True),
    ]),
    order_by=st.sampled_from([[("f", "asc")], [("f", "desc")]]),
    limit=st.sampled_from([None, 0, 1, 7, 100]),
    offset=st.sampled_from([0, 1, 13]),
)


def tie_runs(rows: list[dict], cut: bool, column: str = "f") -> list[tuple]:
    """``rows`` as runs of equal ``column``: each run's ids, but only the
    length of the first and last when OFFSET or LIMIT may cut them (which
    of several tied rows a cut keeps is each path's own order)."""
    runs = [(value, frozenset(row["id"] for row in run))
            for value, run in itertools.groupby(rows, key=lambda row: row[column])]
    if cut and runs:
        for index in {0, len(runs) - 1}:
            runs[index] = (runs[index][0], len(runs[index][1]))
    return runs


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
def tied_db(tied_rows) -> Database:
    return _filled(order_schema(), tied_rows, name="ord")


@pytest.fixture(scope="module")
def tied_shards(tied_rows):
    from repro.shard import ShardedDatabase

    sharded = ShardedDatabase(
        boundaries=(300.0, 600.0, 900.0), name="ord-4x2", replicas_per_shard=2,
    )
    sharded.create_table(order_schema())
    for row in tied_rows:
        sharded.execute(Insert("ev", dict(row)))
    yield sharded
    sharded.close()


class TestRowOrder:
    @settings(max_examples=120, deadline=None)
    @given(rows=order_rows, select=order_statements)
    def test_random_tables_match_the_oracle_as_lists(self, rows, select):
        db = _filled(order_schema(), rows, name="ord")
        assert db.execute(select) == oracle_answer(db, select)

    @settings(max_examples=150, deadline=None)
    @given(select=order_statements)
    def test_tied_table_matches_the_oracle_and_shards(self, tied_db, tied_shards, select):
        answer = tied_db.execute(select)
        assert answer == oracle_answer(tied_db, select)
        assert tied_shards.execute(select) == answer

    @settings(max_examples=150, deadline=None)
    @given(rows=order_rows, select=top_n_statements)
    def test_walk_and_row_sort_return_the_same_rows(self, rows, select):
        """``ORDER BY f ... LIMIT n`` two ways over NULLs and ties: the
        walk down ``f``'s ordered index and the row sort give the same
        ``f`` sequence and the same rows in every run of ties no cut
        reaches."""
        table = Table(order_schema(indexes=[("f",)]))
        for row in rows:
            table.insert_row(table.schema.normalize_row(row))
        walk, sort = (execute_select({"ev": table}, select, plan=Plan(*access))
                      for access in (("range_scan", "f", True), ("full_scan",)))
        cut = select.limit is not None or select.offset > 0
        assert [row["f"] for row in walk] == [row["f"] for row in sort]
        assert tie_runs(walk, cut) == tie_runs(sort, cut)


class TestNanOrder:
    """A NaN in a REAL column sorts with the NULLs, last both ways, on
    every path: the row sort, the walk down the ordered index and the
    merge of four shards' runs, with one copy of each shard and with two."""

    VALUES = [3.0, math.nan, 1.0, 2.0, None, -1.0, math.nan, 5.0, 0.5, None,
              4.0, math.nan, 2.0, -math.inf]

    @pytest.fixture(scope="class")
    def rows(self) -> list[dict]:
        return [{"id": i, "at": 100.0 * i, "f": value}
                for i, value in enumerate(self.VALUES)]

    @pytest.fixture(scope="class", params=[1, 2], ids=["4x1", "4x2"])
    def shards(self, request, rows):
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(boundaries=(350.0, 700.0, 1050.0),
                                  name=f"nan-4x{request.param}",
                                  replicas_per_shard=request.param)
        sharded.create_table(order_schema(indexes=[("f",)]))
        for row in rows:
            sharded.execute(Insert("ev", dict(row)))
        yield sharded
        sharded.close()

    @staticmethod
    def runs(rows: list[dict], cut: bool) -> list[tuple]:
        """:func:`tie_runs` with NaN counted as NULL."""
        return tie_runs([{"id": row["id"],
                          "f": None if row["f"] != row["f"] else row["f"]}
                         for row in rows], cut)

    def expected(self, rows: list[dict], direction: str) -> list[dict]:
        valued = [row for row in rows if row["f"] is not None and row["f"] == row["f"]]
        valued.sort(key=lambda row: row["f"], reverse=direction == "desc")
        return valued + [row for row in rows if row not in valued]

    @pytest.mark.parametrize("direction", ["asc", "desc"])
    @pytest.mark.parametrize("limit", [None, 4, 13])
    def test_every_path_puts_nan_with_the_nulls(self, rows, shards, direction, limit):
        select = Select("ev", order_by=[("f", direction)], limit=limit)
        table = Table(order_schema(indexes=[("f",)]))
        for row in rows:
            table.insert_row(table.schema.normalize_row(row))
        answers = {
            "full_scan": execute_select({"ev": table}, select, plan=Plan("full_scan")),
            "walk": execute_select({"ev": table}, select,
                                   plan=Plan("range_scan", "f", True)),
            "sharded": shards.execute(select),
        }
        cut = limit is not None
        expected = self.runs(self.expected(rows, direction)[:limit], cut)
        assert {path: self.runs(answer, cut) for path, answer in answers.items()} == \
            dict.fromkeys(answers, expected)


# -- the residual WHERE under every access path ---------------------------------
#
# An access path leaves out of the filter only the conjuncts it enforces
# exactly (``query.split_where``).  Every path the planner could take must
# still return what the predicate oracle keeps of a full scan, and UPDATE
# and DELETE must touch exactly those rows, in row-store order.

def residual_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("code", ColumnType.TEXT),
            Column("x", ColumnType.INTEGER),
            Column("y", ColumnType.REAL),
            Column("kind", ColumnType.INTEGER),
        ],
        primary_key="id",
        unique=[("code",)],
        indexes=[("x",), ("y",)],
    )


MIXED_LITERALS = st.one_of(
    st.none(), st.integers(-2, 9), st.sampled_from([-1.5, 0.5, 2.5, 7.0]),
    st.booleans(), st.sampled_from(["", "c1", "c4", "z"]))
RESIDUAL_COLUMNS = st.sampled_from(["id", "code", "x", "y", "kind"])
_equality = st.builds(Comparison, RESIDUAL_COLUMNS, st.just("="), MIXED_LITERALS)

residual_rows = st.lists(
    st.fixed_dictionaries({
        "code": st.booleans(),
        "x": st.one_of(st.none(), st.integers(0, 8)),
        "y": st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.5, 7.0])),
        "kind": st.one_of(st.none(), st.integers(0, 2)),
    }),
    max_size=30,
).map(lambda rows: [{**row, "id": i, "code": f"c{i}" if row["code"] else None}
                    for i, row in enumerate(rows)])

residual_conjuncts = st.one_of(
    st.builds(Comparison, RESIDUAL_COLUMNS,
              st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), MIXED_LITERALS),
    st.builds(Between, RESIDUAL_COLUMNS, MIXED_LITERALS, MIXED_LITERALS),
    st.builds(In, RESIDUAL_COLUMNS, st.lists(MIXED_LITERALS, max_size=3)),
    st.builds(IsNull, RESIDUAL_COLUMNS, st.booleans()),
    st.builds(lambda first, second: Or([first, second]), _equality, _equality),
)

residual_selects = st.builds(
    lambda conjuncts_, order_by, cut: Select(
        "t", where=conjuncts_[0] if len(conjuncts_) == 1 else And(conjuncts_),
        order_by=order_by, limit=cut[0] if order_by else None,
        offset=cut[1] if order_by else 0),
    st.lists(residual_conjuncts, min_size=1, max_size=4),
    st.sampled_from([[], [("x", "asc")], [("x", "desc")], [("y", "asc")],
                     [("y", "desc")], [("kind", "asc")]]),
    st.sampled_from([(None, 0), (0, 0), (3, 0), (3, 2)]),
)


def access_paths(select: Select) -> list[Plan]:
    """Every plan the planner could pick for ``select``: a scan, a probe
    of each unique index an ``=`` or an IN names, a range on each ordered
    index (a seek where its bounds allow one) and the walk its ORDER BY
    offers."""
    where = conjuncts(select.where)
    plans = [Plan("full_scan")]
    for column, access in (("id", "pk_probe"), ("code", "hash_probe")):
        if any(type(c) is Comparison and c.op == "=" and c.column == column for c in where):
            plans.append(Plan(access, column))
        listed = [c for c in where if type(c) is In and c.column == column]
        if listed:
            plans.append(Plan("in_probe", column,
                              keys=tuple(sorted(listed[0].values, key=repr))))
    for column in ("x", "y"):
        plans.append(Plan("range_scan", column))
        if [column] == [c for c, _direction in select.order_by]:
            plans.append(Plan("range_scan", column, ordered=True))
    return [_finalize(plan, select) for plan in plans]


def by_id(row: dict) -> int:
    return row["id"]


def assert_every_path(db: Database, select: Select) -> None:
    table = db.table("t")
    expected = order_and_cut(
        [dict(row) for row in table.rows() if matches(select.where, row)], select)
    answers = [db.execute(select)] + [
        execute_select({"t": table}, select, plan=plan) for plan in access_paths(select)]
    for answer in answers:
        if select.order_by:
            cut = select.limit is not None or select.offset > 0
            column = select.order_by[0][0]
            assert tie_runs(answer, cut, column) == tie_runs(expected, cut, column)
        else:
            assert sorted(answer, key=by_id) == sorted(expected, key=by_id)


def assert_writes_match(db: Database, where) -> None:
    """UPDATE and DELETE through ``_target_rowids`` touch exactly the rows
    the oracle matches, in row-store order, and roll back."""
    table = db.table("t")
    for statement in (Update("t", {"kind": 99}, where), Delete("t", where)):
        expected = [rowid for rowid in table.rowids() if matches(where, table.row(rowid))]
        tx = db.begin()
        assert db.execute(statement, tx=tx) == len(expected)
        assert [record["rowid"] for record in tx.redo] == expected
        db.rollback(tx)


NAMED_RESIDUALS = {
    "eq-then-contradicting-range": And([Comparison("x", "=", 5), Comparison("x", ">", 7)]),
    "range-then-eq": And([Comparison("x", ">", 7), Comparison("x", "=", 8)]),
    "tied-bounds": And([Comparison("x", ">", 5), Comparison("x", ">=", 5)]),
    "tied-bounds-reversed": And([Comparison("x", ">=", 5), Comparison("x", ">", 5)]),
    "between-null-and-5": Between("x", None, 5),
    "gt-null": Comparison("x", ">", None),
    "gt-null-and-range": And([Comparison("y", ">", None), Comparison("y", "<", 7.0)]),
    "in-with-null-member": In("id", [1, None, 3]),
    "two-ins-on-the-key": And([In("id", [1, 2, 3, 5]), In("id", [3, 4, 5])]),
    "range-and-not-equal-on-the-seek-column": And([Between("x", 1, 8),
                                                   Comparison("x", "!=", 5)]),
    "unique-in-with-null-member": And([In("code", ["c1", None, "c4"]),
                                       Comparison("kind", "!=", 2)]),
    "true-against-integer": Comparison("kind", "=", True),
    "true-against-indexed-integer": Comparison("x", "=", True),
    "true-probing-the-key": Comparison("id", "=", True),
    "range-and-visibility-like-or": And([
        Between("y", 0.0, 7.0),
        Or([Comparison("kind", "=", 1), Comparison("x", "=", 3)])]),
    "mistyped-bound-beside-a-seekable-one": And([Comparison("y", ">", 0.0),
                                                 Comparison("y", "<", "z")]),
}


@pytest.fixture(scope="module")
def residual_db() -> Database:
    rng = random.Random(36)
    return _filled(residual_schema(), [{
        "id": i, "code": f"c{i}" if rng.random() > 0.2 else None,
        "x": rng.randint(0, 9) if rng.random() > 0.15 else None,
        "y": rng.choice([-1.5, 0.0, 0.5, 2.5, 7.0, None]),
        "kind": rng.choice([0, 1, 2, None]),
    } for i in range(80)], name="residual")


class TestResidualWhere:
    @pytest.mark.parametrize("where", NAMED_RESIDUALS.values(), ids=NAMED_RESIDUALS.keys())
    @pytest.mark.parametrize("order_by, limit", [
        ((), None), ([("x", "asc")], None), ([("x", "desc")], 4), ([("y", "asc")], 3)])
    def test_named_cases_on_every_path(self, residual_db, where, order_by, limit):
        assert_every_path(residual_db, Select("t", where=where, order_by=order_by,
                                              limit=limit))
        assert_writes_match(residual_db, where)

    @settings(max_examples=200, deadline=None)
    @given(rows=residual_rows, select=residual_selects)
    def test_every_access_path_returns_what_the_oracle_keeps(self, rows, select):
        db = _filled(residual_schema(), rows, name="residual")
        assert_every_path(db, select)
        assert_writes_match(db, select.where)

    def test_a_kept_range_plan_rebound_to_a_str_literal(self, residual_db):
        """The plan kept for ``y > ?`` seeks ``y``; bound to a string it
        scans instead, and the filter keeps the comparison it can no
        longer leave to the seek."""
        prepared = PreparedBatch([Select("t", where=Comparison("y", ">", Param(0)))])
        for value, index_cond, residual in ((0.5, ["y > 0.5"], []),
                                            ("z", [], ["y > 'z'"])):
            (select,) = prepared.bind((value,))
            (rows,) = residual_db.execute_batch([select])
            assert_every_path(residual_db, select)
            plan = residual_db.explain_plan(select)
            assert (plan["access"], plan["index_column"]) == ("range_scan", "y")
            assert (plan["index_cond"], plan["filter"]) == (index_cond, residual)
        assert plan["cached_plan"] is True and rows == []

    def test_nan_keys_and_literals_match_nothing(self):
        """No comparison with NaN holds.  A probe finds a stored NaN key by
        identity and a seek from a NaN literal starts at the first key, so
        neither leaves a NaN literal to the index; an ordered index keeps
        NaN keys beside its NULLs, out of every seek (in its key list, a
        NaN broke bisect's order: this walk returned 3.0, 1.0, 2.0)."""
        db = Database()
        db.create_table(TableSchema("n", [Column("k", ColumnType.REAL, nullable=False),
                                          Column("v", ColumnType.REAL)],
                                    primary_key="k", indexes=[("v",)]))
        for k, v in ((math.nan, 3.0), (2.0, math.nan), (3.0, 1.0), (4.0, 2.0),
                     (5.0, math.inf)):
            db.execute(Insert("n", {"k": k, "v": v}))
        for where in (Comparison("k", "=", math.nan), Between("v", math.nan, 5.0)):
            assert db.execute(Select("n", where=where)) == []
            assert db.execute(Update("n", {"v": 0.0}, where)) == 0
        assert [row["v"] for row in db.execute(Select("n", where=Between("v", 0.5, 9.0),
                                                      order_by=[("v", "asc")]))] == \
            [1.0, 2.0, 3.0]

    def test_explain_splits_the_where(self, residual_db):
        plan = residual_db.explain_plan(Select("t", where=And([
            Comparison("id", "=", 4), Comparison("kind", "=", 1)])))
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("pk_probe", ["id = 4"], ["kind = 1"])
        plan = residual_db.explain_plan(Select("t", where=And([
            Comparison("x", "=", 5), Comparison("x", ">", 7)])))
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("range_scan", [], ["x = 5", "x > 7"])
        plan = residual_db.explain_plan(Select("t", where=In("code", ["c1", None])))
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("in_probe", ["code IN ('c1', NULL)"], [])
        plan = residual_db.explain_plan(Select("t", where=IsNull("kind")))
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("full_scan", [], ["kind IS NULL"])
