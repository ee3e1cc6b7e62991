"""Tests for predicates, indexes, planning and query execution."""

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
    In,
    Insert,
    IsNull,
    Join,
    Like,
    Not,
    Or,
    QueryError,
    SchemaError,
    Select,
    TableSchema,
    Update,
)
from repro.metadb.index import HashIndex, OrderedIndex
from repro.metadb.predicate import conjuncts, equality_on, range_on
from repro.metadb.query import _apply_order

from .oracle_ordering import ordered


class TestPredicates:
    def test_comparison_operators(self):
        row = {"x": 5}
        assert Comparison("x", "=", 5).matches(row)
        assert Comparison("x", "!=", 4).matches(row)
        assert Comparison("x", "<", 6).matches(row)
        assert Comparison("x", ">=", 5).matches(row)
        assert not Comparison("x", ">", 5).matches(row)

    def test_comparison_with_null_is_false(self):
        assert not Comparison("x", "=", 5).matches({"x": None})
        assert not Comparison("x", "=", None).matches({"x": 5})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("x", "~", 1)

    def test_between_inclusive(self):
        predicate = Between("x", 1, 3)
        assert predicate.matches({"x": 1})
        assert predicate.matches({"x": 3})
        assert not predicate.matches({"x": 4})

    def test_in_and_like(self):
        assert In("k", ["a", "b"]).matches({"k": "a"})
        assert not In("k", ["a", "b"]).matches({"k": "c"})
        assert Like("s", "fla%").matches({"s": "flare"})
        assert Like("s", "f_are").matches({"s": "flare"})
        assert not Like("s", "fla%").matches({"s": "burst"})

    def test_like_non_string_is_false(self):
        assert not Like("s", "%").matches({"s": 5})

    def test_like_rejects_trailing_newline(self):
        # Regression: a $-anchored re.match accepted "abc\n" for LIKE 'abc'.
        assert not Like("s", "abc").matches({"s": "abc\n"})
        assert not Like("s", "ab_").matches({"s": "abc\n"})
        assert Like("s", "abc").matches({"s": "abc"})
        assert Like("s", "abc%").matches({"s": "abc\n"})  # % may span newlines
        assert Like("s", "ab_").matches({"s": "ab\n"})    # _ is any single char

    def test_is_null(self):
        assert IsNull("x").matches({"x": None})
        assert IsNull("x", negated=True).matches({"x": 1})

    def test_boolean_combinators(self):
        predicate = (Comparison("a", ">", 1) & Comparison("a", "<", 5)) | Comparison("b", "=", 0)
        assert predicate.matches({"a": 3, "b": 9})
        assert predicate.matches({"a": 99, "b": 0})
        assert not predicate.matches({"a": 99, "b": 9})
        assert (~Comparison("a", "=", 1)).matches({"a": 2})

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


@pytest.fixture()
def events_db() -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "events",
            [
                Column("event_id", ColumnType.INTEGER, nullable=False),
                Column("kind", ColumnType.TEXT),
                Column("start_time", ColumnType.REAL),
                Column("rate", ColumnType.REAL),
            ],
            primary_key="event_id",
            indexes=[("start_time",)],
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
                },
            )
        )
    return database


class TestSelectExecution:
    def test_full_scan_where(self, events_db):
        rows = events_db.execute(Select("events", where=Comparison("kind", "=", "grb")))
        assert len(rows) == 10
        assert all(row["kind"] == "grb" for row in rows)

    def test_pk_probe_plan_and_result(self, events_db):
        select = Select("events", where=Comparison("event_id", "=", 7))
        assert events_db.explain(select) == "PK_PROBE on event_id"
        rows = events_db.execute(select)
        assert len(rows) == 1 and rows[0]["event_id"] == 7

    def test_range_scan_plan_and_result(self, events_db):
        select = Select("events", where=Between("start_time", 100.0, 150.0))
        assert events_db.explain(select) == "RANGE_SCAN on start_time"
        rows = events_db.execute(select)
        assert sorted(row["event_id"] for row in rows) == [10, 11, 12, 13, 14, 15]

    def test_order_by_asc_desc(self, events_db):
        asc = events_db.execute(Select("events", order_by=[("rate", "asc")], limit=3))
        desc = events_db.execute(Select("events", order_by=[("rate", "desc")], limit=3))
        assert asc[0]["rate"] <= asc[1]["rate"] <= asc[2]["rate"]
        assert desc[0]["rate"] >= desc[1]["rate"] >= desc[2]["rate"]

    def test_order_by_uses_ordered_index_when_available(self, events_db):
        select = Select("events", order_by=[("start_time", "desc")], limit=5)
        assert "RANGE_SCAN" in events_db.explain(select)
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
        """compile()(row) must agree with matches(row) for every node type."""
        rng = random.Random(1234)
        for _trial in range(300):
            predicate = _random_predicate(rng)
            compiled = predicate.compile()
            for _row in range(20):
                row = _random_row(rng)
                assert compiled(row) == predicate.matches(row), (predicate, row)

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
        from repro.metadb import Delete

        deleted = events_db.execute(Delete("events", Comparison("kind", "=", "grb")))
        assert deleted == 10
        assert len(events_db.execute(Select("events"))) == 30
