"""Tests for the SQL dialect: parsing, generation, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metadb import (
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    Delete,
    Explain,
    In,
    Insert,
    IsNull,
    Join,
    Like,
    QueryError,
    Select,
    TableSchema,
    Update,
    parse,
    prepare,
    to_sql,
)
from repro.metadb.query import Aggregate


class TestParseSelect:
    def test_star(self):
        statement = parse("SELECT * FROM hle")
        assert isinstance(statement, Select)
        assert statement.table == "hle"
        assert statement.columns is None

    def test_columns(self):
        statement = parse("select hle_id, kind from hle")
        assert statement.columns == ["hle_id", "kind"]

    def test_where_comparisons(self):
        statement = parse("SELECT * FROM hle WHERE peak_rate >= 100.5")
        assert isinstance(statement.where, Comparison)
        assert statement.where.op == ">="
        assert statement.where.value == 100.5

    def test_ne_spellings(self):
        assert parse("SELECT * FROM t WHERE a != 1").where.op == "!="
        assert parse("SELECT * FROM t WHERE a <> 1").where.op == "!="

    def test_string_literal_with_escaped_quote(self):
        statement = parse("SELECT * FROM t WHERE name = 'O''Neil'")
        assert statement.where.value == "O'Neil"

    def test_between_in_like_isnull(self):
        assert isinstance(parse("SELECT * FROM t WHERE a BETWEEN 1 AND 2").where, Between)
        in_pred = parse("SELECT * FROM t WHERE k IN ('a', 'b')").where
        assert isinstance(in_pred, In) and in_pred.values == frozenset({"a", "b"})
        assert isinstance(parse("SELECT * FROM t WHERE s LIKE 'fl%'").where, Like)
        null_pred = parse("SELECT * FROM t WHERE x IS NOT NULL").where
        assert isinstance(null_pred, IsNull) and null_pred.negated

    def test_boolean_precedence_and_binds_tighter(self):
        statement = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # OR of [a=1, AND(b=2, c=3)]
        from repro.metadb import And, Or

        assert isinstance(statement.where, Or)
        assert isinstance(statement.where.operands[1], And)

    def test_parentheses_override_precedence(self):
        from repro.metadb import And, Or

        statement = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(statement.where, And)
        assert isinstance(statement.where.operands[0], Or)

    def test_not(self):
        from repro.metadb import Not

        assert isinstance(parse("SELECT * FROM t WHERE NOT a = 1").where, Not)

    def test_order_limit_offset(self):
        statement = parse(
            "SELECT * FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5"
        )
        assert statement.order_by == [("a", "desc"), ("b", "asc")]
        assert statement.limit == 10
        assert statement.offset == 5

    def test_aggregates_and_group_by(self):
        statement = parse("SELECT kind, count(*) AS n, max(rate) FROM t GROUP BY kind")
        assert statement.group_by == ["kind"]
        assert statement.aggregates[0] == Aggregate("count", "*", "n")
        assert statement.aggregates[1].alias == "max_rate"

    def test_non_grouped_column_rejected(self):
        with pytest.raises(QueryError):
            parse("SELECT kind, rate, count(*) FROM t GROUP BY kind")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse("SELECT * FROM t nonsense here")

    def test_empty_and_unknown_statement_rejected(self):
        with pytest.raises(QueryError):
            parse("")
        with pytest.raises(QueryError):
            parse("CREATE TABLE t (a INT)")

    def test_boolean_and_null_literals(self):
        assert parse("SELECT * FROM t WHERE flag = TRUE").where.value is True
        assert parse("UPDATE t SET a = NULL").changes == {"a": None}

    def test_scientific_notation(self):
        assert parse("SELECT * FROM t WHERE x > 1.5e3").where.value == 1500.0


class TestExplain:
    def test_parse_explain_select(self):
        statement = parse("EXPLAIN SELECT * FROM hle WHERE hle_id = 3")
        assert isinstance(statement, Explain)
        assert isinstance(statement.select, Select)
        assert statement.table == "hle"

    def test_explain_requires_select(self):
        with pytest.raises(QueryError):
            parse("EXPLAIN DELETE FROM t WHERE a < 0")

    def test_explain_round_trip(self):
        sql = "EXPLAIN SELECT * FROM hle WHERE hle_id = 3"
        assert to_sql(parse(sql)) == sql

    def test_explain_executes_to_plan_row(self):
        database = Database()
        database.create_table(
            TableSchema(
                "hle",
                [Column("hle_id", ColumnType.INTEGER, nullable=False)],
                primary_key="hle_id",
            )
        )
        database.execute(Insert("hle", {"hle_id": 3}))
        rows = database.execute("EXPLAIN SELECT * FROM hle WHERE hle_id = 3")
        assert len(rows) == 1
        assert rows[0]["table"] == "hle"
        assert rows[0]["access"] == "pk_probe"
        assert rows[0]["description"] == "PK_PROBE on hle_id"


class TestParseDml:
    def test_insert(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(statement, Insert)
        assert statement.values == {"a": 1, "b": "x"}

    def test_insert_count_mismatch(self):
        with pytest.raises(QueryError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        statement = parse("UPDATE t SET a = 2, b = 'y' WHERE a = 1")
        assert isinstance(statement, Update)
        assert statement.changes == {"a": 2, "b": "y"}
        assert statement.where is not None

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE a < 0")
        assert isinstance(statement, Delete)


class TestGeneration:
    def test_select_round_trip_preserves_semantics(self):
        database = Database()
        database.create_table(
            TableSchema(
                "t",
                [Column("a", ColumnType.INTEGER, nullable=False),
                 Column("b", ColumnType.TEXT)],
                primary_key="a",
            )
        )
        for value in range(10):
            database.execute(Insert("t", {"a": value, "b": f"s{value}"}))
        original = Select(
            "t",
            where=(Comparison("a", ">", 2) & Comparison("a", "<", 8)),
            order_by=[("a", "desc")],
            limit=3,
        )
        round_tripped = parse(to_sql(original))
        assert database.execute(original) == database.execute(round_tripped)

    def test_quote_escaping(self):
        sql = to_sql(Insert("t", {"s": "it's"}))
        assert "''" in sql
        assert parse(sql).values == {"s": "it's"}

    def test_update_delete_generation(self):
        assert to_sql(Update("t", {"a": 1}, Comparison("b", "=", 2))) == (
            "UPDATE t SET a = 1 WHERE b = 2"
        )
        assert to_sql(Delete("t", IsNull("x"))) == "DELETE FROM t WHERE x IS NULL"

    def test_blob_literal_rejected(self):
        with pytest.raises(QueryError):
            to_sql(Insert("t", {"payload": b"\x00"}))

    def test_a_join_has_no_sql_text(self):
        """It rendered as the same statement without its join."""
        for outer in (False, True):
            joined = Select("t", where=Comparison("a", "=", 1),
                            join=Join("u", "a", "a", outer=outer))
            with pytest.raises(QueryError, match="no JOIN"):
                to_sql(joined)
            with pytest.raises(QueryError, match="no JOIN"):
                to_sql(Explain(joined), [])


_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_values = st.one_of(
    st.integers(min_value=-1_000_000, max_value=1_000_000),
    st.text(alphabet=st.characters(blacklist_characters="\x00", codec="ascii"), max_size=20),
    st.booleans(),
)


@st.composite
def _predicates(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(["cmp", "between", "in", "like", "null"]))
        column = draw(_names)
        if kind == "cmp":
            op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
            return Comparison(column, op, draw(_values))
        if kind == "between":
            low = draw(st.integers(-100, 100))
            return Between(column, low, low + draw(st.integers(0, 50)))
        if kind == "in":
            return In(column, draw(st.lists(st.integers(-10, 10), min_size=1, max_size=4)))
        if kind == "like":
            pattern = draw(st.text(alphabet="ab%_", min_size=1, max_size=6))
            return Like(column, pattern)
        return IsNull(column, negated=draw(st.booleans()))
    from repro.metadb import And, Or

    combiner = draw(st.sampled_from([And, Or]))
    operands = draw(st.lists(_predicates(depth=depth + 1), min_size=2, max_size=3))
    return combiner(operands)


class TestRoundTripProperties:
    @given(predicate=_predicates(), rows=st.lists(
        st.fixed_dictionaries({
            "alpha": st.one_of(st.none(), st.integers(-100, 100)),
            "beta": st.one_of(st.none(), st.text(alphabet="ab", max_size=4)),
            "gamma": st.one_of(st.none(), st.integers(-100, 100)),
            "delta": st.one_of(st.none(), st.booleans()),
        }),
        max_size=15,
    ))
    @settings(max_examples=120, deadline=None)
    def test_predicate_survives_sql_round_trip(self, predicate, rows):
        """parse(to_sql(p)) must match exactly the rows p matches."""
        sql = to_sql(Select("t", where=predicate))
        parsed = parse(sql)
        for row in rows:
            assert parsed.where.matches(row) == predicate.matches(row), sql


# -- prepared statements: bind against the parse(to_sql()) oracle -------------


def _lit(value):
    """Type-exact literal identity: 1, 1.0 and True differ, as do 0.0 and -0.0."""
    return (type(value).__name__, repr(value))


def _canon(node):
    """A statement or predicate as nested tuples, container types included,
    so that two trees compare equal only when they are the same tree."""
    from repro.metadb import And, Not, Or

    if node is None:
        return None
    if isinstance(node, Explain):
        return ("explain", _canon(node.select))
    if isinstance(node, Select):
        return ("select", node.table,
                (type(node.columns).__name__, tuple(node.columns or ())),
                _canon(node.where),
                (type(node.order_by).__name__, tuple(node.order_by)),
                node.limit, node.offset,
                (type(node.group_by).__name__, tuple(node.group_by)),
                (type(node.aggregates).__name__, tuple(node.aggregates)),
                node.join)
    if isinstance(node, Insert):
        return ("insert", node.table,
                tuple((column, _lit(value)) for column, value in node.values.items()))
    if isinstance(node, Update):
        return ("update", node.table,
                tuple((column, _lit(value)) for column, value in node.changes.items()),
                _canon(node.where))
    if isinstance(node, Delete):
        return ("delete", node.table, _canon(node.where))
    if isinstance(node, Comparison):
        return ("cmp", node.column, node.op, _lit(node.value))
    if isinstance(node, Between):
        return ("between", node.column, _lit(node.low), _lit(node.high))
    if isinstance(node, In):
        return ("in", node.column, frozenset(_lit(value) for value in node.values))
    if isinstance(node, Like):
        return ("like", node.column, node.pattern)
    if isinstance(node, IsNull):
        return ("isnull", node.column, node.negated)
    if isinstance(node, (And, Or)):
        return (type(node).__name__, type(node.operands).__name__,
                tuple(_canon(operand) for operand in node.operands))
    if isinstance(node, Not):
        return ("not", _canon(node.operand))
    raise AssertionError(f"unexpected node {node!r}")


def _bind(statement):
    """The prepared-statement path the DM's I/O layer takes."""
    params = []
    return prepare(to_sql(statement, params)).bind(params)


_COLUMNS = ["alpha", "beta", "gamma", "delta"]
_literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**18, max_value=10**18),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, 1e+16, 2.5e-07, -0.0, 0.5, 3.0]),
    st.text(alphabet="ab'%_? \n", max_size=6),
)


@st.composite
def _any_predicates(draw, depth=0):
    from repro.metadb import And, Not, Or

    column = draw(st.sampled_from(_COLUMNS))
    kinds = ["cmp", "between", "in", "like", "null"]
    if depth < 3:
        kinds += ["and", "or", "not"]
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return Comparison(column, op, draw(_literals))
    if kind == "between":
        return Between(column, draw(_literals), draw(_literals))
    if kind == "in":
        return In(column, draw(st.lists(_literals, min_size=1, max_size=6)))
    if kind == "like":
        return Like(column, draw(st.text(alphabet="ab%_'?", max_size=6)))
    if kind == "null":
        return IsNull(column, negated=draw(st.booleans()))
    if kind == "not":
        return Not(draw(_any_predicates(depth=depth + 1)))
    operands = draw(st.lists(_any_predicates(depth=depth + 1), min_size=1, max_size=3))
    return (And if kind == "and" else Or)(operands)


_wheres = st.one_of(st.none(), _any_predicates())
_assignments = st.dictionaries(st.sampled_from(_COLUMNS), _literals, min_size=1)


@st.composite
def _statements(draw):
    kind = draw(st.sampled_from(["select", "aggregate", "insert", "update", "delete"]))
    if kind == "insert":
        return Insert("t", draw(_assignments))
    if kind == "update":
        return Update("t", draw(_assignments), draw(_wheres))
    if kind == "delete":
        return Delete("t", draw(_wheres))
    limit = draw(st.one_of(st.none(), st.integers(0, 12)))
    offset = draw(st.integers(0, 3)) if limit is not None else 0
    if kind == "aggregate":
        group_by = draw(st.lists(st.sampled_from(_COLUMNS), max_size=2, unique=True))
        aggregates = [
            Aggregate(func, column, f"{func}_{index}")
            for index, (func, column) in enumerate(draw(st.lists(
                st.tuples(st.sampled_from(["count", "min", "max"]),
                          st.sampled_from(["*"] + _COLUMNS)),
                min_size=1, max_size=2)))
            if func == "count" or column != "*"
        ] or [Aggregate("count", "*", "n")]
        return Select("t", where=draw(_wheres), group_by=group_by,
                      aggregates=aggregates, limit=limit, offset=offset)
    columns = draw(st.one_of(
        st.none(), st.lists(st.sampled_from(_COLUMNS), min_size=1, unique=True)))
    order_by = draw(st.lists(
        st.tuples(st.sampled_from(_COLUMNS), st.sampled_from(["asc", "desc"])),
        max_size=2))
    return Select("t", columns=columns, where=draw(_wheres), order_by=order_by,
                  limit=limit, offset=offset)


def _seeded_database() -> Database:
    database = Database()
    database.create_table(TableSchema(
        "t",
        [Column("alpha", ColumnType.INTEGER),
         Column("beta", ColumnType.TEXT),
         Column("gamma", ColumnType.REAL),
         Column("delta", ColumnType.BOOLEAN)],
        indexes=[("alpha",), ("gamma",)],
    ))
    for index in range(24):
        database.execute(Insert("t", {
            "alpha": None if index % 7 == 0 else index % 6 - 2,
            "beta": None if index % 5 == 0 else "ab'%_"[index % 5:] + "a" * (index % 3),
            "gamma": None if index % 11 == 0 else (index - 9) / 4.0,
            "delta": None if index % 4 == 0 else index % 3 == 0,
        }))
    return database


def _outcome(database: Database, statement):
    """What executing ``statement`` gives and leaves behind."""
    try:
        result = database.execute(statement)
    except Exception as exc:  # the two paths must fail alike, too
        result = (type(exc).__name__, str(exc))
    return result, database.execute(Select("t"))


class TestPreparedStatements:
    @given(statement=_statements())
    @settings(max_examples=300, deadline=None)
    def test_bind_equals_the_reparse_oracle(self, statement):
        """prepare(to_sql(s, params)).bind(params) is parse(to_sql(s)): the
        same tree, and the same rows and table on a seeded database."""
        oracle = parse(to_sql(statement))
        bound = _bind(statement)
        assert _canon(bound) == _canon(oracle)
        assert _outcome(_seeded_database(), bound) == _outcome(_seeded_database(), oracle)

    def test_explain_binds_too(self):
        statement = Explain(Select("t", where=Comparison("alpha", "=", 3), limit=2))
        assert _canon(_bind(statement)) == _canon(parse(to_sql(statement)))

    def test_the_text_is_the_shape(self):
        def text(statement):
            return to_sql(statement, [])

        one = Select("t", where=Comparison("alpha", "=", 1) & Like("beta", "a%"), limit=5)
        other = Select("t", where=Comparison("alpha", "=", -7) & Like("beta", "'"), limit=5)
        assert text(one) == text(other)
        assert text(one) == "SELECT * FROM t WHERE (alpha = ? AND beta LIKE ?) LIMIT 5"
        # Column lists, ORDER BY, LIMIT/OFFSET and IN-list length are shape.
        assert text(Select("t", where=In("alpha", [1, 2]))) != \
            text(Select("t", where=In("alpha", [1, 2, 3])))
        assert text(Select("t", where=In("alpha", [1, 2]))) == \
            text(Select("t", where=In("alpha", [8, 9])))
        assert text(Select("t", limit=5)) != text(Select("t", limit=6))
        assert text(Select("t", columns=["alpha"])) != text(Select("t", columns=["beta"]))
        assert text(Insert("t", {"alpha": 1, "beta": "x"})) == \
            "INSERT INTO t (alpha, beta) VALUES (?, ?)"

    def test_params_come_out_in_text_order(self):
        params = []
        text = to_sql(
            Update("t", {"alpha": 1, "beta": None},
                   Between("gamma", 0.5, 2.5) & Comparison("delta", "=", True)),
            params,
        )
        assert text == ("UPDATE t SET alpha = ?, beta = ? "
                        "WHERE (gamma BETWEEN ? AND ? AND delta = ?)")
        assert params == [1, None, 0.5, 2.5, True]

    def test_without_params_literals_stay_inline(self):
        statement = Select("t", where=Comparison("beta", "=", "it's"))
        assert to_sql(statement) == "SELECT * FROM t WHERE beta = 'it''s'"

    def test_wrong_arity_rejected(self):
        prepared = prepare("SELECT * FROM t WHERE alpha = ? AND beta = ?")
        assert prepared.arity == 2
        for params in ([], [1], [1, "x", 2]):
            with pytest.raises(QueryError):
                prepared.bind(params)

    @pytest.mark.parametrize("value", [b"\x00", bytearray(b"x"), 1 + 2j, [1], (1,),
                                        {"a": 1}, object(), float("nan"), float("inf")])
    def test_unrenderable_value_rejected(self, value):
        prepared = prepare("SELECT * FROM t WHERE alpha = ?")
        with pytest.raises(QueryError):
            prepared.bind([value])

    def test_like_pattern_must_be_a_string(self):
        prepared = prepare("SELECT * FROM t WHERE beta LIKE ?")
        assert prepared.bind(["a%"]).where.pattern == "a%"
        for value in (5, None, True):
            with pytest.raises(QueryError):
                prepared.bind([value])

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t WHERE alpha = ?",
        "SELECT * FROM t WHERE alpha IN (1, ?)",
        "SELECT * FROM t WHERE beta LIKE ?",
        "INSERT INTO t (alpha) VALUES (?)",
        "UPDATE t SET alpha = ?",
        "DELETE FROM t WHERE alpha BETWEEN ? AND 2",
        "EXPLAIN SELECT * FROM t WHERE alpha = ?",
    ])
    def test_unbound_placeholder_never_reaches_the_engine(self, sql):
        """A ``?`` outside prepare() is an error, not a silent non-match."""
        with pytest.raises(QueryError):
            parse(sql)
        with pytest.raises(QueryError):
            _seeded_database().execute(sql)

    def test_placeholder_only_stands_for_a_literal(self):
        for sql in ("SELECT * FROM t LIMIT ?", "SELECT * FROM ?",
                    "SELECT ? FROM t", "SELECT * FROM t ORDER BY ?"):
            with pytest.raises(QueryError):
                prepare(sql)

    def test_template_may_mix_placeholders_and_literals(self):
        prepared = prepare(
            "SELECT * FROM t WHERE alpha IN (?, 2, ?) AND beta LIKE 'a%' "
            "AND gamma BETWEEN 0.5 AND ? AND delta IS NOT NULL AND beta = '?'")
        assert prepared.arity == 3
        bound = prepared.bind([1, 3, 9.5])
        oracle = parse(
            "SELECT * FROM t WHERE alpha IN (1, 2, 3) AND beta LIKE 'a%' "
            "AND gamma BETWEEN 0.5 AND 9.5 AND delta IS NOT NULL AND beta = '?'")
        assert _canon(bound) == _canon(oracle)

    def test_bound_statements_share_no_mutable_container(self):
        """Callers edit what they get (``_run_user_sql`` assigns ``where``);
        that must reach neither the template nor the next bind."""
        from repro.metadb import And

        select = Select(
            "t", columns=["alpha", "beta"],
            where=And([Comparison("alpha", "=", 1),
                       In("alpha", [1, 2]) | IsNull("beta")]),
            order_by=[("alpha", "asc")], limit=3,
        )
        params = []
        prepared = prepare(to_sql(select, params))
        expected = _canon(parse(to_sql(select)))
        first, second = prepared.bind(params), prepared.bind(params)
        for one, other in [(first.columns, second.columns),
                           (first.order_by, second.order_by),
                           (first.group_by, second.group_by),
                           (first.aggregates, second.aggregates),
                           (first.where, second.where),
                           (first.where.operands, second.where.operands),
                           (first.where.operands[1].operands,
                            second.where.operands[1].operands)]:
            assert one is not other
        first.where.operands[1].operands.clear()
        first.where.operands.append(IsNull("gamma"))
        first.where = None
        first.columns.append("gamma")
        first.order_by.clear()
        params.append("grown after the bind")
        assert _canon(second) == expected
        assert _canon(prepared.bind(params[:-1])) == expected

        row = {"alpha": 1, "beta": "x"}
        params = []
        prepared = prepare(to_sql(Insert("t", row), params))
        first, second = prepared.bind(params), prepared.bind(params)
        first.values["alpha"] = 99
        params[0] = 98
        assert second.values == row and prepared.bind([1, "x"]).values == row

        params = []
        prepared = prepare(to_sql(Update("t", row, Comparison("alpha", "=", 1)), params))
        first, second = prepared.bind(params), prepared.bind(params)
        first.changes.clear()
        assert second.changes == row


class TestFloatLiterals:
    """``repr(float)`` drops the fraction before an exponent (``1e-05``); the
    number rule has to take every form a finite float renders as."""

    VALUES = [1e-05, 1e+16, 2.5e-07, -0.0, 1e22, -1e-300, 5e-324,
              1.7976931348623157e308, 123456789.0, 0.1]

    @pytest.mark.parametrize("value", VALUES)
    def test_inline_round_trip(self, value):
        parsed = parse(to_sql(Select("t", where=Comparison("gamma", ">=", value))))
        assert _lit(parsed.where.value) == _lit(value)

    @pytest.mark.parametrize("value", VALUES)
    def test_bind(self, value):
        bound = _bind(Select("t", where=Comparison("gamma", ">=", value)))
        assert _lit(bound.where.value) == _lit(value)

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_every_finite_float_round_trips(self, value):
        parsed = parse(to_sql(Insert("t", {"gamma": value})))
        assert _lit(parsed.values["gamma"]) == _lit(value)

    def test_exponent_forms_in_user_sql(self):
        assert parse("SELECT * FROM t WHERE x > 1e3").where.value == 1000.0
        assert parse("SELECT * FROM t WHERE x > 1E+3").where.value == 1000.0
        assert parse("SELECT * FROM t WHERE x > -2e-2").where.value == -0.02
        # An integer stays an integer.
        assert _lit(parse("SELECT * FROM t WHERE x > 10").where.value) == _lit(10)
