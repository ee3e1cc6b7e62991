"""A small SQL dialect: tokenizer, parser and generator.

HEDC supports two SQL paths that this module covers:

* advanced users may submit *their own SQL queries* (paper §1), which we
  parse into :mod:`repro.metadb.query` collection objects; and
* the DM translates collection objects *into* SQL for the target database
  (paper §5.4), which :func:`to_sql` implements, so tests can assert the
  round trip ``parse(to_sql(q))`` is semantics-preserving.

The DM's own statements travel as *prepared statements*:
``to_sql(statement, params)`` renders every literal as ``?`` and collects
the values, so the text is the statement's shape; :func:`prepare` parses
such a text once into a :class:`PreparedStatement` whose ``bind(params)``
builds what ``parse(to_sql(statement))`` would, without tokenizing or
parsing again.  Plain :func:`parse` rejects an unbound ``?``.

Supported grammar (case-insensitive keywords)::

    SELECT select_list FROM table [WHERE pred] [GROUP BY cols]
        [ORDER BY col [ASC|DESC], ...] [LIMIT n [OFFSET m]]
    INSERT INTO table (cols) VALUES (vals)
    UPDATE table SET col = val, ... [WHERE pred]
    DELETE FROM table [WHERE pred]
    EXPLAIN SELECT ...                (returns the chosen plan, not rows)

    select_list := * | expr, ...        expr := col | FUNC(col|*) [AS alias]
    pred := disjunction of conjunctions of comparisons, BETWEEN, IN,
            LIKE, IS [NOT] NULL, parentheses, NOT
    literal := string | number | NULL | TRUE | FALSE | ?   (? in prepare only)
"""

from __future__ import annotations

import re
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence, Union

from .errors import QueryError
from .predicate import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Like,
    Not,
    Or,
    Predicate,
)
from .query import Aggregate, Delete, Explain, Insert, Select, Update

Statement = Union[Select, Insert, Update, Delete, Explain]

_TOKEN_RE = re.compile(
    r"""
    \s*(
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),;*])
      | (?P<param>\?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "limit", "offset",
    "insert", "into", "values", "update", "set", "delete", "and", "or",
    "not", "between", "in", "like", "is", "null", "asc", "desc", "as",
    "true", "false", "explain",
}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any):
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match:
            if text[position:].strip() == "":
                break
            raise QueryError(f"cannot tokenize SQL at: {text[position:position + 20]!r}")
        position = match.end()
        if match.group("string") is not None:
            literal = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", literal))
        elif match.group("number") is not None:
            raw = match.group("number")
            value = float(raw) if any(ch in raw for ch in ".eE") else int(raw)
            tokens.append(_Token("number", value))
        elif match.group("op") is not None:
            operator = match.group("op")
            tokens.append(_Token("op", "!=" if operator == "<>" else operator))
        elif match.group("punct") is not None:
            tokens.append(_Token("punct", match.group("punct")))
        elif match.group("param") is not None:
            tokens.append(_Token("param", "?"))
        else:
            name = match.group("name")
            lowered = name.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token("keyword", lowered))
            else:
                tokens.append(_Token("name", lowered))
    return tokens


class _Param:
    """Stands in a template for the literal ``bind`` takes from
    ``params[index]``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _LikeParam:
    """``column LIKE ?`` in a template: :class:`Like` compiles its pattern
    on construction, so it cannot hold a placeholder."""

    __slots__ = ("column", "pattern")

    def __init__(self, column: str, pattern: _Param):
        self.column = column
        self.pattern = pattern


class _Parser:
    def __init__(self, tokens: list[_Token], template: bool = False):
        self._tokens = tokens
        self._position = 0
        self._template = template
        #: Placeholders read so far; a template's ``?`` are numbered in
        #: text order, the order :func:`to_sql` appends their values in.
        self.arity = 0

    def _peek(self) -> Optional[_Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of SQL")
        self._position += 1
        return token

    def _accept(self, kind: str, value: Any = None) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind and (value is None or token.value == value):
            self._position += 1
            return token
        return None

    def _expect(self, kind: str, value: Any = None) -> _Token:
        token = self._accept(kind, value)
        if token is None:
            actual = self._peek()
            raise QueryError(f"expected {value or kind}, got {actual!r}")
        return token

    # -- statements --------------------------------------------------------

    def statement(self) -> Statement:
        token = self._peek()
        if token is None:
            raise QueryError("empty SQL statement")
        if token.kind == "keyword" and token.value == "explain":
            self._next()
            inner = self.statement()
            if not isinstance(inner, Select):
                raise QueryError("EXPLAIN only applies to SELECT")
            return Explain(inner)
        if token.kind == "keyword" and token.value == "select":
            return self._select()
        if token.kind == "keyword" and token.value == "insert":
            return self._insert()
        if token.kind == "keyword" and token.value == "update":
            return self._update()
        if token.kind == "keyword" and token.value == "delete":
            return self._delete()
        raise QueryError(f"unsupported statement start: {token!r}")

    def _select(self) -> Select:
        self._expect("keyword", "select")
        columns: Optional[list[str]] = None
        aggregates: list[Aggregate] = []
        if self._accept("punct", "*"):
            columns = None
        else:
            columns = []
            while True:
                item_columns, item_aggregate = self._select_item()
                if item_aggregate is not None:
                    aggregates.append(item_aggregate)
                else:
                    columns.append(item_columns)
                if not self._accept("punct", ","):
                    break
            if aggregates and not columns:
                columns = None
        self._expect("keyword", "from")
        table = self._expect("name").value
        where = None
        if self._accept("keyword", "where"):
            where = self._predicate()
        group_by: list[str] = []
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._expect("name").value)
            while self._accept("punct", ","):
                group_by.append(self._expect("name").value)
        order_by: list[tuple[str, str]] = []
        if self._accept("keyword", "order"):
            self._expect("keyword", "by")
            while True:
                column = self._expect("name").value
                direction = "asc"
                if self._accept("keyword", "desc"):
                    direction = "desc"
                elif self._accept("keyword", "asc"):
                    direction = "asc"
                order_by.append((column, direction))
                if not self._accept("punct", ","):
                    break
        limit = None
        offset = 0
        if self._accept("keyword", "limit"):
            limit = int(self._expect("number").value)
            if self._accept("keyword", "offset"):
                offset = int(self._expect("number").value)
        self._accept("punct", ";")
        if self._peek() is not None:
            raise QueryError(f"trailing tokens after statement: {self._peek()!r}")
        if group_by and columns:
            # GROUP BY keys are implicitly projected; plain columns beyond
            # the keys are not allowed in this dialect.
            extra = [column for column in columns if column not in group_by]
            if extra:
                raise QueryError(f"non-grouped columns in aggregate query: {extra}")
            columns = None
        return Select(
            table,
            columns=columns,
            where=where,
            order_by=order_by,
            limit=limit,
            offset=offset,
            group_by=group_by,
            aggregates=aggregates,
        )

    def _select_item(self) -> tuple[Optional[str], Optional[Aggregate]]:
        token = self._next()
        if token.kind != "name":
            raise QueryError(f"expected column or aggregate, got {token!r}")
        name = token.value
        if self._accept("punct", "("):
            func = name
            if self._accept("punct", "*"):
                column = "*"
            else:
                column = self._expect("name").value
            self._expect("punct", ")")
            alias = f"{func}_{column if column != '*' else 'all'}"
            if self._accept("keyword", "as"):
                alias = self._expect("name").value
            return None, Aggregate(func, column, alias)
        return name, None

    def _insert(self) -> Insert:
        self._expect("keyword", "insert")
        self._expect("keyword", "into")
        table = self._expect("name").value
        self._expect("punct", "(")
        columns = [self._expect("name").value]
        while self._accept("punct", ","):
            columns.append(self._expect("name").value)
        self._expect("punct", ")")
        self._expect("keyword", "values")
        self._expect("punct", "(")
        values = [self._literal()]
        while self._accept("punct", ","):
            values.append(self._literal())
        self._expect("punct", ")")
        self._accept("punct", ";")
        if len(columns) != len(values):
            raise QueryError("INSERT column/value count mismatch")
        return Insert(table, dict(zip(columns, values)))

    def _update(self) -> Update:
        self._expect("keyword", "update")
        table = self._expect("name").value
        self._expect("keyword", "set")
        changes: dict[str, Any] = {}
        while True:
            column = self._expect("name").value
            self._expect("op", "=")
            changes[column] = self._literal()
            if not self._accept("punct", ","):
                break
        where = None
        if self._accept("keyword", "where"):
            where = self._predicate()
        self._accept("punct", ";")
        return Update(table, changes, where)

    def _delete(self) -> Delete:
        self._expect("keyword", "delete")
        self._expect("keyword", "from")
        table = self._expect("name").value
        where = None
        if self._accept("keyword", "where"):
            where = self._predicate()
        self._accept("punct", ";")
        return Delete(table, where)

    # -- predicates ---------------------------------------------------------

    def _predicate(self) -> Predicate:
        return self._disjunction()

    def _disjunction(self) -> Predicate:
        left = self._conjunction()
        operands = [left]
        while self._accept("keyword", "or"):
            operands.append(self._conjunction())
        return operands[0] if len(operands) == 1 else Or(operands)

    def _conjunction(self) -> Predicate:
        left = self._term()
        operands = [left]
        while self._accept("keyword", "and"):
            operands.append(self._term())
        return operands[0] if len(operands) == 1 else And(operands)

    def _term(self) -> Predicate:
        if self._accept("keyword", "not"):
            return Not(self._term())
        if self._accept("punct", "("):
            inner = self._disjunction()
            self._expect("punct", ")")
            return inner
        column = self._expect("name").value
        if self._accept("keyword", "between"):
            low = self._literal()
            self._expect("keyword", "and")
            high = self._literal()
            return Between(column, low, high)
        if self._accept("keyword", "in"):
            self._expect("punct", "(")
            values = [self._literal()]
            while self._accept("punct", ","):
                values.append(self._literal())
            self._expect("punct", ")")
            return In(column, values)
        if self._accept("keyword", "like"):
            if self._accept("param"):
                return _LikeParam(column, self._param())
            pattern = self._expect("string").value
            return Like(column, pattern)
        if self._accept("keyword", "is"):
            negated = bool(self._accept("keyword", "not"))
            self._expect("keyword", "null")
            return IsNull(column, negated=negated)
        operator = self._expect("op").value
        value = self._literal()
        return Comparison(column, operator, value)

    def _literal(self) -> Any:
        token = self._next()
        if token.kind in ("string", "number"):
            return token.value
        if token.kind == "param":
            return self._param()
        if token.kind == "keyword" and token.value == "null":
            return None
        if token.kind == "keyword" and token.value in ("true", "false"):
            return token.value == "true"
        raise QueryError(f"expected literal, got {token!r}")

    def _param(self) -> _Param:
        if not self._template:
            raise QueryError("unbound parameter '?': only prepare() takes placeholders")
        param = _Param(self.arity)
        self.arity += 1
        return param


def parse(sql: str) -> Statement:
    """Parse one SQL statement into a query collection object."""
    return _Parser(_tokenize(sql)).statement()


# -- prepared statements -----------------------------------------------------

#: ``params -> node``: what a template node compiles to.
_Builder = Callable[[Sequence[Any]], Any]


def _value_builder(literal: Any) -> _Builder:
    if isinstance(literal, _Param):
        return itemgetter(literal.index)
    return lambda params: literal


def _values_builder(literals: Sequence[Any]) -> _Builder:
    """``params -> values`` for a literal list given in text order."""
    if all(isinstance(literal, _Param) for literal in literals):
        # Placeholders are numbered as they are read, so a list made of
        # nothing else is one contiguous run of ``params``.
        low = literals[0].index
        high = low + len(literals)
        return lambda params: params[low:high]
    builders = [_value_builder(literal) for literal in literals]
    return lambda params: [build(params) for build in builders]


def _predicate_builder(node: Any) -> _Builder:
    if node is None:
        return lambda params: None
    if isinstance(node, Comparison):
        column, op, value = node.column, node.op, _value_builder(node.value)
        return lambda params: Comparison(column, op, value(params))
    if isinstance(node, Between):
        column = node.column
        low, high = _value_builder(node.low), _value_builder(node.high)
        return lambda params: Between(column, low(params), high(params))
    if isinstance(node, In):
        column = node.column
        # The frozen set lost the text order; literals first, then the
        # placeholders by number, gives a run of them back its order.
        values = _values_builder(sorted(
            node.values,
            key=lambda value: value.index if isinstance(value, _Param) else -1,
        ))
        return lambda params: In(column, values(params))
    if isinstance(node, _LikeParam):
        column, index = node.column, node.pattern.index

        def like(params: Sequence[Any]) -> Like:
            pattern = params[index]
            if not isinstance(pattern, str):
                raise QueryError(f"LIKE pattern must be a string, got {pattern!r}")
            return Like(column, pattern)
        return like
    if isinstance(node, (And, Or)):
        combine = type(node)
        operands = [_predicate_builder(operand) for operand in node.operands]
        return lambda params: combine([build(params) for build in operands])
    if isinstance(node, Not):
        operand = _predicate_builder(node.operand)
        return lambda params: Not(operand(params))
    # Like with a literal pattern, IsNull: no placeholder, never mutated.
    return lambda params: node


def _statement_builder(template: Statement) -> _Builder:
    if isinstance(template, Explain):
        select = _statement_builder(template.select)
        return lambda params: Explain(select(params))
    table = template.table
    if isinstance(template, Select):
        where = _predicate_builder(template.where)
        columns, order_by = template.columns, template.order_by
        limit, offset = template.limit, template.offset
        group_by, aggregates = template.group_by, template.aggregates
        return lambda params: Select(
            table,
            columns=None if columns is None else list(columns),
            where=where(params),
            order_by=list(order_by),
            limit=limit,
            offset=offset,
            group_by=list(group_by),
            aggregates=list(aggregates),
        )
    if isinstance(template, Insert):
        columns = list(template.values)
        values = _values_builder(list(template.values.values()))
        return lambda params: Insert(table, dict(zip(columns, values(params))))
    if isinstance(template, Update):
        columns = list(template.changes)
        values = _values_builder(list(template.changes.values()))
        where = _predicate_builder(template.where)
        return lambda params: Update(
            table, dict(zip(columns, values(params))), where(params)
        )
    where = _predicate_builder(template.where)
    return lambda params: Delete(table, where(params))


class PreparedStatement:
    """A ``?`` template parsed once; :meth:`bind` builds statements from it."""

    __slots__ = ("sql", "arity", "_build")

    def __init__(self, sql: str, arity: int, build: _Builder):
        self.sql = sql
        self.arity = arity
        self._build = build

    def bind(self, params: Sequence[Any]) -> Statement:
        """A fresh statement, equal to parsing ``sql`` with each ``?``
        written out as the literal :func:`to_sql` renders for its value."""
        if len(params) != self.arity:
            raise QueryError(
                f"statement takes {self.arity} parameters, got {len(params)}: {self.sql}"
            )
        for value in params:
            if value is None or isinstance(value, (int, str)):  # bool is an int
                continue
            if isinstance(value, float) and isfinite(value):
                continue
            raise QueryError(f"cannot bind {value!r} as a SQL literal")
        return self._build(params)


def prepare(sql: str) -> PreparedStatement:
    """Parse one statement whose literals may be ``?`` placeholders."""
    parser = _Parser(_tokenize(sql), template=True)
    template = parser.statement()
    return PreparedStatement(sql, parser.arity, _statement_builder(template))


# -- SQL generation ----------------------------------------------------------

#: ``value -> text``: how a statement's literals are written.
_Literal = Callable[[Any], str]


def _quote(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    raise QueryError(f"cannot render literal {value!r} as SQL")


def _predicate_sql(predicate: Predicate, literal: _Literal) -> str:
    if isinstance(predicate, Comparison):
        return f"{predicate.column} {predicate.op} {literal(predicate.value)}"
    if isinstance(predicate, Between):
        return (f"{predicate.column} BETWEEN {literal(predicate.low)} "
                f"AND {literal(predicate.high)}")
    if isinstance(predicate, In):
        rendered = ", ".join(map(literal, sorted(predicate.values, key=repr)))
        return f"{predicate.column} IN ({rendered})"
    if isinstance(predicate, Like):
        return f"{predicate.column} LIKE {literal(predicate.pattern)}"
    if isinstance(predicate, IsNull):
        return f"{predicate.column} IS {'NOT ' if predicate.negated else ''}NULL"
    if isinstance(predicate, And):
        return "(" + " AND ".join(
            [_predicate_sql(operand, literal) for operand in predicate.operands]) + ")"
    if isinstance(predicate, Or):
        return "(" + " OR ".join(
            [_predicate_sql(operand, literal) for operand in predicate.operands]) + ")"
    if isinstance(predicate, Not):
        return f"NOT ({_predicate_sql(predicate.operand, literal)})"
    raise QueryError(f"cannot render predicate {predicate!r} as SQL")


def to_sql(statement: Statement, params: Optional[list] = None) -> str:
    """Render a collection object back to SQL text.

    Given ``params``, every literal is written as ``?`` and its value
    appended to ``params`` in text order, so that two statements differing
    only in their values render the same text (column lists, ORDER BY,
    LIMIT/OFFSET and the length of an IN-list are part of it): the form
    :func:`prepare` takes.
    """
    if params is None:
        return _statement_sql(statement, _quote)

    def placeholder(value: Any) -> str:
        params.append(value)
        return "?"
    return _statement_sql(statement, placeholder)


def _statement_sql(statement: Statement, literal: _Literal) -> str:
    if isinstance(statement, Explain):
        return "EXPLAIN " + _statement_sql(statement.select, literal)
    if isinstance(statement, Select):
        if statement.join is not None:
            raise QueryError("the SQL dialect has no JOIN; a joined Select runs natively")
        parts = []
        if statement.aggregates or statement.group_by:
            items = list(statement.group_by)
            for aggregate in statement.aggregates:
                items.append(f"{aggregate.func}({aggregate.column}) AS {aggregate.alias}")
            parts.append("SELECT " + ", ".join(items))
        elif statement.columns:
            parts.append("SELECT " + ", ".join(statement.columns))
        else:
            parts.append("SELECT *")
        parts.append(f"FROM {statement.table}")
        if statement.where is not None:
            parts.append("WHERE " + _predicate_sql(statement.where, literal))
        if statement.group_by:
            parts.append("GROUP BY " + ", ".join(statement.group_by))
        if statement.order_by:
            rendered = ", ".join(
                f"{column} {direction.upper()}" for column, direction in statement.order_by
            )
            parts.append("ORDER BY " + rendered)
        if statement.limit is not None:
            parts.append(f"LIMIT {statement.limit}")
            if statement.offset:
                parts.append(f"OFFSET {statement.offset}")
        return " ".join(parts)
    if isinstance(statement, Insert):
        columns = ", ".join(statement.values)
        values = ", ".join(map(literal, statement.values.values()))
        return f"INSERT INTO {statement.table} ({columns}) VALUES ({values})"
    if isinstance(statement, Update):
        sets = ", ".join(
            [f"{column} = {literal(value)}" for column, value in statement.changes.items()])
        sql = f"UPDATE {statement.table} SET {sets}"
        if statement.where is not None:
            sql += " WHERE " + _predicate_sql(statement.where, literal)
        return sql
    if isinstance(statement, Delete):
        sql = f"DELETE FROM {statement.table}"
        if statement.where is not None:
            sql += " WHERE " + _predicate_sql(statement.where, literal)
        return sql
    raise QueryError(f"cannot render {statement!r} as SQL")
