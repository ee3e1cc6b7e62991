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
such a text once into a template holding ``Param(i)`` for each ``?``,
and ``bind(params)`` builds what ``parse(to_sql(statement))`` would,
without tokenizing or parsing again; so is a whole batch
(:class:`PreparedBatch`, bound as a :class:`Batch`).  Every value enters
a WHERE through one walk of the template (``_bound``), and a SELECT is
handed out by ``Select.with_where``: a statement, a batch, a reference
filled in when its row is read.  Plain :func:`parse` rejects an unbound
``?``.

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
from copy import copy
from dataclasses import replace
from typing import Any, Callable, Iterable, Optional, Sequence, Union

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
    Param,
    Predicate,
    Ref,
    check_literal,
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


class _LikeParam:
    """``column LIKE ?`` in a template: :class:`Like` compiles its pattern
    on construction, so it cannot hold a placeholder."""

    __slots__ = ("column", "pattern")

    def __init__(self, column: str, pattern: Param):
        self.column = column
        self.pattern = pattern


class _InParam:
    """``column IN (...)`` holding a ``?`` in a template: its values in the
    order they are bound in, literals first, then placeholders by number,
    which a frozen set would lose."""

    __slots__ = ("column", "values")

    def __init__(self, column: str, values: list):
        self.column = column
        self.values = values


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
            limit = self._count("LIMIT")
            if self._accept("keyword", "offset"):
                offset = self._count("OFFSET")
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

    def _count(self, clause: str) -> int:
        value = self._expect("number").value
        if not isinstance(value, int):
            raise QueryError(f"{clause} takes an integer, got {value!r}")
        return value

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
            if any(type(value) is Param for value in values):
                return _InParam(column, sorted(
                    values, key=lambda value: value.index if type(value) is Param else -1))
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

    def _param(self) -> Param:
        if not self._template:
            raise QueryError("unbound parameter '?': only prepare() takes placeholders")
        param = Param(self.arity)
        self.arity += 1
        return param


def parse(sql: str) -> Statement:
    """Parse one SQL statement into a query collection object."""
    return _Parser(_tokenize(sql)).statement()


# -- prepared statements -----------------------------------------------------

def _value(literal: Any, values: Sequence[Any], ref: Optional[Callable[[Ref], Any]] = None) -> Any:
    if type(literal) is Param:
        return values[literal.index]
    return ref(literal) if ref is not None and type(literal) is Ref else literal


def _bound(node: Any, values: Sequence[Any], ref: Optional[Callable[[Ref], Any]] = None) -> Any:
    """The WHERE ``node`` with each ``Param(i)`` replaced by ``values[i]``
    and, given ``ref``, each :class:`Ref` by ``ref(it)``, in tree order.
    A junction or NOT comes back new, a leaf only where a value went in:
    the others are never changed, so binds share them."""
    kind = type(node)
    if kind is And or kind is Or:
        operands = []
        for operand in node.operands:
            if type(operand) is Comparison and type(operand.value) is Param:
                # The common leaf, bound without a call; a literal one is kept.
                operand = Comparison(operand.column, operand.op, values[operand.value.index])
            elif type(operand) is not Comparison or type(operand.value) is Ref:
                operand = _bound(operand, values, ref)
            operands.append(operand)
        return kind(operands)
    if kind is Comparison:
        value = _value(node.value, values, ref)
        return node if value is node.value else Comparison(node.column, node.op, value)
    if kind is Between:
        low, high = _value(node.low, values, ref), _value(node.high, values, ref)
        return node if low is node.low and high is node.high else Between(node.column, low, high)
    if kind is Not:
        return Not(_bound(node.operand, values, ref))
    if kind is _InParam:
        return In(node.column, [_value(value, values) for value in node.values])
    if kind is _LikeParam:
        pattern = values[node.pattern.index]
        if not isinstance(pattern, str):
            raise QueryError(f"LIKE pattern must be a string, got {pattern!r}")
        return Like(node.column, pattern)
    return node


def _check(params: Sequence[Any], arity: int, what: str) -> None:
    """``arity`` values, each one a ``?`` may stand for; a :class:`Ref`
    is bound as it is, and the database checks the value it resolves to
    the same way."""
    if len(params) != arity:
        raise QueryError(f"{what} takes {arity} parameters, got {len(params)}")
    for value in params:
        if value is None or isinstance(value, (int, str)):  # bool is an int
            continue
        if type(value) is not Ref:
            check_literal(value)


class PreparedStatement:
    """A ``?`` template parsed once; :meth:`bind` builds statements from it."""

    __slots__ = ("sql", "arity", "template")

    def __init__(self, sql: str, arity: int, template: Statement):
        self.sql = sql
        self.arity = arity
        self.template = template

    def bind(self, params: Sequence[Any]) -> Statement:
        """A fresh statement, equal to parsing ``sql`` with each ``?``
        written out as the literal :func:`to_sql` renders for its value
        (a SELECT carries ``sql`` as its shape)."""
        _check(params, self.arity, f"statement {self.sql!r}")
        template = self.template
        kind = type(template)
        if kind is Select:
            return template.with_where(_bound(template.where, params))
        if kind is Explain:
            return Explain(template.select.with_where(_bound(template.select.where, params)))
        if kind is Insert:
            return Insert(template.table, {column: _value(value, params)
                                           for column, value in template.values.items()})
        where = _bound(template.where, params)
        if kind is Update:
            return Update(template.table, {column: _value(value, params)
                                           for column, value in template.changes.items()},
                          where)
        return Delete(template.table, where)


def prepare(sql: str) -> PreparedStatement:
    """Parse one statement whose literals may be ``?`` placeholders."""
    parser = _Parser(_tokenize(sql), template=True)
    template = parser.statement()
    if type(template) is Select:
        template.shape = sql
    return PreparedStatement(sql, parser.arity, template)


# -- batches -------------------------------------------------------------------

#: How a statement of a batch is bound: its WHERE's slot values, the
#: ``(slot, Ref)`` pairs a reference fills, the WHERE with ``Param(slot)``.
_Bind = tuple[list, tuple[tuple[int, Ref], ...], Any]


def _check_refs(statements: Sequence[Any], index: int, refs: Iterable[Ref]) -> None:
    for ref in refs:
        target = ref.statement
        if not 0 <= target < index or not isinstance(statements[target], Select):
            raise QueryError(f"statement {index} references statement {target}: "
                             "a reference names an earlier SELECT of its batch")


def references(statements: Sequence[Any]) -> Optional[list[Optional[_Bind]]]:
    """How each statement of a batch is bound (None: it holds no
    :class:`Ref`); None when none does.  A reference to anything but an
    earlier SELECT of the batch is a :class:`QueryError`, raised here."""
    found: Optional[list[Optional[_Bind]]] = None
    for index, statement in enumerate(statements):
        refs: list[Ref] = []
        try:
            where = _bound(getattr(statement, "where", None), (),
                           lambda ref: refs.append(ref) or Param(len(refs) - 1))
        except IndexError:      # a Param: only a prepared template holds one
            raise QueryError(f"statement {index} holds an unbound Param") from None
        _check_refs(statements, index, refs)
        if refs:
            found = found or [None] * len(statements)
            found[index] = (refs, tuple(enumerate(refs)), where)
    return found


def _waves(refs: Sequence[Sequence[tuple[int, Ref]]]) -> list[list[int]]:
    """Statement indexes by wave: each after every statement it names."""
    depth: list[int] = []
    for named in refs:
        depth.append(1 + max(depth[ref.statement] for _slot, ref in named) if named else 0)
    return [[index for index, at in enumerate(depth) if at == wave]
            for wave in range(max(depth) + 1)]


class Batch(list):
    """The statements of one ``execute_batch``, with how each is bound
    (``binds``, None without a :class:`Ref`) and the ``waves`` that order
    allows, recorded once for every layer the batch crosses.

    A batch owns each statement it binds (:meth:`PreparedBatch.bind`
    builds them, :meth:`of` copies them): :meth:`bound` sets its WHERE
    from the record, nothing shared changes, and a retry binds afresh.
    A bound statement, here or from :meth:`PreparedStatement.bind`, owns
    its containers: its lists and each AND, OR and NOT of its WHERE are
    new on every bind; only a frozen leaf that held no placeholder is
    shared.  A batch that answered leaves each statement the caller
    handed in holding the WHERE it ran with, so a recorded batch
    replays."""

    __slots__ = ("binds", "waves", "_handed")

    def __init__(self, statements: Sequence[Any] = (),
                 binds: Optional[list[Optional[_Bind]]] = None, waves: Any = None):
        super().__init__(statements)
        self.binds = binds
        if binds is not None and waves is None:
            waves = _waves([bind[1] if bind else () for bind in binds])
        self.waves = waves
        self._handed: list[tuple[Any, Any]] = []

    @classmethod
    def of(cls, statements: Sequence[Union[Statement, str]]) -> "Batch":
        """A batch as it is; a list (SQL text parsed) scanned once."""
        if isinstance(statements, Batch):
            return statements
        statements = [parse(statement) if isinstance(statement, str) else statement
                      for statement in statements]
        batch = cls(statements, references(statements))
        for index, bind in enumerate(batch.binds or ()):
            if bind is not None:
                batch[index] = copy(statements[index])
                batch._handed.append((statements[index], batch[index]))
        return batch

    def bound(self, index: int, results: Sequence[Any]) -> Optional[Any]:
        """Statement ``index`` bound to the first rows of the ``results``
        it names; None, not to run, when one of those has none."""
        bind = self.binds[index] if self.binds is not None else None
        if bind is None:
            return self[index]
        values, refs, where = bind
        for _slot, ref in refs:
            if not results[ref.statement]:
                return None
        values = list(values)
        for slot, ref in refs:
            values[slot] = ref.value_in(results[ref.statement][0])
        statement = self[index]
        statement.where = _bound(where, values)
        return statement

    def run(self, execute: Callable[[Any], Any]) -> list[Any]:
        """Each statement through ``execute``, in order, bound first."""
        results: list[Any] = []
        for index in range(len(self)):
            statement = self.bound(index, results)
            results.append([] if statement is None else execute(statement))
        self.settle()
        return results

    def settle(self) -> None:
        """Give the statements handed to :meth:`of` the WHERE they ran with."""
        for handed, item in self._handed:
            handed.where = item.where


class PreparedBatch:
    """A batch of SELECTs translated once per shape (paper §5.4): each
    statement, holding ``Param(i)`` for a request's value and a
    :class:`Ref` for an earlier row, is rendered to ``?`` text and
    prepared once (a join travels beside its text), its references
    checked once.  Never changed after construction, so threads share
    one."""

    def __init__(self, statements: Sequence[Select]):
        self.statements = tuple(statements)
        if not all(isinstance(statement, Select) for statement in self.statements):
            raise QueryError("a prepared batch holds SELECTs only")
        self.arity = 0
        self._parts = []
        for index, statement in enumerate(self.statements):
            slots: list[Any] = []
            text = to_sql(replace(statement, join=None), slots)
            template = prepare(text).template
            # What a request's statement starts as.  Unbound, one holding
            # a reference keeps the statement's WHERE: its Ref fails typed.
            where, template.where, template.join = template.where, statement.where, statement.join
            if statement.join is not None:
                template.shape = (text, statement.join)
            params = tuple([(slot, value.index) for slot, value in enumerate(slots)
                            if type(value) is Param])
            refs = tuple([(slot, value) for slot, value in enumerate(slots)
                          if type(value) is Ref])
            _check_refs(self.statements, index, (ref for _slot, ref in refs))
            self.arity = max([self.arity, *(number + 1 for _slot, number in params)])
            self._parts.append((template, tuple(slots), params, refs, where))
        named = [part[3] for part in self._parts]
        self.waves = _waves(named) if any(named) else None

    def bind(self, params: Sequence[Any] = ()) -> Batch:
        """One request's batch: fresh statements, ``Param(i)`` bound to
        ``params[i]``."""
        _check(params, self.arity, "batch")
        statements, binds = [], []
        for template, slots, at, refs, where in self._parts:
            values = list(slots)
            for slot, index in at:
                values[slot] = params[index]
            if refs:
                statements.append(template.with_where(template.where))
                binds.append((values, refs, where))
            else:
                statements.append(template.with_where(_bound(where, values)))
                binds.append(None)
        return Batch(statements, binds if self.waves else None, self.waves)


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


def predicate_sql(predicate: Predicate, literal: _Literal = _quote) -> str:
    """``predicate`` as SQL text, its literals written by ``literal``."""
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
            [predicate_sql(operand, literal) for operand in predicate.operands]) + ")"
    if isinstance(predicate, Or):
        return "(" + " OR ".join(
            [predicate_sql(operand, literal) for operand in predicate.operands]) + ")"
    if isinstance(predicate, Not):
        return f"NOT ({predicate_sql(predicate.operand, literal)})"
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
            parts.append("WHERE " + predicate_sql(statement.where, literal))
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
            sql += " WHERE " + predicate_sql(statement.where, literal)
        return sql
    if isinstance(statement, Delete):
        sql = f"DELETE FROM {statement.table}"
        if statement.where is not None:
            sql += " WHERE " + predicate_sql(statement.where, literal)
        return sql
    raise QueryError(f"cannot render {statement!r} as SQL")
