"""Predicate AST used in WHERE clauses.

Predicates evaluate against a row dict and expose enough structure for the
planner to recognise *sargable* shapes (equality and range constraints on
indexed columns).  SQL three-valued logic is approximated: any comparison
with NULL is false, IS NULL / IS NOT NULL are explicit nodes.

:meth:`Predicate.compile` returns the closure the executor's ``filter``
calls once per candidate row, the one Python call a row costs: an And or
Or of two ``column = literal`` operands fuses them into it.  Only the residual
conjuncts are compiled, those the access path did not enforce exactly
(``query.split_where``).  A NULL never satisfies a comparison, so ``Not``
over a comparison is true on NULL rows.  (``tests/oracle_predicate.py``
keeps the per-node tree walk it is tested against.)

A comparison's literal may be a :class:`Ref`: a value of an earlier
statement's row, bound on the database side inside one batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .errors import QueryError

RowMatcher = Callable[[dict], bool]


def check_literal(value: Any) -> Any:
    """``value``, when a ``?`` may stand for it: NULL, an int (bool
    included), a str or a finite float.  Anything else is a
    :class:`QueryError`."""
    if value is None or isinstance(value, (int, str)) \
            or (isinstance(value, float) and isfinite(value)):
        return value
    raise QueryError(f"cannot bind {value!r} as a SQL literal")


@dataclass(frozen=True, eq=False)
class Ref:
    """A literal standing for ``value * scale + shift`` of ``column`` in the
    first row of the ``statement``-th SELECT of the same batch, an earlier
    one (``if_null`` stands in for NULL): see the reference rule of
    :meth:`~repro.metadb.DatabaseApi.execute_batch`.  Outside a batch it
    is no value: comparing, hashing or compiling one raises
    :class:`QueryError`, so one handed to ``execute`` fails typed where it
    is first used (routing, planning, an index probe, the filter), before
    any row is read."""

    statement: int
    column: str
    scale: float = 1.0
    shift: float = 0.0
    if_null: Any = None

    def value_in(self, row: dict[str, Any]) -> Any:
        """The value this stands for in the referenced row, checked like
        a bound literal."""
        try:
            value = row[self.column]
        except KeyError:
            raise QueryError(f"statement {self.statement} returns no "
                             f"{self.column!r} to reference") from None
        value = self.if_null if value is None else value
        if value is not None and (self.scale != 1.0 or self.shift):
            value = value * self.scale + self.shift
        return check_literal(value)

    def unresolved(self, *_args: Any) -> Any:
        raise QueryError(f"unresolved {self!r}: a reference has a value "
                         "only inside the batch that holds its statement")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = unresolved


class Predicate:
    """Base class; subclasses implement :meth:`compile` and
    :meth:`columns`."""

    def compile(self) -> RowMatcher:
        """Return a ``row -> bool`` closure: whether the row matches."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)

    def columns(self) -> set[str]:
        """All column names the predicate mentions."""
        raise NotImplementedError


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column OP literal`` comparison."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def compile(self) -> RowMatcher:
        column, value = self.column, self.value
        if value is None:
            return lambda row: False
        if type(value) is Ref:
            value.unresolved()
        if self.op == "=":      # a non-NULL literal never equals NULL
            return lambda row: row.get(column) == value
        if self.op == "!=":
            def match_ne(row: dict) -> bool:
                actual = row.get(column)
                return actual is not None and actual != value
            return match_ne
        op = _OPS[self.op]

        def match(row: dict) -> bool:
            actual = row.get(column)
            if actual is None:
                return False
            try:
                return op(actual, value)
            except TypeError:
                return False
        return match

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: str
    low: Any
    high: Any

    def compile(self) -> RowMatcher:
        column, low, high = self.column, self.low, self.high
        for bound in (low, high):
            if type(bound) is Ref:
                bound.unresolved()

        def match(row: dict) -> bool:
            actual = row.get(column)
            if actual is None:
                return False
            try:
                return low <= actual <= high
            except TypeError:
                return False
        return match

    def columns(self) -> set[str]:
        return {self.column}


class In(Predicate):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Iterable[Any]):
        self.column = column
        self.values = frozenset(values)

    def compile(self) -> RowMatcher:
        column, values = self.column, self.values

        def match(row: dict) -> bool:
            actual = row.get(column)
            return actual is not None and actual in values
        return match

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"In({self.column!r}, {sorted(map(repr, self.values))})"


class Like(Predicate):
    """SQL LIKE with ``%`` (any run) and ``_`` (single char) wildcards."""

    def __init__(self, column: str, pattern: str):
        self.column = column
        self.pattern = pattern
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        # fullmatch, not a $-anchored match: "$" accepts a trailing newline
        # ("abc\n" would match LIKE 'abc'), which SQL LIKE does not.
        self._regex = re.compile("".join(parts), re.DOTALL)

    def compile(self) -> RowMatcher:
        column, fullmatch = self.column, self._regex.fullmatch

        def match(row: dict) -> bool:
            actual = row.get(column)
            return isinstance(actual, str) and fullmatch(actual) is not None
        return match

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class IsNull(Predicate):
    column: str
    negated: bool = False

    def compile(self) -> RowMatcher:
        column = self.column
        if self.negated:
            return lambda row: row.get(column) is not None
        return lambda row: row.get(column) is None

    def columns(self) -> set[str]:
        return {self.column}


class _Junction(Predicate):
    """An And (``any_`` false) or an Or of ``operands``."""

    any_: bool

    def __init__(self, operands: Sequence[Predicate]):
        self.operands = list(operands)

    def compile(self) -> RowMatcher:
        """One closure: two ``column = literal`` operands with non-NULL
        literals fuse into it, so that a row costs one Python call, not
        three."""
        any_ = self.any_
        pairs = [(operand.column, operand.value) for operand in self.operands
                 if type(operand) is Comparison and operand.op == "="
                 and operand.value is not None and type(operand.value) is not Ref]
        if len(pairs) == 2 == len(self.operands):
            (first, first_value), (second, second_value) = pairs
            if any_:
                return lambda row: row.get(first) == first_value or row.get(second) == second_value
            return lambda row: row.get(first) == first_value and row.get(second) == second_value
        parts = [operand.compile() for operand in self.operands]
        if not parts:
            return lambda row: not any_
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            first, second = parts
            if any_:
                return lambda row: first(row) or second(row)
            return lambda row: first(row) and second(row)

        def match(row: dict) -> bool:
            for part in parts:
                if bool(part(row)) is any_:
                    return any_
            return not any_
        return match

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result


class And(_Junction):
    any_ = False


class Or(_Junction):
    any_ = True


class Not(Predicate):
    def __init__(self, operand: Predicate):
        self.operand = operand

    def compile(self) -> RowMatcher:
        inner = self.operand.compile()
        return lambda row: not inner(row)

    def columns(self) -> set[str]:
        return self.operand.columns()


class TruePredicate(Predicate):
    """Matches every row; the implicit WHERE of an unfiltered scan."""

    def compile(self) -> RowMatcher:
        return lambda row: True

    def columns(self) -> set[str]:
        return set()


ALWAYS = TruePredicate()


#: What the sargability helpers take: a WHERE tree, or the conjunct list
#: a caller asking about several columns has flattened once already.
Conjunction = Union[Predicate, None, list[Predicate]]


def conjuncts(predicate: Conjunction) -> list[Predicate]:
    """Flatten nested ANDs into a conjunct list (for the planner)."""
    if isinstance(predicate, list):
        return predicate
    if predicate is None or isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        # One call however deep the ANDs nest: a statement's WHERE is
        # flattened once per execution.
        flattened: list[Predicate] = []
        pending = predicate.operands[::-1]
        while pending:
            operand = pending.pop()
            if isinstance(operand, And):
                pending.extend(operand.operands[::-1])
            elif operand is not None and not isinstance(operand, TruePredicate):
                flattened.append(operand)
        return flattened
    return [predicate]


def equality_on(predicate: Conjunction, column: str) -> Optional[Any]:
    """If the conjuncts pin ``column`` to a single value, return it."""
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, Comparison) and conjunct.op == "=" and conjunct.column == column:
            return conjunct.value
    return None


def in_list_on(predicate: Conjunction, column: str) -> Optional[frozenset]:
    """If a conjunct restricts ``column`` to an IN-list, return its values."""
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, In) and conjunct.column == column:
            return conjunct.values
    return None


def range_on(predicate: Conjunction, column: str) -> Optional[tuple]:
    """Extract (low, high, low_incl, high_incl) bounds for ``column``.

    Returns None when no conjunct constrains the column's range.  A list
    is taken as conjuncts already flattened (the executor's seek).
    """
    low: Any = None
    high: Any = None
    low_inclusive = True
    high_inclusive = True
    found = False
    for conjunct in predicate if type(predicate) is list else conjuncts(predicate):
        if isinstance(conjunct, Between) and conjunct.column == column:
            found = True
            if low is None or conjunct.low > low:
                low, low_inclusive = conjunct.low, True
            if high is None or conjunct.high < high:
                high, high_inclusive = conjunct.high, True
        elif isinstance(conjunct, Comparison) and conjunct.column == column:
            # Of two equal bounds the exclusive one wins, in either order.
            if conjunct.op in (">", ">="):
                found = True
                if low is None or conjunct.value > low or (
                        conjunct.op == ">" and conjunct.value == low):
                    low, low_inclusive = conjunct.value, conjunct.op == ">="
            elif conjunct.op in ("<", "<="):
                found = True
                if high is None or conjunct.value < high or (
                        conjunct.op == "<" and conjunct.value == high):
                    high, high_inclusive = conjunct.value, conjunct.op == "<="
            elif conjunct.op == "=":
                return (conjunct.value, conjunct.value, True, True)
    if not found:
        return None
    return (low, high, low_inclusive, high_inclusive)

