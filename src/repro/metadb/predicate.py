"""Predicate AST used in WHERE clauses.

Predicates evaluate against a row dict and expose enough structure for the
planner to recognise *sargable* shapes (equality and range constraints on
indexed columns).  SQL three-valued logic is approximated: any comparison
with NULL is false, IS NULL / IS NOT NULL are explicit nodes.

Three evaluation paths exist: :meth:`Predicate.matches` walks the tree per
row (virtual dispatch per node), :meth:`Predicate.compile` returns a
fused closure the executor calls once per candidate row — And/Or collapse
their operands into a single function, so the hot filter loop pays no
isinstance checks or method lookups — and :meth:`Predicate.compile_vector`
returns a closure evaluating the whole tree over a *column segment* at
once: leaves ask the segment view for a boolean mask (numpy ufuncs,
dictionary-code probes), And/Or/Not combine masks with ``&``/``|``/``~``.
The vector path reproduces the row path's NULL semantics exactly: a NULL
never satisfies a comparison, so ``Not`` over a comparison is true on
NULL rows in both paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

RowMatcher = Callable[[dict], bool]

#: A vector matcher takes a segment view (duck-typed: the contract is the
#: mask-producing methods of :class:`repro.metadb.columnar.SegmentView`)
#: and returns a boolean mask over the segment's rows.
VectorMatcher = Callable[[Any], Any]


class Predicate:
    """Base class; subclasses implement :meth:`matches` and :meth:`compile`."""

    def matches(self, row: dict[str, Any]) -> bool:
        raise NotImplementedError

    def compile(self) -> RowMatcher:
        """Return a ``row -> bool`` closure equivalent to :meth:`matches`."""
        raise NotImplementedError

    def compile_vector(self) -> VectorMatcher:
        """Return a ``segment_view -> bool_mask`` closure equivalent to
        calling :meth:`matches` on every row of the segment."""
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

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None or self.value is None:
            return False
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False

    def compile(self) -> RowMatcher:
        column, value = self.column, self.value
        if value is None:
            return lambda row: False
        if self.op == "=":
            def match_eq(row: dict) -> bool:
                actual = row.get(column)
                return actual is not None and actual == value
            return match_eq
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

    def compile_vector(self) -> VectorMatcher:
        column, op, value = self.column, self.op, self.value
        return lambda view: view.compare(column, op, value)

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: str
    low: Any
    high: Any

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        try:
            return self.low <= actual <= self.high
        except TypeError:
            return False

    def compile(self) -> RowMatcher:
        column, low, high = self.column, self.low, self.high

        def match(row: dict) -> bool:
            actual = row.get(column)
            if actual is None:
                return False
            try:
                return low <= actual <= high
            except TypeError:
                return False
        return match

    def compile_vector(self) -> VectorMatcher:
        column, low, high = self.column, self.low, self.high
        return lambda view: view.compare(column, ">=", low) & view.compare(
            column, "<=", high
        )

    def columns(self) -> set[str]:
        return {self.column}


class In(Predicate):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Iterable[Any]):
        self.column = column
        self.values = frozenset(values)

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        return actual is not None and actual in self.values

    def compile(self) -> RowMatcher:
        column, values = self.column, self.values

        def match(row: dict) -> bool:
            actual = row.get(column)
            return actual is not None and actual in values
        return match

    def compile_vector(self) -> VectorMatcher:
        column, values = self.column, self.values
        return lambda view: view.isin(column, values)

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

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        return isinstance(actual, str) and bool(self._regex.fullmatch(actual))

    def compile(self) -> RowMatcher:
        column, fullmatch = self.column, self._regex.fullmatch

        def match(row: dict) -> bool:
            actual = row.get(column)
            return isinstance(actual, str) and fullmatch(actual) is not None
        return match

    def compile_vector(self) -> VectorMatcher:
        column, regex = self.column, self._regex
        return lambda view: view.like(column, regex)

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class IsNull(Predicate):
    column: str
    negated: bool = False

    def matches(self, row: dict[str, Any]) -> bool:
        is_null = row.get(self.column) is None
        return not is_null if self.negated else is_null

    def compile(self) -> RowMatcher:
        column = self.column
        if self.negated:
            return lambda row: row.get(column) is not None
        return lambda row: row.get(column) is None

    def compile_vector(self) -> VectorMatcher:
        column, negated = self.column, self.negated
        return lambda view: view.is_null(column, negated)

    def columns(self) -> set[str]:
        return {self.column}


class And(Predicate):
    def __init__(self, operands: Sequence[Predicate]):
        self.operands = list(operands)

    def matches(self, row: dict[str, Any]) -> bool:
        return all(operand.matches(row) for operand in self.operands)

    def compile(self) -> RowMatcher:
        parts = tuple(operand.compile() for operand in self.operands)
        if not parts:
            return lambda row: True
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            first, second = parts
            return lambda row: first(row) and second(row)

        def match(row: dict) -> bool:
            for part in parts:
                if not part(row):
                    return False
            return True
        return match

    def compile_vector(self) -> VectorMatcher:
        parts = tuple(operand.compile_vector() for operand in self.operands)
        if not parts:
            return lambda view: view.ones()
        if len(parts) == 1:
            return parts[0]

        def match(view: Any) -> Any:
            mask = parts[0](view)
            for part in parts[1:]:
                mask = mask & part(view)
            return mask
        return match

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result


class Or(Predicate):
    def __init__(self, operands: Sequence[Predicate]):
        self.operands = list(operands)

    def matches(self, row: dict[str, Any]) -> bool:
        return any(operand.matches(row) for operand in self.operands)

    def compile(self) -> RowMatcher:
        parts = tuple(operand.compile() for operand in self.operands)
        if not parts:
            return lambda row: False
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            first, second = parts
            return lambda row: first(row) or second(row)

        def match(row: dict) -> bool:
            for part in parts:
                if part(row):
                    return True
            return False
        return match

    def compile_vector(self) -> VectorMatcher:
        parts = tuple(operand.compile_vector() for operand in self.operands)
        if not parts:
            return lambda view: view.zeros()
        if len(parts) == 1:
            return parts[0]

        def match(view: Any) -> Any:
            mask = parts[0](view)
            for part in parts[1:]:
                mask = mask | part(view)
            return mask
        return match

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result


class Not(Predicate):
    def __init__(self, operand: Predicate):
        self.operand = operand

    def matches(self, row: dict[str, Any]) -> bool:
        return not self.operand.matches(row)

    def compile(self) -> RowMatcher:
        inner = self.operand.compile()
        return lambda row: not inner(row)

    def compile_vector(self) -> VectorMatcher:
        inner = self.operand.compile_vector()
        return lambda view: ~inner(view)

    def columns(self) -> set[str]:
        return self.operand.columns()


class TruePredicate(Predicate):
    """Matches every row; the implicit WHERE of an unfiltered scan."""

    def matches(self, row: dict[str, Any]) -> bool:
        return True

    def compile(self) -> RowMatcher:
        return lambda row: True

    def compile_vector(self) -> VectorMatcher:
        return lambda view: view.ones()

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
        flattened: list[Predicate] = []
        for operand in predicate.operands:
            flattened.extend(conjuncts(operand))
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

    Returns None when no conjunct constrains the column's range.
    """
    low: Any = None
    high: Any = None
    low_inclusive = True
    high_inclusive = True
    found = False
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, Between) and conjunct.column == column:
            found = True
            if low is None or conjunct.low > low:
                low, low_inclusive = conjunct.low, True
            if high is None or conjunct.high < high:
                high, high_inclusive = conjunct.high, True
        elif isinstance(conjunct, Comparison) and conjunct.column == column:
            if conjunct.op in (">", ">="):
                found = True
                if low is None or conjunct.value >= low:
                    low, low_inclusive = conjunct.value, conjunct.op == ">="
            elif conjunct.op in ("<", "<="):
                found = True
                if high is None or conjunct.value <= high:
                    high, high_inclusive = conjunct.value, conjunct.op == "<="
            elif conjunct.op == "=":
                return (conjunct.value, conjunct.value, True, True)
    if not found:
        return None
    return (low, high, low_inclusive, high_inclusive)
