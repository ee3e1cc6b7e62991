"""Predicate oracle: the per-row tree walk ``Predicate.matches`` was.

Every predicate node carried a ``matches(row)`` method that walked the
tree once per row with virtual dispatch per node.  The executor calls one
fused closure of ``compile`` per candidate row instead, over only the
conjuncts its access path left to test, so the walk is kept here, as one
function, for the differential tests (``tests/test_metadb_query.py``,
whose ``TestResidualWhere`` holds every access path's residual to this
walk over a full scan, ``tests/test_metadb_sql.py``,
``tests/test_schema_security.py``) to hold those closures to.  Not
imported by ``src``.
"""

from __future__ import annotations

from typing import Any

from repro.metadb import (
    And, Between, Comparison, In, IsNull, Like, Not, Or, Predicate,
)
from repro.metadb.predicate import _OPS, TruePredicate


def matches(predicate: Predicate, row: dict[str, Any]) -> bool:
    """Whether ``row`` satisfies ``predicate``: a comparison with NULL is
    false, and so is one between types that do not compare."""
    if isinstance(predicate, Comparison):
        actual = row.get(predicate.column)
        if actual is None or predicate.value is None:
            return False
        try:
            return _OPS[predicate.op](actual, predicate.value)
        except TypeError:
            return False
    if isinstance(predicate, Between):
        actual = row.get(predicate.column)
        if actual is None:
            return False
        try:
            return predicate.low <= actual <= predicate.high
        except TypeError:
            return False
    if isinstance(predicate, In):
        actual = row.get(predicate.column)
        return actual is not None and actual in predicate.values
    if isinstance(predicate, Like):
        actual = row.get(predicate.column)
        return isinstance(actual, str) and bool(predicate._regex.fullmatch(actual))
    if isinstance(predicate, IsNull):
        is_null = row.get(predicate.column) is None
        return not is_null if predicate.negated else is_null
    if isinstance(predicate, And):
        return all(matches(operand, row) for operand in predicate.operands)
    if isinstance(predicate, Or):
        return any(matches(operand, row) for operand in predicate.operands)
    if isinstance(predicate, Not):
        return not matches(predicate.operand, row)
    if isinstance(predicate, TruePredicate):
        return True
    raise TypeError(f"no oracle for {predicate!r}")
