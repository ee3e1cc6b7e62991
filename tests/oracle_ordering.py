"""The differential oracle for ORDER BY.

The row sort key ``repro.metadb.query`` ordered with before rows were
sorted one column a pass (commit 1e452f2), copied unchanged: one tuple
key, NULLS LAST in both directions, DESC through a wrapper that inverts
``<``.  Nothing under ``src/`` imports this module; the ordering tests
in ``test_metadb_query.py`` and ``test_shard.py`` sort with it and
compare as lists.
"""

from typing import Any, Sequence


class _Desc:
    """Inverts comparisons so a single ascending sort yields DESC order."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: "_Desc") -> bool:
        return self.value == other.value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value


def _order_key(order_by: Sequence[tuple[str, str]]):
    """Tuple sort key with explicit NULLS-LAST semantics per column.

    Each component is ``(is_null, value)`` so NULL never masquerades as a
    literal (the old key substituted 0, interleaving NULLs with numeric
    columns on DESC); NULLs sort last for both directions.
    """
    specs = tuple((column, direction == "desc") for column, direction in order_by)

    def key(row: dict[str, Any]) -> tuple:
        parts = []
        for column, descending in specs:
            value = row.get(column)
            if value is None:
                parts.append((True, None))
            else:
                parts.append((False, _Desc(value) if descending else value))
        return tuple(parts)
    return key


def ordered(rows, order_by: Sequence[tuple[str, str]]) -> list[dict[str, Any]]:
    """``rows`` as the old executor ordered them (stable, new list)."""
    return sorted(rows, key=_order_key(order_by))
