"""Predefined queries and operational reports.

The administrative schema section stores "predefined queries and
reports" (§4.1) and the operational section accumulates "monitoring
information such as usage statistics or audit trails".  This module is
the service layer over both: named queries any user can run (with
visibility enforced), and the reports an operator reads.
"""

from __future__ import annotations

from typing import Any, Optional

from ..metadb import Aggregate, Comparison, Insert, QueryError, Select, parse
from ..security import User, scoped_where
from .io_layer import IoLayer

#: Domain tables predefined queries may target (visibility applies).
QUERYABLE_TABLES = ("hle", "ana", "catalogs")


class UnknownQuery(KeyError):
    """No predefined query is stored under that name."""


class PredefinedQueries:
    """Named, stored SELECTs over the domain tables (§4.1).

    Queries are stored as SQL text in ``admin_config`` (section
    ``query``) so they can be added, fixed and tuned at run time —
    "queries may be adapted and optimized without system downtime"
    (§5.4).
    """

    def __init__(self, io: IoLayer):
        self.io = io

    def register(self, name: str, sql: str, description: str = "") -> None:
        statement = parse(sql)
        if not isinstance(statement, Select):
            raise QueryError("predefined queries must be SELECTs")
        if statement.table not in QUERYABLE_TABLES:
            raise QueryError(
                f"predefined queries may only target {QUERYABLE_TABLES}"
            )
        next_id = self._next_config_id()
        self.io.execute(
            Insert(
                "admin_config",
                {
                    "config_id": next_id,
                    "section": "query",
                    "key": name,
                    "value": sql,
                    "description": description,
                },
            )
        )

    def _next_config_id(self) -> int:
        rows = self.io.execute(
            Select("admin_config", aggregates=[Aggregate("max", "config_id", "m")])
        )
        return (rows[0]["m"] or 0) + 1

    def names(self) -> list[str]:
        rows = self.io.execute(
            Select("admin_config", where=Comparison("section", "=", "query"))
        )
        return sorted(row["key"] for row in rows)

    def describe(self, name: str) -> dict[str, Any]:
        rows = self.io.execute(
            Select(
                "admin_config",
                where=(Comparison("section", "=", "query") & Comparison("key", "=", name)),
            )
        )
        if not rows:
            raise UnknownQuery(f"no predefined query named {name!r}")
        return {"name": name, "sql": rows[0]["value"],
                "description": rows[0]["description"]}

    def run(self, name: str, user: Optional[User] = None) -> list[dict[str, Any]]:
        """Execute a stored query with the caller's visibility applied."""
        stored = self.describe(name)
        statement = parse(stored["sql"])
        statement.where = scoped_where(user, statement.where)
        return self.io.execute(statement)

    def update(self, name: str, sql: str) -> None:
        """Re-tune a stored query at run time (no downtime, §5.4)."""
        statement = parse(sql)
        if not isinstance(statement, Select) or statement.table not in QUERYABLE_TABLES:
            raise QueryError("replacement query is not allowed")
        from ..metadb import Update

        updated = self.io.execute(
            Update(
                "admin_config",
                {"value": sql},
                (Comparison("section", "=", "query") & Comparison("key", "=", name)),
            )
        )
        if not updated:
            raise UnknownQuery(f"no predefined query named {name!r}")


class Reports:
    """Operator reports over the operational schema section."""

    def __init__(self, io: IoLayer):
        self.io = io

    def usage_summary(self) -> list[dict[str, Any]]:
        """Operations ranked by frequency with mean duration."""
        return self.io.execute(
            Select(
                "ops_usage",
                group_by=["operation"],
                aggregates=[
                    Aggregate("count", "*", "n"),
                    Aggregate("avg", "duration_ms", "avg_ms"),
                ],
            )
        )

    def top_users(self, limit: int = 10) -> list[dict[str, Any]]:
        rows = self.io.execute(
            Select(
                "ops_usage",
                group_by=["user_id"],
                aggregates=[Aggregate("count", "*", "n")],
            )
        )
        rows.sort(key=lambda row: -row["n"])
        return rows[:limit]

    def archive_status(self) -> list[dict[str, Any]]:
        """The §4.1 'status of archives' view."""
        return self.io.execute(
            Select("ops_archives", order_by=[("archive_id", "asc")])
        )

    def lineage_for(self, ref: str) -> list[dict[str, Any]]:
        """Audit trail: every lineage record touching ``ref``."""
        rows = self.io.execute(
            Select("ops_lineage", where=Comparison("source_ref", "=", ref))
        )
        rows += self.io.execute(
            Select("ops_lineage", where=Comparison("target_ref", "=", ref))
        )
        rows.sort(key=lambda row: row["at"])
        return rows

    def repository_totals(self) -> dict[str, int]:
        """Headline counts: events, analyses, catalogs, raw units."""
        totals = {}
        for table in ("hle", "ana", "catalogs", "raw_units"):
            rows = self.io.execute(
                Select(table, aggregates=[Aggregate("count", "*", "n")])
            )
            totals[table] = rows[0]["n"]
        return totals
