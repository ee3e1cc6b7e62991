"""Undo-log transactions.

The database runs every mutation inside a transaction.  Autocommit wraps a
single statement; explicit transactions group statements (the DM uses them
to make an HLE plus its analyses plus their file references atomic —
paper §4.4).  Rollback replays the undo log in reverse.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from .errors import TransactionError


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


class Transaction:
    """One transaction's undo log and redo (WAL) records."""

    def __init__(self, tx_id: int):
        self.tx_id = tx_id
        self.state = TxState.ACTIVE
        self._undo: list[tuple] = []
        self.redo: list[dict[str, Any]] = []

    def _require_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionError(f"transaction {self.tx_id} is {self.state.value}")

    # -- logging -----------------------------------------------------------

    def log_insert(self, table: str, rowid: int, row: dict[str, Any]) -> None:
        self._require_active()
        self._undo.append(("insert", table, rowid))
        self.redo.append({"op": "insert", "table": table, "rowid": rowid, "row": row})

    def log_update(
        self, table: str, rowid: int, old_row: dict[str, Any], changes: dict[str, Any]
    ) -> None:
        self._require_active()
        self._undo.append(("update", table, rowid, old_row))
        self.redo.append(
            {"op": "update", "table": table, "rowid": rowid, "changes": changes}
        )

    def log_delete(self, table: str, rowid: int, old_row: dict[str, Any]) -> None:
        self._require_active()
        self._undo.append(("delete", table, rowid, old_row))
        self.redo.append({"op": "delete", "table": table, "rowid": rowid})

    # -- lifecycle -----------------------------------------------------------

    def mark_committed(self) -> None:
        self._require_active()
        self.state = TxState.COMMITTED

    def undo_operations(self) -> list[tuple]:
        """Undo entries, most recent first."""
        return list(reversed(self._undo))

    def mark_rolled_back(self) -> None:
        self._require_active()
        self.state = TxState.ROLLED_BACK
