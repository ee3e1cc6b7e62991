"""The database contract the tiers above the data tier are written against.

The paper's DM "hides the DBMS" (§3), which is what lets §7.3's
replication slot in underneath it unnoticed.  :class:`DatabaseApi` is
that narrow interface, written down once: exactly the members ``dm``,
``web``, ``security`` and ``schema`` call.  It is a declaration only —
no base class, no adapter, no registry.  :class:`~repro.metadb.Database`,
:class:`~repro.repl.ReplicaGroup`, :class:`~repro.shard.ShardedDatabase`
and :class:`~repro.web.loadgen.RemoteDatabase` each satisfy all of it,
and ``tests/test_database_contract.py`` holds every one of them, alone
and composed, to the same behaviour.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, Union, runtime_checkable

from ..obs import Observability
from .database import DatabaseStats
from .query import Explain, Select
from .schema import TableSchema
from .sql import Statement
from .storage import Table


@runtime_checkable
class DatabaseApi(Protocol):
    """What a database is, to everything above the data tier.

    **Isolation rule.**  A statement given ``tx=`` sees that
    transaction's own writes, committed or not.  A read without ``tx=``
    sees at least every committed transaction — or, where the caller
    set a ``max_lag`` on a replicated implementation, no more than
    ``max_lag`` committed transactions behind.

    A transaction handle is opaque: it comes from :meth:`begin` and goes
    back only to the ``execute``/``commit``/``rollback`` of the database
    that issued it.

    **Uniqueness rule.**  A primary key or unique constraint is checked
    by each copy a row is written to.  On a sharded catalog that is every
    shard for a broadcast table and one shard for any other placement
    (:class:`~repro.metadb.schema.Placement`), so the keys of a
    partitioned, following or local table are unique per shard, not
    across shards.  Since the per-item location rows follow their items
    that now includes ``loc_tuples.tuple_ref`` and ``loc_files
    (archive_id, rel_path)``, which a broadcast copy used to check
    globally.  The program draws such keys from :meth:`allocate_id`,
    which is global, or derives them from one.

    **Validation rule.**  A row is validated once, by the
    :class:`~repro.metadb.Database` that owns it: an INSERT's values and
    an UPDATE's changes are normalised against the table's schema there
    (types, defaults, NOT NULL) and checked against its keys, and what
    is stored, journaled and shipped is that one result.  Followers,
    recovery, a shard split and a re-sync apply final images.
    """

    @property
    def name(self) -> str: ...

    @property
    def obs(self) -> Observability: ...

    @property
    def stats(self) -> DatabaseStats: ...

    # -- statements ----------------------------------------------------------

    def execute(self, statement: Union[Statement, str], tx: Any = None) -> Any:
        """SELECT returns a list of row dicts, INSERT the new rowid,
        UPDATE/DELETE the affected row count, EXPLAIN a one-element list
        holding :meth:`explain_plan`'s answer.  Without ``tx`` the
        statement autocommits."""
        ...

    def execute_batch(self, statements: Sequence[Union[Statement, str]],
                      tx: Any = None) -> list[Any]:
        """One round trip: the results, in statement order, each exactly
        what :meth:`execute` would have returned.

        **Reference rule.**  A literal of a WHERE may be a
        :class:`~repro.metadb.Ref`: ``value * scale + shift`` of a column
        of the first row an *earlier* SELECT of the batch returned.  It
        is bound on the database side, checked as a bound literal would
        be, and the statement holding it runs only if that row is there;
        otherwise it is not executed and its result is ``[]``.  A
        reference to the statement itself, to a later one, out of range
        or to anything but a SELECT is a ``QueryError`` before anything
        runs; so is one handed to :meth:`execute`, where it has nothing
        to name.  A batch that answers leaves each statement it bound
        holding the WHERE it ran with, so a recorded batch replays
        statement by statement.  ``statements`` may be a
        :class:`~repro.metadb.Batch` that recorded its references when
        it was bound (:class:`~repro.metadb.PreparedBatch`): each layer
        reads that record, where a list is scanned once on entry.  This
        is what makes an HLE page one round trip, prepared once.

        What the statements of one batch share depends on who answers.
        A :class:`~repro.metadb.Database` runs the batch under one lock,
        so its results, references bound, are one snapshot: a page is
        one snapshot.  A :class:`~repro.repl.ReplicaGroup` answers an
        autocommit batch of reads from one copy (one rotation step, one
        failover scope), so they are one snapshot of that copy, at most
        ``max_lag`` behind, the tuple and what is bound to it included.
        A :class:`~repro.shard.ShardedDatabase` routes a batch of reads
        against one topology and sends each shard it targets one
        sub-batch, in waves where statements reference others (those
        named first): the statements agree per shard and wave, and there
        is no snapshot across shards (two shards may answer either side
        of a concurrent commit, as two single reads always could).  A
        batch with a mutation in it runs in statement order on every
        implementation."""
        ...

    # -- transactions --------------------------------------------------------

    def begin(self) -> Any: ...

    def commit(self, tx: Any) -> None: ...

    def rollback(self, tx: Any) -> None: ...

    def allocate_id(self, table: str, column: str) -> int:
        """The next integer id for ``table.column``: strictly increasing
        across every caller and transaction sharing this open database
        (a reopened one re-seeds above the highest stored value)."""
        ...

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """A schema installer creates what :meth:`has_table` reports
        missing; a table that exists keeps what was stored."""
        ...

    def drop_table(self, name: str) -> None: ...

    def has_table(self, name: str) -> bool: ...

    def table_names(self) -> list[str]: ...

    def table(self, name: str) -> Table:
        """Direct table access, where one copy holds the table whole (a
        sharded catalog raises for its partitioned tables)."""
        ...

    # -- introspection -------------------------------------------------------

    def explain_plan(self, select: Union[Select, Explain, str]) -> dict[str, Any]: ...

    def describe(self) -> dict[str, Any]:
        """The data tier's report: ``{"kind", "name", "stats", "shard",
        "replication"}``.  ``shard`` and ``replication`` are ``None``
        exactly where that layer is absent; each layer that is present
        contributes its own section.  JSON-serialisable."""
        ...

    # -- lifecycle -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot every copy and truncate its journal.  A snapshot
        records what it covers: the journal generation it starts and a
        follower's acked offset, so a reopened copy replays only what
        came after it and a follower resumes shipping where it was."""
        ...

    def close(self) -> None: ...
