"""The DM's I/O layer (paper §5.2).

"The I/O layer abstracts from the actual storage type and location.  All
data accesses happen through this layer."  It owns:

* the database adapter — collection objects in, SQL out (§5.4: "the DM
  API has no provisions for regular SQL calls ... objects are parsed,
  analyzed, verified and transformed into regular SQL queries"), as
  prepared statements: bind-variable text, parsed once per shape;
* vertical partition routing — "data requests for certain parts of a
  database schema are routed to a different DBMS";
* the filesystem adapter over the hierarchical storage manager;
* dynamic name construction;
* the query/edit counters the evaluation reports.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Optional, Union

from ..cache import Cache
from ..filestore import ChecksumError, StorageManager, UnpackedCopy
from ..obs import Observability, resolve as resolve_obs
from ..metadb import (
    DatabaseApi,
    Delete,
    Insert,
    LockTimeout,
    Select,
    Update,
    prepare as parse_sql,   # bench/trace.py times parse_sql and to_sql by these names
    to_sql,
)
from ..resil import Deadline, InjectedFault, RetryPolicy
from .naming import NameMapper, ResolvedName

Statement = Union[Select, Insert, Update, Delete]

#: Statement shapes (bind-variable SQL texts) kept parsed, LRU beyond
#: that.  The DM's own services issue a few dozen; the rest of the room
#: is for user SQL and IN-lists of varying length.
STATEMENT_CACHE_SHAPES = 256


class IoStats:
    """Query/edit counters (the figures of the paper's Tables 2 and 3)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.queries = 0
        self.edits = 0
        self.files_read = 0
        self.files_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # DM↔DBMS round trips: one per execute(), one per database a
        # batch reaches.
        # ``queries`` keeps counting logical statements (the paper's
        # "seven DM queries" stays seven); this measures what batching
        # actually saves — trips over the wire.
        self.round_trips = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "edits": self.edits,
            "round_trips": self.round_trips,
            "files_read": self.files_read,
            "files_written": self.files_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class IoLayer:
    """Storage-type-independent access to databases and archives."""

    def __init__(
        self,
        default_db: DatabaseApi,
        storage: StorageManager,
        obs: Optional[Observability] = None,
    ):
        self._databases: dict[str, DatabaseApi] = {"default": default_db}
        self._routes: dict[str, str] = {}  # table name -> database key
        self.storage = storage
        self.obs = resolve_obs(obs)
        self.stats = IoStats()
        #: The §5.4 pipeline's statement cache: bind-variable SQL text ->
        #: :class:`~repro.metadb.PreparedStatement`.
        self.statements = Cache(
            "dm.statements", max_entries=STATEMENT_CACHE_SHAPES, obs=self.obs
        )
        #: Idempotent reads (autocommit SELECTs, archive retrievals) are
        #: retried through this policy; writes are never retried here.
        self.read_retry = RetryPolicy(
            name="dm.read",
            max_attempts=3,
            base_delay_s=0.001,
            max_delay_s=0.05,
            seed=7,
            retryable=(InjectedFault, LockTimeout, ChecksumError, OSError,
                       TimeoutError),
            obs=self.obs,
        )
        # Last: the mapper issues counted queries through this layer.
        self.names = NameMapper(self, obs=self.obs)
        self.stats.reset()

    # -- partitioning ------------------------------------------------------

    def attach_database(self, key: str, database: DatabaseApi) -> None:
        if key in self._databases:
            raise ValueError(f"database key {key!r} already attached")
        self._databases[key] = database

    def route_table(self, table: str, database_key: str) -> None:
        """Vertical partition: send requests for ``table`` elsewhere."""
        if database_key not in self._databases:
            raise ValueError(f"unknown database key {database_key!r}")
        self._routes[table] = database_key

    def database_for(self, table: str) -> DatabaseApi:
        return self._databases[self._routes.get(table, "default")]

    @property
    def default_database(self) -> DatabaseApi:
        return self._databases["default"]

    # -- database adapter -----------------------------------------------------

    def execute(self, statement: Statement, tx=None) -> Any:
        """Run a collection-object statement through the adapter."""
        if isinstance(statement, str):
            raise TypeError(
                "the DM API has no provisions for regular SQL calls (paper §5.4); "
                "pass a Select/Insert/Update/Delete collection object"
            )
        Deadline.check_current("dm.execute")
        database = self.database_for(statement.table)
        if tx is None:
            statement = self._through_sql(statement)
        if isinstance(statement, Select):
            self.stats.queries += 1
            kind = "query"
        else:
            self.stats.edits += 1
            kind = "edit"
        self.stats.round_trips += 1
        # Autocommit SELECTs are idempotent — safe to retry on transient
        # failures.  Anything in a transaction or mutating runs exactly once.
        if kind == "query" and tx is None:
            def run():
                return self.read_retry.call(database.execute, statement)
        else:
            def run():
                return database.execute(statement, tx=tx)
        obs = self.obs
        if not obs.enabled:
            return run()
        started = time.perf_counter()
        with obs.span("dm.query", table=statement.table, kind=kind):
            result = run()
        obs.observe("dm.query_s", time.perf_counter() - started, kind=kind)
        return result

    def execute_batch(self, statements: list[Select]) -> list[Any]:
        """Run several autocommit SELECTs in grouped round trips.

        The multi-get behind :meth:`~repro.dm.dm.DataManager.fetch_page`:
        consecutive statements destined for the same database travel
        together through its ``execute_batch`` entry point (one round
        trip each group, one retry scope).  Results come back in
        statement order.  Reads only — writes keep their exactly-once
        path through :meth:`execute`.
        """
        if not statements:
            return []
        for statement in statements:
            if not isinstance(statement, Select):
                raise TypeError(
                    "execute_batch carries reads only; "
                    f"got {type(statement).__name__}"
                )
        Deadline.check_current("dm.execute_batch")
        prepared = [self._through_sql(statement) for statement in statements]
        self.stats.queries += len(prepared)
        # Group consecutive statements sharing a database so routed
        # (vertically partitioned) tables still batch with their kin;
        # each group is one trip to its database.
        runs: list[tuple[DatabaseApi, list[Select]]] = []
        for statement in prepared:
            database = self.database_for(statement.table)
            if runs and runs[-1][0] is database:
                runs[-1][1].append(statement)
            else:
                runs.append((database, [statement]))
        self.stats.round_trips += len(runs)

        def run() -> list[Any]:
            results: list[Any] = []
            for database, group in runs:
                if len(group) > 1:
                    results.extend(database.execute_batch(group))
                else:
                    results.append(database.execute(group[0]))
            return results

        obs = self.obs
        if not obs.enabled:
            return self.read_retry.call(run)
        started = time.perf_counter()
        with obs.span("dm.batch", statements=len(prepared)):
            result = self.read_retry.call(run)
        obs.observe("dm.batch_s", time.perf_counter() - started)
        return result

    def _through_sql(self, statement: Statement) -> Statement:
        """The §5.4 translation: render ``statement`` to bind-variable SQL
        and build it back from that text.  The text is parsed on first
        sight of its shape only; every call checks and binds its values.
        What comes back equals ``parse(to_sql(statement))`` (tested), so
        rewriting the text still happens "without system downtime"."""
        if not self._translatable(statement):
            return statement
        params: list[Any] = []
        text = to_sql(statement, params)
        prepared = self.statements.get_or_load(text, lambda: parse_sql(text))
        return prepared.bind(params)

    @staticmethod
    def _translatable(statement: Statement) -> bool:
        """SQL text cannot carry joins/blobs; those execute natively."""
        if isinstance(statement, Select):
            return statement.join is None
        if isinstance(statement, (Insert, Update)):
            values = statement.values if isinstance(statement, Insert) else statement.changes
            return all(not isinstance(value, (bytes, bytearray)) for value in values.values())
        return True

    def begin(self, table: str = "hle"):
        return self.database_for(table).begin()

    def commit(self, tx, table: str = "hle") -> None:
        self.database_for(table).commit(tx)

    def rollback(self, tx, table: str = "hle") -> None:
        self.database_for(table).rollback(tx)

    # -- filesystem adapter ------------------------------------------------------

    def store_payload(
        self, rel_path: str, payload: bytes, prefer_archive: Optional[str] = None
    ):
        with self.obs.span("dm.io.write", path=rel_path):
            item = self.storage.place(rel_path, payload, prefer=prefer_archive)
        self.stats.files_written += 1
        self.stats.bytes_written += len(payload)
        self.obs.count("dm.io.files_written")
        self.obs.count("dm.io.bytes_written", len(payload))
        return item

    def read_item(self, resolved: ResolvedName) -> bytes:
        """Read bytes for a constructed filename."""
        archive_id = self._archive_for_root(resolved.root)
        with self.obs.span("dm.io.read", path=resolved.path):
            # Retried: a ChecksumError here means the *read* was corrupt
            # (flaky controller), and a re-read can come back clean.
            payload = self.read_retry.call(
                self.storage.retrieve, archive_id, resolved.path
            )
        self.stats.files_read += 1
        self.stats.bytes_read += len(payload)
        self.obs.count("dm.io.files_read")
        self.obs.count("dm.io.bytes_read", len(payload))
        return payload

    def local_path(self, resolved: ResolvedName) -> Path:
        """Direct path for external programs (the §4.2 'copy files' path)."""
        archive_id = self._archive_for_root(resolved.root)
        return self.storage.local_path(archive_id, resolved.path)

    def unpacked_copy(
        self, resolved: ResolvedName, budget_bytes: int
    ) -> Optional[UnpackedCopy]:
        """A gzip item's inflated copy on the HSM's scratch disk, or
        ``None`` when it cannot be staged (read :meth:`local_path`)."""
        archive_id = self._archive_for_root(resolved.root)
        # Retried like read_item: the first access reads the archive.
        return self.read_retry.call(
            self.storage.unpacked_copy, archive_id, resolved.path, budget_bytes
        )

    def drop_unpacked(self, resolved: ResolvedName) -> None:
        self.storage.drop_unpacked(
            self._archive_for_root(resolved.root), resolved.path
        )

    def _archive_for_root(self, root: str) -> str:
        for archive_id in self.storage.archive_ids():
            if str(self.storage.archive(archive_id).root) == root:
                return archive_id
        raise KeyError(f"no registered archive with root {root!r}")

    # -- logging -------------------------------------------------------------------

    def log(self, component: str, message: str, level: str = "info",
            user_id: Optional[int] = None) -> None:
        database = self.database_for("ops_log")
        next_id = database.allocate_id("ops_log", "log_id")
        database.execute(
            Insert(
                "ops_log",
                {"log_id": next_id, "level": level, "component": component,
                 "message": message, "user_id": user_id},
            )
        )
