"""Replica groups: one primary, N log-shipped followers, self-healing.

A :class:`ReplicaGroup` satisfies :class:`~repro.metadb.api.DatabaseApi`,
so the DM's I/O layer and :class:`~repro.shard.ShardedDatabase` sit on
top of it unchanged.  Writes go to the primary only; its commit listener
appends each durable redo batch to the :class:`ReplicationLog`, and the
:class:`LogShipper` streams the batches to followers.  Reads rotate
across the primary and every follower that is healthy *and* fresh
enough (``max_lag``), behind the standard breaker machinery; a read
inside a transaction goes to the primary, which holds the transaction.

Per-copy state machine::

    in_sync ──lag──> lagging ──breaker open / crash──> dead
       ^                ^                                │
       │                └── log replay caught up ────────┤ rejoin_replica()
       └─────── lag drained ──────── rejoining <─────────┘

``dead`` has two flavours: a *partitioned* copy (breaker tripped; it is
probed again after the cooldown and revives on the first success) and a
*crashed* copy (``kill_replica`` / a real process death; it only comes
back through :meth:`ReplicaGroup.rejoin_replica`, which recovers the
follower's own WAL — torn tail discarded — and catches up by log replay
from its last durably acked offset, falling back to an anti-entropy
full re-sync only when the retained log no longer reaches back far
enough).
"""

from __future__ import annotations

import enum
import threading
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..metadb.database import Database, DatabaseStats
from ..metadb.query import Delete, Insert, Select, Update
from ..metadb.schema import TableSchema
from ..metadb.sql import Batch, Statement, parse
from ..metadb.transactions import Transaction
from ..obs import Gauge, Observability, resolve as resolve_obs
from ..resil.breaker import BreakerOpen, CircuitBreaker
from ..resil.faults import fire as fire_fault
from ..resil.policies import TRANSIENT_ERRORS
from .antientropy import repair_replica, verify_replica
from .log import ReplicationLog
from .shipper import LogShipper


class ReplicaState(enum.Enum):
    IN_SYNC = "in_sync"
    LAGGING = "lagging"
    DEAD = "dead"
    REJOINING = "rejoining"


class Replica:
    """One follower copy and its replication bookkeeping."""

    def __init__(self, name: str, db: Database, path: Optional[Path], lag_gauge: Gauge):
        self.name = name
        self.db = db
        self.path = path
        self.lag_gauge = lag_gauge
        self.acked_lsn = 0
        self.state = ReplicaState.IN_SYNC
        self.crashed = False
        self.reads = 0
        self.ship_failures = 0
        self.last_repair: Optional[dict[str, Any]] = None

    def lag(self, head_lsn: int) -> int:
        return max(0, head_lsn - self.acked_lsn)


class ReplicaGroup:
    """One primary plus N log-shipped followers behind ``execute()``.

    ``max_lag`` is the staleness contract, in committed transactions: a
    follower may serve reads while trailing the primary by at most
    ``max_lag`` log entries.  The default 0 gives read-your-writes from
    every copy (with ``auto_ship`` every commit ships synchronously, so
    healthy followers never lag); raising it trades freshness for read
    availability while followers catch up.
    """

    def __init__(
        self,
        primary: Optional[Database] = None,
        name: str = "metadb",
        path: Optional[Union[str, Path]] = None,
        n_replicas: int = 0,
        obs: Optional[Observability] = None,
        max_lag: int = 0,
        auto_ship: bool = True,
        breaker_cooldown_s: float = 5.0,
        n_ranges: int = 8,
        fault_scope: Optional[str] = None,
    ):
        self.obs = resolve_obs(obs)
        self._path = Path(path) if path is not None else None
        if primary is None:
            primary = Database(path=self._path, name=name, obs=self.obs,
                               fault_scope=fault_scope)
        self.primary = primary
        self.max_lag = max_lag
        self.auto_ship = auto_ship
        self.breaker_cooldown_s = breaker_cooldown_s
        self.n_ranges = n_ranges
        self.log = ReplicationLog()
        self.shipper = LogShipper(self.log, obs=self.obs)
        self.replicas: list[Replica] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        self.stats = DatabaseStats()
        self._lock = threading.Lock()        # topology + counters
        self._ship_lock = threading.Lock()   # serialises follower applies
        self._read_cursor = 0
        self._copies: tuple = ()     # (name, follower or None, breaker)
        self.failovers = 0
        self.rejoins = 0
        self.full_clones = 0
        self.repairs = 0
        self.reads_by_copy: dict[str, int] = {self.primary.name: 0}
        # Resolved once: the commit hook rides every primary write, so it
        # must not pay the registry's label-key lookup per transaction.
        self._head_gauge = self.obs.gauge("repl.head_lsn", db=self.primary.name)
        self.primary.add_commit_listener(self._on_primary_commit)
        for _ in range(n_replicas):
            self.add_replica()

    @property
    def name(self) -> str:
        return self.primary.name

    @property
    def n_copies(self) -> int:
        return 1 + len(self.replicas)

    # -- topology ------------------------------------------------------------

    def _replica(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise LookupError(f"no replica named {name!r} in group {self.name!r}")

    def _breaker_for(self, copy_name: str) -> CircuitBreaker:
        breaker = self.breakers.get(copy_name)
        if breaker is None:
            breaker = self.breakers[copy_name] = CircuitBreaker.for_copy(
                f"repl.copy.{copy_name}", self.breaker_cooldown_s, self.obs)
        return breaker

    def add_replica(self, db: Optional[Database] = None,
                    name: Optional[str] = None) -> Replica:
        """Attach a follower; by default a fresh database under
        ``<group path>/replica-<n>/`` (in-memory when the group is),
        bootstrapped to the primary's current state via anti-entropy."""
        index = len(self.replicas) + 1
        name = name or f"{self.name}-r{index}"
        replica_path = self._path / f"replica-{index}" if self._path else None
        if db is None:
            db = Database(path=replica_path, name=name, obs=self.obs)
        replica = Replica(name, db, replica_path,
                          self.obs.gauge("repl.lag", db=self.name, replica=name))
        started_empty = not db.table_names()
        with self.primary._lock:
            # Joined under the lock the clone holds: no commit can land
            # between the clone and the follower's first ship.
            report = self._resync(replica, bootstrap=True)
            with self._lock:
                self.replicas.append(replica)
                self.reads_by_copy[name] = 0
                self._copies = ()
        if started_empty and report["rows_cloned"]:
            self.full_clones += 1
        if not started_empty or self.primary.table_names():
            # Re-opened with prior state, or cloned a populated primary:
            # worth an event either way; a fresh empty pair is silent.
            self.obs.event(
                "info", "repl", "replica.bootstrapped",
                f"replica {name!r} bootstrapped into group {self.name!r}",
                db=self.name, replica=name,
            )
        self.obs.set_gauge("repl.replicas", len(self.replicas), db=self.name)
        return replica

    # -- state machine -------------------------------------------------------

    def _transition(self, replica: Replica, state: ReplicaState) -> None:
        previous = replica.state
        if previous is state:
            return
        replica.state = state
        self.obs.event(
            "warn" if state is ReplicaState.DEAD else "info",
            "repl", "replica.transition",
            f"replica {replica.name!r}: {previous.value} -> {state.value}",
            db=self.name, replica=replica.name,
            from_state=previous.value, to_state=state.value,
            acked_lsn=replica.acked_lsn, head_lsn=self.log.head_lsn,
        )

    def _update_health(self, replica: Replica) -> None:
        if replica.crashed:
            return
        lag = replica.lag(self.log.head_lsn)
        replica.lag_gauge.set(lag)
        self._transition(
            replica,
            ReplicaState.IN_SYNC if lag == 0 else ReplicaState.LAGGING,
        )

    def kill_replica(self, name: str) -> None:
        """Simulate a follower crash: the copy stops serving immediately
        and only :meth:`rejoin_replica` brings it back.  Nothing is
        flushed — exactly what a real process death leaves behind (its
        WAL holds every acked batch; anything in flight is lost)."""
        replica = self._replica(name)
        replica.crashed = True
        self._transition(replica, ReplicaState.DEAD)

    def rejoin_replica(self, name: str) -> dict[str, Any]:
        """Recover a crashed follower and catch it up.

        The follower re-opens from its own WAL (snapshot + journal
        replay; a torn tail is detected and truncated by
        :class:`~repro.metadb.wal.Journal`), which also recovers its
        last durably acked offset.  Catch-up is then a log replay of
        everything past that offset — no full re-clone — unless the
        retained log window no longer reaches back that far,
        in which case anti-entropy re-syncs it range by range.
        """
        replica = self._replica(name)
        self._transition(replica, ReplicaState.REJOINING)
        if replica.path is not None:
            db = Database(path=replica.path, name=replica.name, obs=self.obs)
        else:
            # In-memory follower: a crash loses everything.
            db = Database(name=replica.name, obs=self.obs)
        replica.db = db
        replica.crashed = False
        recovered_lsn = db.replication_offset
        replica.acked_lsn = recovered_lsn
        result: dict[str, Any]
        try:
            replayed = 0
            with self._ship_lock:
                # Shipping during the rejoin may hit the same transient
                # faults as any ship; the acked offset reflects exactly
                # the applied batches, so a retry simply resumes.  After
                # the retry budget the copy is left lagging — the next
                # ship or repair pass finishes the catch-up.
                for _attempt in range(32):
                    try:
                        replayed += self.shipper.ship(replica)
                        break
                    except LookupError:
                        raise
                    except TRANSIENT_ERRORS:
                        replica.ship_failures += 1
                        self.obs.count("repl.ship_failures", db=self.name,
                                       replica=name)
            result = {"mode": "log_replay", "replayed_records": replayed,
                      "from_lsn": recovered_lsn}
            self.obs.count("repl.replayed_records", replayed,
                           db=self.name, replica=name)
        except LookupError:
            report = self._resync(replica)
            self.full_clones += 1
            self.obs.count("repl.full_clones", db=self.name, replica=name)
            result = {"mode": "full_resync", "rows_cloned": report["rows_cloned"]}
        self.rejoins += 1
        self.obs.count("repl.rejoins", db=self.name, replica=name)
        self._breaker_for(name).reset()
        self._update_health(replica)
        # Commits that landed while the state was still ``rejoining`` were
        # skipped by auto-ship; drain them now that the copy is live.
        with self._ship_lock:
            self._ship_one(replica)
        self.obs.event(
            "info", "repl", "replica.rejoined",
            f"replica {name!r} rejoined via {result['mode']}",
            db=self.name, replica=name, **{
                k: v for k, v in result.items()
                if isinstance(v, (int, str, float))
            },
        )
        return result

    # -- log shipping --------------------------------------------------------

    def _on_primary_commit(self, tx_id: int, records: list[dict[str, Any]]) -> None:
        lsn = self.log.append(tx_id, records)
        self._head_gauge.set(lsn)
        if self.auto_ship and self.replicas:
            self.ship()

    def ship(self, replica_name: Optional[str] = None) -> int:
        """Push pending log entries to followers; returns records shipped."""
        targets = (
            [self._replica(replica_name)] if replica_name is not None
            else list(self.replicas)
        )
        shipped = 0
        with self._ship_lock:
            for replica in targets:
                shipped += self._ship_one(replica)
        self._truncate_log()
        return shipped

    def _ship_one(self, replica: Replica) -> int:
        """Ship to one follower (``_ship_lock`` held).  Failures never
        propagate to the writer: they are recorded against the copy's
        breaker and the copy degrades to lagging/dead instead."""
        if replica.crashed or replica.state is ReplicaState.REJOINING:
            return 0
        if replica.lag(self.log.head_lsn) == 0:
            return 0
        breaker = self._breaker_for(replica.name)
        if not breaker.allow():
            return 0
        try:
            shipped = self.shipper.ship(
                replica, crash_point=f"repl.replica.{replica.name}.crash"
            )
        except LookupError:
            # Fell behind the retained log window: only anti-entropy can
            # catch it up now.
            breaker.record_success()
            self._transition(replica, ReplicaState.LAGGING)
            return 0
        except TRANSIENT_ERRORS:
            breaker.record_failure()
            replica.ship_failures += 1
            self.obs.count("repl.ship_failures", db=self.name,
                           replica=replica.name)
            if breaker.is_open():
                self._transition(replica, ReplicaState.DEAD)
            else:
                self._transition(replica, ReplicaState.LAGGING)
            return 0
        breaker.record_success()
        self._update_health(replica)
        return shipped

    def _truncate_log(self) -> None:
        """Drop log entries every follower has acknowledged.  A dead or
        lagging copy pins the log at its acked offset (so rejoin can
        replay instead of re-cloning), bounded by the log's own retention
        cap."""
        if not self.replicas:
            self.log.truncate_to(self.log.head_lsn)
            return
        self.log.truncate_to(min(r.acked_lsn for r in self.replicas))

    # -- anti-entropy --------------------------------------------------------

    def verify(self) -> dict[str, dict[str, list]]:
        """Range-checksum comparison of every live follower against the
        primary; maps replica name -> divergent ranges per table (empty
        == byte-identical)."""
        report = {}
        for replica in self.replicas:
            if replica.crashed:
                continue
            report[replica.name] = verify_replica(
                self.primary, replica.db, self.n_ranges
            )
        return report

    def repair(self, replica_name: Optional[str] = None) -> dict[str, Any]:
        """Anti-entropy pass: ship pending entries first (pure lag must
        not read as divergence), then checksum-diff and re-clone
        divergent ranges.  Reads keep flowing throughout — only writes
        pause, for the duration of the range comparison."""
        targets = (
            [self._replica(replica_name)] if replica_name is not None
            else list(self.replicas)
        )
        reports: dict[str, Any] = {}
        for replica in targets:
            if replica.crashed:
                continue
            with self._ship_lock:
                self._ship_one(replica)
            reports[replica.name] = self._resync(replica)
        return reports

    def _resync(self, replica: Replica, bootstrap: bool = False) -> dict[str, Any]:
        """Make one follower byte-identical to the primary under the
        primary's lock, then align its offsets with the log head (commits
        are blocked while the lock is held, so the head is stable)."""
        with self.primary._lock:
            report = repair_replica(self.primary, replica.db, self.n_ranges)
            head = self.log.head_lsn
            # Forced, not deduplicated: the shipped-log LSNs restart
            # across a primary's restart.
            replica.db.apply_redo([{"op": "__repl_ack__", "lsn": head}])
            replica.acked_lsn = head
        if not bootstrap:
            self.repairs += 1
            self.obs.count("repl.repair.runs", db=self.name, replica=replica.name)
            if report["ranges_repaired"]:
                self.obs.count("repl.repair.ranges", report["ranges_repaired"],
                               db=self.name, replica=replica.name)
                self.obs.event(
                    "warn", "repl", "replica.repaired",
                    f"anti-entropy repaired {report['ranges_repaired']} "
                    f"range(s) on {replica.name!r}",
                    db=self.name, replica=replica.name,
                    ranges_repaired=report["ranges_repaired"],
                    rows_cloned=report["rows_cloned"],
                )
        replica.last_repair = {
            "ranges_checked": report["ranges_checked"],
            "ranges_repaired": report["ranges_repaired"],
            "rows_cloned": report["rows_cloned"],
            "bootstrap": bootstrap,
        }
        self._update_health(replica)
        return report

    # -- reads ---------------------------------------------------------------

    def _read_with_failover(
            self, statements: Sequence[Select]) -> list[list[dict[str, Any]]]:
        """Serve a batch of reads (``execute``: a batch of one) from the
        next healthy, fresh-enough copy: all of it from that one copy,
        as one snapshot of it, so the statements agree with each other.

        Candidates are filtered *before* any attempt, from a prebuilt tuple
        of copies and breakers: crashed/rejoining copies, open breakers and
        followers trailing by more than ``max_lag`` never see the read
        (stale skips are counted).  The survivors are rotated round-robin
        by a cursor moved without a lock; a transient failure records
        against the copy's breaker and fails the whole batch over to the
        next candidate, landing on the primary if every follower is out.
        The counters move under one lock by the number of statements
        answered, a statement whose reference found no row included."""
        head = self.log.head_lsn
        start = self._read_cursor
        self._read_cursor = start + 1
        candidates = []
        for copy in self._copies or self._copies_read():
            _name, replica, breaker = copy
            if replica is not None and (
                    replica.crashed or replica.state is ReplicaState.REJOINING):
                continue
            if breaker.is_open():
                continue
            if replica is not None and replica.lag(head) > self.max_lag:
                self.obs.count("repl.stale_skips", db=self.name,
                               replica=replica.name)
                continue
            candidates.append(copy)
        last_transient: Optional[BaseException] = None
        for offset in range(len(candidates)):
            name, replica, breaker = candidates[(start + offset) % len(candidates)]
            if not breaker.allow():
                continue
            db = self.primary if replica is None else replica.db
            try:
                fire_fault(f"repl.replica.{name}.crash")
                results = [db.execute(statements[0])] if len(statements) == 1 \
                    else db.execute_batch(statements)
            except TRANSIENT_ERRORS as exc:
                breaker.record_failure()
                last_transient = exc
                self.obs.count("repl.failovers", db=self.name, copy=name)
                with self._lock:
                    self.failovers += 1
                if replica is not None and breaker.is_open():
                    self._transition(replica, ReplicaState.DEAD)
                continue
            breaker.record_success()
            if replica is not None and (replica.state is not ReplicaState.IN_SYNC
                                        or replica.acked_lsn != head):
                self._update_health(replica)    # in sync at ``head``: no change
            with self._lock:
                self.stats.selects += len(statements)
                self.stats.rows_read += sum(map(len, results))
                self.reads_by_copy[name] += len(statements)
                if replica is not None:
                    replica.reads += len(statements)
            return results
        if last_transient is not None:
            raise last_transient
        raise BreakerOpen(
            f"repl.{self.name}.reads",
            min((b.retry_after_s() for b in self.breakers.values()), default=0.0),
        )

    def _copies_read(self) -> tuple:
        """Remade after a change: the primary, then each follower."""
        with self._lock:
            copies = [(self.primary.name, None), *((r.name, r) for r in self.replicas)]
            self._copies = tuple((name, replica, self._breaker_for(name))
                                 for name, replica in copies)
        return self._copies

    # -- the DatabaseApi surface ----------------------------------------------

    def has_table(self, name: str) -> bool:
        return self.primary.has_table(name)

    def table_names(self) -> list[str]:
        return self.primary.table_names()

    def table(self, name: str):
        return self.primary.table(name)

    def holds(self, table: str, column: str, value: Any) -> bool:
        return self.primary.holds(table, column, value)

    def create_table(self, schema: TableSchema) -> None:
        self.primary.create_table(schema)
        self._replicate_ddl({
            "op": "__ddl__", "kind": "create_table", "schema": schema.to_dict(),
        })

    def drop_table(self, name: str) -> None:
        self.primary.drop_table(name)
        self._replicate_ddl({"op": "__ddl__", "kind": "drop_table", "table": name})

    def _replicate_ddl(self, record: dict[str, Any]) -> None:
        self.log.append(0, [record])
        self._head_gauge.set(self.log.head_lsn)
        if self.auto_ship and self.replicas:
            self.ship()

    def explain_plan(self, select) -> dict[str, Any]:
        return self.primary.explain_plan(select)

    def allocate_id(self, table: str, column: str) -> int:
        return self.primary.allocate_id(table, column)

    def begin(self) -> Transaction:
        return self.primary.begin()

    def commit(self, tx: Transaction) -> None:
        self.primary.commit(tx)
        self.stats.transactions_committed += 1

    def rollback(self, tx: Transaction) -> None:
        self.primary.rollback(tx)
        self.stats.transactions_rolled_back += 1

    def execute(
        self,
        statement: Union[Statement, str],
        tx: Optional[Transaction] = None,
    ) -> Any:
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Select) and tx is None:
            return self._read_with_failover((statement,))[0]
        # Writes and EXPLAIN go to the primary, and so does a read inside
        # a transaction: only the primary holds its uncommitted rows.
        result = self.primary.execute(statement, tx=tx)
        with self._lock:
            if isinstance(statement, Select):
                self.stats.selects += 1
                self.stats.rows_read += len(result)
                self.reads_by_copy[self.primary.name] += 1
            elif isinstance(statement, Insert):
                self.stats.inserts += 1
                self.stats.rows_written += 1
            elif isinstance(statement, Update):
                self.stats.updates += 1
                self.stats.rows_written += int(result or 0)
            elif isinstance(statement, Delete):
                self.stats.deletes += 1
                self.stats.rows_written += int(result or 0)
        return result

    def execute_batch(
        self,
        statements: Sequence[Union[Statement, str]],
        tx: Optional[Transaction] = None,
    ) -> list[Any]:
        """An autocommit batch of reads is one copy's to answer
        (:meth:`_read_with_failover`), references and all; anything else
        runs in statement order, on the primary where :meth:`execute`
        sends it."""
        batch = Batch.of(statements)
        if tx is None and batch and all(
                isinstance(statement, Select) for statement in batch):
            return self._read_with_failover(batch)
        return batch.run(lambda statement: self.execute(statement, tx=tx))

    def checkpoint(self) -> None:
        self.primary.checkpoint()
        for replica in self.replicas:
            if not replica.crashed:
                replica.db.checkpoint()

    def close(self) -> None:
        self.primary.close()
        for replica in self.replicas:
            if not replica.crashed:
                replica.db.close()

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "replica_group",
            "name": self.name,
            "stats": self.stats.snapshot(),
            "shard": None,
            "replication": self.repl_report(),
        }

    def repl_report(self) -> dict[str, Any]:
        """Replication topology and health: the ``replication`` section
        of :meth:`describe`."""
        head = self.log.head_lsn
        return {
            "primary": self.primary.name,
            "replicas": [
                {
                    "name": replica.name,
                    "state": replica.state.value,
                    "acked_lsn": replica.acked_lsn,
                    "lag": replica.lag(head),
                    "reads": replica.reads,
                    "ship_failures": replica.ship_failures,
                    "breaker": self._breaker_for(replica.name).state.value,
                    "last_repair": replica.last_repair,
                }
                for replica in self.replicas
            ],
            "head_lsn": head,
            "base_lsn": self.log.base_lsn,
            "max_lag": self.max_lag,
            "auto_ship": self.auto_ship,
            "reads_by_copy": dict(self.reads_by_copy),
            "failovers": self.failovers,
            "rejoins": self.rejoins,
            "full_clones": self.full_clones,
            "repairs": self.repairs,
        }
