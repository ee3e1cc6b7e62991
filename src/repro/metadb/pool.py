"""Connections and connection pools.

The paper (§5.3) identifies connection creation as one of the two most
expensive parts of request processing and splits the DM's pool three ways:
query processing, updates, and user authentication.  We model a connection
as a handle with an explicit (configurable) open cost so the pooling
ablation benchmark can show what pooling buys.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional, Union

from ..obs import Observability, resolve as resolve_obs
from ..resil.faults import fire as fire_fault
from .database import Database
from .errors import ClosedError, LockTimeout
from .sql import Statement


class Connection:
    """A client handle onto a :class:`Database`.

    ``open_cost_s`` simulates the expense of establishing a real DBMS
    session (network round trips, authentication); it is paid once in the
    constructor, which is precisely what pooling amortises.
    """

    def __init__(self, database: Database, open_cost_s: float = 0.0):
        if open_cost_s > 0:
            time.sleep(open_cost_s)
        self._database = database
        self._closed = False
        self.statements_executed = 0

    def execute(self, statement: Union[Statement, str], tx=None) -> Any:
        if self._closed:
            raise ClosedError("connection is closed")
        self.statements_executed += 1
        return self._database.execute(statement, tx=tx)

    def begin(self):
        if self._closed:
            raise ClosedError("connection is closed")
        return self._database.begin()

    def commit(self, tx) -> None:
        self._database.commit(tx)

    def rollback(self, tx) -> None:
        self._database.rollback(tx)

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class ConnectionPool:
    """A bounded pool of reusable connections.

    Connections are created lazily up to ``size``; ``acquire`` blocks (with
    timeout) when all are checked out.  Per the paper, "connections are
    immediately released by sessions after the result set has been copied"
    — callers should use the pool as a context manager per statement batch.
    """

    def __init__(
        self,
        database: Database,
        size: int = 8,
        open_cost_s: float = 0.0,
        name: str = "pool",
        obs: Optional[Observability] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._database = database
        self.size = size
        self.name = name
        self.obs = resolve_obs(obs)
        self._open_cost_s = open_cost_s
        self._idle: deque[Connection] = deque()
        self._created = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False
        self.acquisitions = 0
        self.waits = 0
        # Metric handles resolved once: acquire() is on every query path.
        self._acquire_wait = self.obs.histogram(
            "metadb.pool.acquire_wait_s", pool=self.name
        )
        self._wait_counter = self.obs.counter("metadb.pool.waits", pool=self.name)
        self._opened_counter = self.obs.counter("metadb.pool.opened", pool=self.name)

    def acquire(self, timeout: Optional[float] = None) -> Connection:
        with self.obs.span("pool.acquire", pool=self.name):
            started = time.perf_counter()
            connection = self._acquire(timeout)
            self._acquire_wait.observe(time.perf_counter() - started)
            return connection

    def _acquire(self, timeout: Optional[float]) -> Connection:
        # Injected stalls/errors happen before the condition variable is
        # taken, so a chaos-stalled acquire never blocks other callers.
        fire_fault("metadb.pool.acquire")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            while True:
                if self._closed:
                    raise ClosedError(f"pool {self.name!r} is closed")
                if self._idle:
                    self.acquisitions += 1
                    return self._idle.popleft()
                if self._created < self.size:
                    self._created += 1
                    break
                self.waits += 1
                self._wait_counter.inc()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise LockTimeout(f"pool {self.name!r} exhausted")
                if not self._available.wait(remaining):
                    raise LockTimeout(f"pool {self.name!r} exhausted")
        # Create outside the lock: opening can be slow.
        connection = Connection(self._database, open_cost_s=self._open_cost_s)
        self._opened_counter.inc()
        with self._available:
            self.acquisitions += 1
        return connection

    def release(self, connection: Connection) -> None:
        with self._available:
            if self._closed or connection.closed:
                self._created -= 1
            else:
                self._idle.append(connection)
            self._available.notify()

    def close(self) -> None:
        with self._available:
            self._closed = True
            while self._idle:
                self._idle.popleft().close()
            self._available.notify_all()

    def __enter__(self) -> Connection:
        self._entered = self.acquire()
        return self._entered

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release(self._entered)
        del self._entered

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

