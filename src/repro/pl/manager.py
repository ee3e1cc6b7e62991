"""The IDL server manager (paper §5.1).

"Multiple native IDL interpreters are managed (start, stop, restart).
It provides the possibility to invoke IDL routines synchronously and
asynchronously and implements error handling (timeout, resource drain).
Every processing client executes one instance of this service."
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional

from ..idl import IdlServer, InvocationResult, ServerState
from ..obs import Observability, resolve as resolve_obs
from ..resil import CircuitBreaker, RetryPolicy
from ..rhessi import PhotonList
from .directory import GlobalDirectory


class NoServerAvailable(Exception):
    """All managed IDL servers are busy or crashed."""


class _ServerCrashed(Exception):
    """Internal retry signal: the serving interpreter crashed mid-call."""

    def __init__(self, result: InvocationResult):
        super().__init__(result.error or "server crashed")
        self.result = result


class IdlServerManager:
    """Manages a pool of IDL servers on one processing node."""

    def __init__(
        self,
        node_name: str = "server",
        n_servers: int = 1,
        directory: Optional[GlobalDirectory] = None,
        fault_hook: Optional[Callable[[], None]] = None,
        routine_library=None,
        obs: Optional[Observability] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if n_servers < 1:
            raise ValueError("need at least one IDL server")
        self.node_name = node_name
        self.obs = resolve_obs(obs)
        #: Backoff/classification for crash-retried invocations; the
        #: per-call ``retries`` argument overrides ``max_attempts``.
        self.retry_policy = RetryPolicy(
            max_attempts=2,
            base_delay_s=0.0,
            jitter=0.0,
            name=f"pl.{node_name}",
            obs=self.obs,
        )
        #: Outcome-window breaker over the whole pool: a persistently
        #: failing IDL tier trips it open, letting callers (the frontend's
        #: stale-while-degraded path, the web tier's load shedding) fail
        #: over instead of queueing on a dead dependency.  Only *final*
        #: outcomes are recorded — crashes absorbed by the retry/restart
        #: machinery stay invisible, so transient chaos does not trip it.
        self.breaker = breaker or CircuitBreaker(
            f"pl.idl.{node_name}",
            window=20,
            min_calls=10,
            failure_rate=0.6,
            cooldown_s=2.0,
            obs=resolve_obs(obs),
        )
        self.routine_library = routine_library
        on_start = None
        if routine_library is not None:
            on_start = routine_library.load_into
        self._on_start = on_start
        self._servers = [
            IdlServer(
                name=f"{node_name}/idl{index}",
                fault_hook=fault_hook,
                on_start=on_start,
                obs=self.obs,
            )
            for index in range(n_servers)
        ]
        self._lock = threading.Lock()
        self.directory = directory
        if directory is not None:
            directory.register(
                f"idl_manager:{node_name}", "idl_manager", node_name, capacity=n_servers
            )
        self.recoveries = 0

    # -- lifecycle ------------------------------------------------------------

    def start_all(self) -> None:
        for server in self._servers:
            server.start()
        self._heartbeat()

    def stop_all(self) -> None:
        for server in self._servers:
            server.stop()
        if self.directory is not None:
            self.directory.deregister(f"idl_manager:{self.node_name}")

    def add_server(self) -> IdlServer:
        """Dynamically grow capacity without halting the system (§5.1)."""
        with self._lock:
            server = IdlServer(
                name=f"{self.node_name}/idl{len(self._servers)}",
                on_start=self._on_start,
                obs=self.obs,
            )
            server.start()
            self._servers.append(server)
            self._update_directory_capacity()
            return server

    def remove_server(self) -> None:
        with self._lock:
            if len(self._servers) <= 1:
                raise ValueError("cannot remove the last server")
            server = self._servers.pop()
            server.stop()
            self._update_directory_capacity()

    def _update_directory_capacity(self) -> None:
        if self.directory is not None:
            self.directory.register(
                f"idl_manager:{self.node_name}", "idl_manager", self.node_name,
                capacity=len(self._servers),
            )
        self.obs.set_gauge("pl.servers", len(self._servers), node=self.node_name)

    def _record_recovery(self) -> None:
        """One crash-recovery: count it and refresh the GlobalDirectory
        registration (capacity + heartbeat) so the entry never goes stale
        while the manager self-heals (§5.1)."""
        self.recoveries += 1
        self.obs.count("pl.recoveries", node=self.node_name)
        self._update_directory_capacity()
        if self.directory is not None:
            self.directory.heartbeat(f"idl_manager:{self.node_name}")

    def broadcast_source(self, source: str) -> int:
        """Run IDL source on every READY server — hot-loading a newly
        published routine without halting the system (§5.1)."""
        loaded = 0
        with self._lock:
            servers = list(self._servers)
        for server in servers:
            if server.available:
                result = server.invoke(source)
                if result.ok:
                    loaded += 1
        return loaded

    def defines_function(self, name: str) -> bool:
        """Whether a server's session can call ``name`` as a function.
        With no session running there is nothing to ask and the answer
        is yes: the invocation itself will report what it finds."""
        with self._lock:
            servers = list(self._servers)
        answers = [server.defines_function(name) for server in servers]
        return any(answers) or all(answer is None for answer in answers)

    def _heartbeat(self) -> None:
        if self.directory is not None:
            self.directory.heartbeat(f"idl_manager:{self.node_name}")

    @property
    def n_servers(self) -> int:
        return len(self._servers)

    @property
    def n_available(self) -> int:
        return sum(1 for server in self._servers if server.available)

    # -- acquisition ----------------------------------------------------------

    def _acquire(self) -> IdlServer:
        """A READY server; crashed servers are restarted on the way
        (self-recovering interactions, §5.1)."""
        with self._lock:
            for server in self._servers:
                if server.state is ServerState.CRASHED:
                    server.restart()
                    self._record_recovery()
            for server in self._servers:
                if server.available:
                    return server
        self.obs.count("pl.no_server_available", node=self.node_name)
        raise NoServerAvailable(f"no IDL server available on {self.node_name}")

    # -- invocation --------------------------------------------------------------

    def invoke(
        self,
        source: str,
        photons: Optional[PhotonList] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ) -> InvocationResult:
        """Run IDL source synchronously, restarting and retrying on crash.

        Raises :class:`~repro.resil.BreakerOpen` without touching a
        server while the pool breaker is open.
        """
        self.breaker.check()
        self._heartbeat()
        started = time.perf_counter()
        try:
            with self.obs.span("pl.invoke", node=self.node_name):
                result = self._invoke_with_retries(source, photons, timeout_s, retries)
        except Exception:
            # NoServerAvailable / exhausted restart budgets: the final
            # outcome is a failure.
            self.breaker.record_failure()
            raise
        elapsed = time.perf_counter() - started
        self.obs.observe("pl.invoke_s", elapsed, node=self.node_name)
        threshold = self.obs.slowlog.threshold_for("pl.invoke")
        if threshold is not None and elapsed >= threshold:
            head = " ".join(source.split())[:120]
            self.obs.slow_op("pl.invoke", elapsed, threshold,
                             node=self.node_name, ok=result.ok, source=head)
        if not result.ok and result.error and "resource drain" in result.error:
            self.obs.count("pl.resource_drains", node=self.node_name)
        if result.ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        return result

    def _invoke_with_retries(
        self,
        source: str,
        photons: Optional[PhotonList],
        timeout_s: Optional[float],
        retries: int,
    ) -> InvocationResult:
        """One invocation under :class:`RetryPolicy`.

        A crash restarts the server (bounded: at most ``2 * n_servers``
        restarts per invocation, so a persistently crashing routine cannot
        spin the pool forever) and retries up to ``retries`` more times.
        :class:`NoServerAvailable` is never retried — a drained pool is
        surfaced to the caller immediately.
        """
        restart_budget = max(2, 2 * len(self._servers))
        restarts = 0

        def attempt_once() -> InvocationResult:
            nonlocal restarts
            server = self._acquire()
            if photons is not None:
                server.bind_photons(photons)
            result = server.invoke(source, timeout_s=timeout_s)
            if result.ok or server.state is not ServerState.CRASHED:
                return result
            if restarts >= restart_budget:
                self.obs.count("pl.no_server_available", node=self.node_name)
                raise NoServerAvailable(
                    f"restart budget ({restart_budget}) exhausted on "
                    f"{self.node_name}: {result.error}"
                )
            server.restart()
            restarts += 1
            self._record_recovery()
            raise _ServerCrashed(result)

        policy = self.retry_policy.replace(
            max_attempts=max(1, retries + 1), retryable=(_ServerCrashed,)
        )
        try:
            return policy.call(attempt_once)
        except _ServerCrashed as exc:
            # Retries exhausted: the request failed, the system is healthy
            # again (the last restart already happened above).
            return exc.result

    def invoke_async(
        self,
        source: str,
        photons: Optional[PhotonList] = None,
        timeout_s: Optional[float] = None,
    ) -> "Future[InvocationResult]":
        """:meth:`invoke` on a thread of its own; returns a future.  The
        caller's context rides along, so the ``idl.invoke`` span nests
        under the span that asked for it."""
        future: Future = Future()
        ctx = contextvars.copy_context()

        def worker() -> None:
            try:
                future.set_result(
                    ctx.run(self.invoke, source, photons=photons, timeout_s=timeout_s)
                )
            except Exception as exc:
                future.set_exception(exc)

        threading.Thread(target=worker, daemon=True, name=f"{self.node_name}-invoke").start()
        return future

    def stats(self) -> dict:
        return {
            "node": self.node_name,
            "servers": len(self._servers),
            "available": self.n_available,
            "invocations": sum(server.invocations for server in self._servers),
            "failures": sum(server.failures for server in self._servers),
            "restarts": sum(server.restarts for server in self._servers),
            "recoveries": self.recoveries,
        }
