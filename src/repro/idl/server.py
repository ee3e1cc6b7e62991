"""IDL server lifecycle — what the PL's server manager manages.

The paper's IDL servers "provide only rudimentary job control, data
management, and error recovery functionality" (§2.3); the PL compensates
with start/stop/restart, sync/async invocation, timeouts and
resource-drain handling (§5.1).  This module provides exactly that raw
material: a server wrapping one interpreter session, with explicit
lifecycle states and failure modes the manager must cope with.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..obs import Observability, resolve as resolve_obs
from ..resil.faults import fire as fire_fault
from ..rhessi.photons import PhotonList
from .interpreter import IdlResourceError, IdlRuntimeError, Interpreter
from .ssw import SswLibrary


class ServerState(enum.Enum):
    STOPPED = "stopped"
    READY = "ready"
    BUSY = "busy"
    CRASHED = "crashed"


class IdlServerError(Exception):
    """Invocation against a server in the wrong state."""


@dataclass
class InvocationResult:
    """Outcome of one invocation."""

    ok: bool
    value: Any = None
    error: Optional[str] = None
    steps: int = 0
    printed: list[str] = field(default_factory=list)


class IdlServer:
    """One interpreter session with lifecycle management.

    ``fault_hook`` (tests, fault-injection benches) is called before each
    invocation; raising from it simulates an interpreter crash.
    """

    def __init__(
        self,
        name: str = "idl0",
        step_budget: int = 5_000_000,
        fault_hook: Optional[Callable[[], None]] = None,
        on_start: Optional[Callable[[Interpreter], None]] = None,
        obs: Optional[Observability] = None,
    ):
        self.name = name
        self.step_budget = step_budget
        self.fault_hook = fault_hook
        self.obs = resolve_obs(obs)
        #: Called with the fresh interpreter on every (re)start — the PL
        #: uses it to load published user routines into the session.
        self.on_start = on_start
        self.state = ServerState.STOPPED
        self._interpreter: Optional[Interpreter] = None
        self._ssw: Optional[SswLibrary] = None
        self._lock = threading.Lock()
        self.invocations = 0
        self.failures = 0
        self.restarts = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self.state in (ServerState.READY, ServerState.BUSY):
                return
            self._interpreter = Interpreter(step_budget=self.step_budget)
            self._ssw = SswLibrary(self._interpreter)
            if self.on_start is not None:
                self.on_start(self._interpreter)
            self.state = ServerState.READY

    def stop(self) -> None:
        with self._lock:
            self._interpreter = None
            self._ssw = None
            self.state = ServerState.STOPPED

    def restart(self) -> None:
        self.stop()
        self.start()
        self.restarts += 1
        self.obs.count("idl.restarts", server=self.name)
        self.obs.event("info", "idl", "server.restarted",
                       f"IDL server {self.name!r} restarted",
                       server=self.name, restarts=self.restarts)

    @property
    def available(self) -> bool:
        return self.state is ServerState.READY

    def defines_function(self, name: str) -> Optional[bool]:
        """Whether the session can call ``name`` as a function (its own
        definitions, loaded routines, builtins); ``None`` when there is
        no session to ask."""
        interpreter = self._interpreter
        if interpreter is None:
            return None
        definition = interpreter.procedures.get(name.lower())
        if definition is not None:
            return definition.is_function
        return name.lower() in interpreter.builtins

    # -- data binding -----------------------------------------------------------

    def bind_photons(self, photons: PhotonList) -> None:
        if self.state is not ServerState.READY:
            raise IdlServerError(f"server {self.name} is {self.state.value}")
        self._ssw.bind_photons(photons)

    # -- invocation ---------------------------------------------------------------

    def invoke(self, source: str, timeout_s: Optional[float] = None) -> InvocationResult:
        """Run IDL source synchronously.

        A resource-drain (step/deadline) failure marks the server CRASHED;
        an ordinary runtime error leaves it READY.
        """
        started = time.perf_counter()
        with self.obs.span("idl.invoke", server=self.name) as span:
            result = self._invoke(source, timeout_s)
            span.set_tag("ok", result.ok)
        self.obs.observe("idl.invoke_s", time.perf_counter() - started,
                         server=self.name)
        self.obs.count("idl.invocations", server=self.name)
        if not result.ok:
            self.obs.count("idl.failures", server=self.name)
        return result

    def _invoke(self, source: str, timeout_s: Optional[float]) -> InvocationResult:
        with self._lock:
            if self.state is not ServerState.READY:
                raise IdlServerError(f"server {self.name} is {self.state.value}")
            self.state = ServerState.BUSY
        interpreter = self._interpreter
        interpreter.deadline_s = timeout_s
        interpreter.printed = []
        self.invocations += 1
        try:
            if self.fault_hook is not None:
                self.fault_hook()
            # idl.crash kills the session (generic except below -> CRASHED);
            # idl.hang is typically armed stall-only (error=None, delay_s).
            fire_fault("idl.crash")
            fire_fault("idl.hang")
            value = interpreter.run(source)
        except IdlResourceError as exc:
            self.failures += 1
            with self._lock:
                self.state = ServerState.CRASHED
            self.obs.event("error", "idl", "server.crashed",
                           f"IDL server {self.name!r} crashed: resource drain",
                           server=self.name, reason="resource_drain",
                           error=str(exc))
            return InvocationResult(
                ok=False, error=f"resource drain: {exc}", steps=interpreter.steps_used
            )
        except IdlRuntimeError as exc:
            self.failures += 1
            with self._lock:
                self.state = ServerState.READY
            return InvocationResult(
                ok=False,
                error=str(exc),
                steps=interpreter.steps_used,
                printed=list(interpreter.printed),
            )
        except Exception as exc:  # interpreter process "crash"
            self.failures += 1
            with self._lock:
                self.state = ServerState.CRASHED
            self.obs.event("error", "idl", "server.crashed",
                           f"IDL server {self.name!r} crashed: {exc}",
                           server=self.name, reason="crash", error=str(exc))
            return InvocationResult(ok=False, error=f"crashed: {exc}")
        with self._lock:
            self.state = ServerState.READY
        return InvocationResult(
            ok=True,
            value=value,
            steps=interpreter.steps_used,
            printed=list(interpreter.printed),
        )
