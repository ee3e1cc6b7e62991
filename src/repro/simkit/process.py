"""Generator-based processes for the simulation kernel.

A process is a Python generator that yields *waitables*:

* a ``float`` — hold for that many time units;
* a :class:`Future` — resume when the future resolves;
* a :class:`Process` — resume when that process finishes.

The scheduler drives the generator, resuming it with the value carried by
the waitable (``Future.value``), mirroring the structure of SimPy-style
process interaction without any external dependency.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import Simulator, SimulationError

Waitable = Any
ProcessGenerator = Generator[Waitable, Any, Any]


class Interrupted(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Future:
    """A one-shot value container that processes can wait on."""

    __slots__ = ("_sim", "_done", "_value", "_callbacks")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._callbacks: list = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future, waking all waiters at the current time."""
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)


class Process:
    """Drives a generator as a simulation process.

    The process's :attr:`result` future resolves with the generator's
    return value when it finishes.
    """

    def __init__(self, sim: Simulator, generator: ProcessGenerator, name: str = ""):
        self._sim = sim
        self._generator = generator
        self.name = name or repr(generator)
        self.result = Future(sim)
        self._waiting_on: Optional[object] = None
        self._interrupt_cause: Optional[Interrupted] = None
        sim.schedule(0.0, lambda: self._resume(None))

    @property
    def alive(self) -> bool:
        return not self.result.done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if not self.alive:
            return
        self._interrupt_cause = Interrupted(cause)
        self._sim.schedule(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if not self.alive or self._interrupt_cause is None:
            return
        cause, self._interrupt_cause = self._interrupt_cause, None
        waiting, self._waiting_on = self._waiting_on, None
        if isinstance(waiting, object) and hasattr(waiting, "cancel"):
            waiting.cancel()
        try:
            item = self._generator.throw(cause)
        except StopIteration as stop:
            self.result.resolve(stop.value)
            return
        self._wait_on(item)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            item = self._generator.send(value)
        except StopIteration as stop:
            self.result.resolve(stop.value)
            return
        self._wait_on(item)

    def _wait_on(self, item: Waitable) -> None:
        if isinstance(item, (int, float)):
            self._waiting_on = self._sim.schedule(float(item), lambda: self._resume(None))
        elif isinstance(item, Future):
            item.add_callback(lambda future: self._resume(future.value))
        elif isinstance(item, Process):
            item.result.add_callback(lambda future: self._resume(future.value))
        else:
            raise SimulationError(f"process yielded unsupported waitable: {item!r}")


def spawn(sim: Simulator, generator: ProcessGenerator, name: str = "") -> Process:
    """Start a generator as a process on ``sim``."""
    return Process(sim, generator, name)
