"""Request time budgets that flow web → DM → metadb/PL.

A :class:`Deadline` is a contextvars-propagated budget: the web tier (or
any entry point) opens one for the whole interaction, and every layer
below can ask "is there time left?" without plumbing a parameter through
the stack.  A request that has already blown its budget fails fast with
:class:`DeadlineExceeded` instead of queueing deeper into the system, and
the PL uses the remaining fraction to fall back to cheaper approximation
levels (§6.3) before failing at all.

Because propagation rides on ``contextvars``, the existing
``contextvars.copy_context()`` hand-offs (async IDL invocations, frontend
worker threads) carry deadlines across threads for free.
"""

from __future__ import annotations

import contextvars
import time
from typing import Optional

_CURRENT: contextvars.ContextVar[Optional["Deadline"]] = contextvars.ContextVar(
    "repro.resil.deadline", default=None
)


class DeadlineExceeded(Exception):
    """The request's time budget is spent."""


class Deadline:
    """A monotonic time budget, installable as the ambient deadline."""

    __slots__ = ("budget_s", "_clock", "_expires_at", "_token")

    def __init__(self, budget_s: float, clock=time.monotonic):
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = budget_s
        self._clock = clock
        self._expires_at = clock() + budget_s
        self._token: Optional[contextvars.Token] = None

    # -- queries -------------------------------------------------------------

    def remaining(self) -> float:
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def fraction_remaining(self) -> float:
        return max(0.0, self.remaining() / self.budget_s)

    def check(self, what: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0:
            suffix = f" in {what}" if what else ""
            raise DeadlineExceeded(
                f"budget of {self.budget_s:.3f}s overrun by "
                f"{-remaining:.3f}s{suffix}"
            )

    # -- context installation --------------------------------------------------

    def __enter__(self) -> "Deadline":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None

    # -- ambient access --------------------------------------------------------

    @staticmethod
    def current() -> Optional["Deadline"]:
        return _CURRENT.get()

    @staticmethod
    def check_current(what: str = "") -> None:
        """Fail fast if the ambient deadline (if any) is blown."""
        deadline = _CURRENT.get()
        if deadline is not None:
            deadline.check(what)
