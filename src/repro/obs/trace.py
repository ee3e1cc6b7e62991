"""Nested spans with context propagation.

One web request yields one span tree — ``web.handle → dm.query →
metadb.execute`` (and ``pl.run → idl.invoke`` when an analysis is
submitted) — which is exactly the per-request, per-tier breakdown the
paper's evaluation tables are built from.  The current span travels in a
:mod:`contextvars` variable, so nesting is automatic within a thread and
crosses threads whenever the work is run under a copied context
(``contextvars.copy_context().run(...)``, which the PL's asynchronous
paths do) or under :meth:`Tracer.attach`.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class Span:
    """One timed operation, possibly with children."""

    __slots__ = (
        "name", "tags", "span_id", "trace_id", "parent_id", "started_at",
        "ended_at", "duration_s", "status", "error", "children", "thread_name",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        tags: Optional[dict[str, Any]] = None,
        parent: Optional["Span"] = None,
    ):
        self.name = name
        self.tags: dict[str, Any] = dict(tags or {})
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = parent.trace_id if parent is not None else span_id
        self.started_at = time.perf_counter()
        self.ended_at: Optional[float] = None
        self.duration_s: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.children: list[Span] = []
        self.thread_name = threading.current_thread().name

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def finish(self, error: Optional[BaseException] = None) -> None:
        self.ended_at = time.perf_counter()
        self.duration_s = self.ended_at - self.started_at
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def tree_names(self) -> list[str]:
        return [span.name for span in self.walk()]

    def find(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "tags": dict(self.tags),
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "thread": self.thread_name,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class _NullSpan:
    """The span handed out when tracing is disabled: absorbs everything."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Produces spans and keeps the most recent finished root trees."""

    def __init__(self, max_finished: int = 256, name: str = "tracer"):
        self.name = name
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            f"obs-span-{name}", default=None
        )
        self._finished: deque[Span] = deque(maxlen=max_finished)
        self._lock = threading.Lock()

    # -- span lifecycle --------------------------------------------------------

    def current(self) -> Optional[Span]:
        return self._current.get()

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        parent = self._current.get()
        span = Span(name, next(self._ids), tags=tags, parent=parent)
        token = self._current.set(span)
        try:
            yield span
        except BaseException as exc:
            span.finish(error=exc)
            raise
        else:
            span.finish()
        finally:
            self._current.reset(token)
            if parent is not None:
                parent.children.append(span)
            else:
                with self._lock:
                    self._finished.append(span)

    @contextmanager
    def attach(self, span: Optional[Span]) -> Iterator[Optional[Span]]:
        """Adopt ``span`` as the current parent — manual cross-thread
        propagation when copying the whole context is not convenient."""
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)

    def wrap(self, fn, *args, **kwargs):
        """Bind ``fn(*args, **kwargs)`` to the *calling* thread's context
        so spans opened inside a worker thread nest under the caller."""
        ctx = contextvars.copy_context()

        def runner():
            return ctx.run(fn, *args, **kwargs)

        return runner

    # -- reading ---------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Finished root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        """Every finished span (at any depth) with this name."""
        found: list[Span] = []
        for root in self.finished_spans():
            found.extend(root.find(name))
        return found

    def snapshot(self, limit: int = 32) -> list[dict[str, Any]]:
        """JSON-ready trees of the most recent finished root spans."""
        return [span.to_dict() for span in self.finished_spans()[-limit:]]

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
