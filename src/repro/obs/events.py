"""The diagnostic logs: one bounded, thread-safe log, two record kinds.

Metrics answer "how much / how fast"; traces answer "where did this
request go"; the logs answer "*what happened*":

* the **event log** (:class:`EventLog`) keeps the discrete control-plane
  transitions an operator greps for first when a deployment misbehaves:
  breaker trips, fault-injection firings, WAL recoveries, IDL
  interpreter crashes and restarts, cache-epoch bumps;
* the **slow log** (:class:`SlowLog`) keeps each operation that took
  longer than its subsystem's threshold, with the evidence a human needs
  to act: ``metadb.execute`` entries carry the statement, predicate and
  chosen plan, ``pl.run`` entries the algorithm and parameter
  fingerprint, ``dm.name_mapping`` entries the item id.

Both are a :class:`BoundedLog`: a ring buffer (``deque(maxlen)``) under
one lock plus a running total, so a flapping breaker can never exhaust
memory and an append is one lock and one ``append``.  Every record
carries the trace and span current when it was made, if tracing is on
(:meth:`Observability.event` / :meth:`Observability.slow_op`).

The slow log is default-off in the same sense as tracing: a subsystem
with no threshold pays one dict lookup (:meth:`SlowLog.threshold_for`
returns ``None``) and takes its normal path.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Optional

#: Ordered severities; filtering with ``min_severity`` uses this ranking.
SEVERITIES = ("debug", "info", "warn", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class BoundedLog:
    """The newest ``capacity`` records, oldest first, and how many were
    ever appended (``total``)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("log capacity must be >= 1")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total = 0

    def _append(self, record):
        with self._lock:
            self._records.append(record)
            self.total += 1
        return record

    def _matching(self, keep: Optional[Callable[[Any], bool]],
                  limit: Optional[int]) -> list:
        with self._lock:
            records = list(self._records)
        if keep is not None:
            records = [record for record in records if keep(record)]
        return records if limit is None else records[-limit:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(self, limit: Optional[int] = None) -> list[dict[str, Any]]:
        """JSON-ready dicts of the retained records (oldest first)."""
        return [record.to_dict() for record in self._matching(None, limit)]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


class _Record:
    """A log record: its slots, in order, are its JSON form (a dict slot
    copied)."""

    __slots__ = ()

    def to_dict(self) -> dict[str, Any]:
        record = {name: getattr(self, name) for name in self.__slots__}
        for name, value in record.items():
            if type(value) is dict:
                record[name] = dict(value)
        return record


class Event(_Record):
    """One structured occurrence: what, where, when, and correlation."""

    __slots__ = (
        "seq", "t_monotonic", "severity", "component", "kind", "message",
        "fields", "trace_id", "span_id",
    )

    def __init__(self, seq: int, severity: str, component: str, kind: str,
                 message: str, fields: dict[str, Any],
                 trace_id: Optional[int], span_id: Optional[int]):
        self.seq = seq
        self.t_monotonic = time.monotonic()
        self.severity = severity
        self.component = component
        self.kind = kind
        self.message = message
        self.fields = fields
        self.trace_id = trace_id
        self.span_id = span_id


class EventLog(BoundedLog):
    """The event log; ``enabled = False`` drops what is emitted."""

    def __init__(self, capacity: int = 512):
        super().__init__(capacity)
        self.enabled = True
        self._seq = itertools.count(1)

    def emit(self, severity: str, component: str, kind: str, message: str = "",
             trace_id: Optional[int] = None, span_id: Optional[int] = None,
             **fields: Any) -> Optional[Event]:
        """Append one event; returns it (or ``None`` when disabled)."""
        if not self.enabled:
            return None
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r} (use one of {SEVERITIES})")
        return self._append(Event(next(self._seq), severity, component, kind,
                                  message, fields, trace_id, span_id))

    def records(self, component: Optional[str] = None, kind: Optional[str] = None,
                min_severity: Optional[str] = None,
                limit: Optional[int] = None) -> list[Event]:
        """Retained events, oldest first, optionally filtered."""
        floor = 0 if min_severity is None else _SEVERITY_RANK[min_severity]
        return self._matching(
            lambda event: (component is None or event.component == component)
            and (kind is None or event.kind == kind)
            and _SEVERITY_RANK[event.severity] >= floor, limit)

    def find(self, kind: str) -> list[Event]:
        return self.records(kind=kind)

    def to_jsonl(self) -> str:
        """JSON-lines export — one event per line, grep/jq friendly."""
        lines = [json.dumps(record, default=repr) for record in self.snapshot()]
        return "\n".join(lines) + ("\n" if lines else "")


class SlowOp(_Record):
    """One captured slow operation."""

    __slots__ = ("name", "duration_s", "threshold_s", "t_monotonic",
                 "trace_id", "span_id", "detail")

    def __init__(self, name: str, duration_s: float, threshold_s: float,
                 trace_id: Optional[int], span_id: Optional[int],
                 detail: dict[str, Any]):
        self.name = name
        self.duration_s = duration_s
        self.threshold_s = threshold_s
        self.t_monotonic = time.monotonic()
        self.trace_id = trace_id
        self.span_id = span_id
        self.detail = detail


class SlowLog(BoundedLog):
    """The slow log and its thresholds, keyed by subsystem name
    (``metadb.execute``, ``dm.name_mapping``, ``pl.run``, ``pl.invoke``,
    ``web.handle``)."""

    def __init__(self, capacity: int = 128):
        super().__init__(capacity)
        self._thresholds: dict[str, float] = {}

    def configure(self, name: str, threshold_s: Optional[float]) -> None:
        """Set (or with ``None`` remove) the slow threshold for ``name``."""
        if threshold_s is None:
            self._thresholds.pop(name, None)
            return
        if threshold_s < 0:
            raise ValueError("threshold must be >= 0")
        self._thresholds[name] = threshold_s

    def threshold_for(self, name: str) -> Optional[float]:
        """The configured threshold, or ``None`` — the hot-path check."""
        return self._thresholds.get(name)

    def threshold_getter(self, name: str) -> Callable[[], Optional[float]]:
        """``threshold_for(name)`` bound once, for a check made on every
        request: one C-level call, current with every :meth:`configure`
        (the thresholds are changed in place, never replaced)."""
        return partial(self._thresholds.get, name)

    @property
    def active(self) -> bool:
        return bool(self._thresholds)

    def thresholds(self) -> dict[str, float]:
        return dict(self._thresholds)

    def record(self, name: str, duration_s: float, threshold_s: float,
               trace_id: Optional[int] = None, span_id: Optional[int] = None,
               **detail: Any) -> SlowOp:
        return self._append(SlowOp(name, duration_s, threshold_s,
                                   trace_id, span_id, detail))

    def records(self, name: Optional[str] = None,
                limit: Optional[int] = None) -> list[SlowOp]:
        """Retained slow ops, oldest first, optionally filtered by name."""
        return self._matching(
            None if name is None else lambda op: op.name == name, limit)
