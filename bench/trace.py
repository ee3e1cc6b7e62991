"""Outside-in tracing for the benchmark: spans recorded from here, not
from inside the program.

The traced run wraps the public callables of every layer (class or
module attributes, patched before the deployment is built; nothing under
``src/`` is edited) with a timing wrapper.  A span carries name, start,
end, the span that caused it and a per-request id.  Spans stay in
memory; :meth:`Tracer.write` dumps them when the run ends.

Self time of a span is its duration minus the part of that interval its
child spans cover, so the self times of one request add up to the
duration of its root span.  Each thread keeps its own span stack; on the
worker pool a request's root span (``web.handle``) is opened by the
dispatch wrapper on the worker, with its start moved back to the
admission time so that the queue wait is a child of it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Optional

#: Raw spans kept for the trace file and the per-request checks; the
#: per-name aggregates always cover the whole traced window.
MAX_RAW_SPANS = 60_000

#: span name -> [(module, dotted attribute), ...].  A dotted attribute of
#: the form ``Class.*`` wraps every public method defined on the class.
PATCH_TABLE: dict[str, list[tuple[str, str]]] = {
    "web.handle": [("repro.web.server", "WebServer.handle")],
    "web.servlet": [("repro.web.http", "Router.dispatch")],
    "web.template": [("repro.web.templates", "TemplateRegistry.render")],
    "dm.session": [("repro.dm.sessions", "SessionCache.by_cookie")],
    "dm.fetch_page": [("repro.dm.dm", "DataManager.fetch_page")],
    "dm.semantic": [("repro.dm.semantic", "SemanticLayer.*")],
    "dm.naming": [
        ("repro.dm.naming", "NameMapper.resolve_files"),
        ("repro.dm.naming", "NameMapper.resolve_from_rows"),
        ("repro.dm.naming", "NameMapper.register_tuple"),
        ("repro.dm.naming", "NameMapper.register_file"),
    ],
    "dm.io": [
        ("repro.dm.io_layer", "IoLayer.execute"),
        ("repro.dm.io_layer", "IoLayer.execute_batch"),
        ("repro.dm.io_layer", "IoLayer.begin"),
        ("repro.dm.io_layer", "IoLayer.commit"),
        ("repro.dm.io_layer", "IoLayer.rollback"),
    ],
    "metadb.sql": [
        ("repro.dm.io_layer", "parse_sql"),
        ("repro.dm.io_layer", "to_sql"),
        ("repro.metadb", "parse"),
    ],
    "shard.route": [
        ("repro.shard.sharded", "ShardedDatabase.execute"),
        ("repro.shard.sharded", "ShardedDatabase.begin"),
        ("repro.shard.sharded", "ShardedDatabase.commit"),
        ("repro.shard.sharded", "ShardedDatabase.rollback"),
    ],
    "repl.route": [
        ("repro.repl.group", "ReplicaGroup.execute"),
        ("repro.repl.group", "ReplicaGroup.begin"),
        ("repro.repl.group", "ReplicaGroup.commit"),
        ("repro.repl.group", "ReplicaGroup.rollback"),
    ],
    "repl.ship": [
        ("repro.repl.group", "ReplicaGroup.ship"),
        ("repro.repl.group", "ReplicaGroup._on_primary_commit"),
    ],
    "metadb.execute": [
        ("repro.metadb.database", "Database.execute"),
        ("repro.metadb.database", "Database.execute_batch"),
        ("repro.metadb.database", "Database.begin"),
        ("repro.metadb.database", "Database.commit"),
        ("repro.metadb.database", "Database.rollback"),
    ],
    "metadb.plan": [("repro.metadb.database", "plan_select")],
    "metadb.select": [("repro.metadb.database", "execute_select")],
    "metadb.wal": [("repro.metadb.wal", "Journal.append_transaction")],
    "pl.frontend": [("repro.pl.frontend", "Frontend.run")],
    "pl.idl": [("repro.pl.manager", "IdlServerManager.invoke")],
    "analysis.kernel": [
        ("repro.idl.ssw", "back_projection"),
        ("repro.idl.ssw", "lightcurve"),
        ("repro.idl.ssw", "histogram"),
        ("repro.idl.ssw", "spectrogram"),
    ],
    "filestore.io": [
        ("repro.filestore.hsm", "StorageManager.place"),
        ("repro.filestore.hsm", "StorageManager.retrieve"),
        ("repro.dm.io_layer", "IoLayer.store_payload"),
        ("repro.dm.io_layer", "IoLayer.read_item"),
    ],
    "fits.read": [("repro.dm.process", "read_fits")],
    "dm.process": [
        ("repro.dm.process", "ProcessLayer.load_raw_unit"),
        ("repro.dm.process", "ProcessLayer.load_photons"),
    ],
}

#: Spans the benchmark records by hand: the queue wait (through the
#: scheduler plug point) and the wire round trip (in its own proxy).
MANUAL_SPANS = ("web.queue_wait", "wire.rtt")

SPAN_NAMES = tuple(PATCH_TABLE) + MANUAL_SPANS


class Tracer:
    """Thread-aware span recorder with per-name self-time aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        #: (span_id, parent_id, request_id, name, start, end, self_s)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._totals: list[dict[str, list]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = {}
            with self._lock:
                self._totals.append(local.totals)
            return local.stack, local.totals

    def begin(self, name: str, start: Optional[float] = None) -> list:
        stack, _totals = self._state()
        if not stack:
            self._local.request = next(self._ids)
        frame = [next(self._ids), name,
                 perf_counter() if start is None else start, 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = perf_counter()
        stack, totals = self._state()
        stack.pop()
        span_id, name, start, child_s = frame
        duration = end - start
        self_s = duration - child_s
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = 0
        total = totals.get(name)
        if total is None:
            totals[name] = [1, self_s]
        else:
            total[0] += 1
            total[1] += self_s
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append((span_id, parent_id, self._local.request, name,
                               start, end, self_s))

    def record(self, name: str, start: float, end: float) -> None:
        """A finished child interval of the current span (queue wait)."""
        stack, totals = self._state()
        parent = stack[-1]
        duration = end - start
        parent[3] += duration
        total = totals.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += duration
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append((next(self._ids), parent[0], self._local.request,
                               name, start, end, duration))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as a span called ``name`` while the tracer is
        enabled.  :meth:`begin` and :meth:`end` are inlined here: this runs
        a hundred times per page."""
        tracer = self
        local = self._local
        ids = self._ids
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
                totals = local.totals
            except AttributeError:
                stack, totals = state()
            if not stack:
                local.request = next(ids)
            frame = [next(ids), name, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[3]
                if stack:
                    parent = stack[-1]
                    parent[3] += duration
                    parent_id = parent[0]
                else:
                    parent_id = 0
                total = totals.get(name)
                if total is None:
                    totals[name] = [1, self_s]
                else:
                    total[0] += 1
                    total[1] += self_s
                spans = tracer.spans
                if len(spans) < MAX_RAW_SPANS:
                    spans.append((frame[0], parent_id, local.request, name,
                                  start, end, self_s))

        return traced

    def wrap_dispatch(self, dispatch: Callable) -> Callable:
        """Wrap a scheduler's dispatch callable: the request's root span
        starts at admission and its first child is the queue wait."""
        tracer = self

        def traced_dispatch(task):
            if not tracer.enabled:
                return dispatch(task)
            frame = tracer.begin("web.handle", start=task.created_at)
            tracer.record("web.queue_wait", task.created_at, perf_counter())
            try:
                return dispatch(task)
            finally:
                tracer.end(frame)

        return traced_dispatch

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every callable of :data:`PATCH_TABLE`."""
        for name, targets in PATCH_TABLE.items():
            for module_name, dotted in targets:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if attr == "*":
                    attrs = [key for key, value in vars(owner).items()
                             if callable(value) and not key.startswith("_")]
                else:
                    attrs = [attr]
                for key in attrs:
                    original = getattr(owner, key)
                    setattr(owner, key, self.wrap(name, original))
                    self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over every thread."""
        merged: dict[str, list] = {}
        for totals in self._totals:
            for name, (calls, self_s) in list(totals.items()):
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return {name: (calls, self_s) for name, (calls, self_s) in merged.items()}

    def waterfall(self, operations: int) -> dict[str, dict[str, float]]:
        """Per span name: self milliseconds and calls per operation."""
        operations = max(1, operations)
        return {
            name: {"self_ms": 1000.0 * self_s / operations,
                   "calls": calls / operations}
            for name, (calls, self_s) in sorted(self.totals().items())
        }

    def by_request(self) -> dict[int, list[tuple]]:
        grouped: dict[int, list[tuple]] = {}
        for span in self.spans:
            grouped.setdefault(span[2], []).append(span)
        return grouped

    def self_time_excess(self) -> float:
        """Largest amount (seconds) by which the self times of one request
        exceed its root span's duration, over the retained requests whose
        root was retained too.  At most rounding error when the spans nest
        properly."""
        worst = 0.0
        for spans in self.by_request().values():
            roots = [span for span in spans if span[1] == 0]
            if len(roots) != 1:
                continue
            root = roots[0]
            total_self = sum(span[6] for span in spans)
            worst = max(worst, total_self - (root[5] - root[4]))
        return worst

    def write(self, path) -> int:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, request_id, name, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent_id,
                    "request": request_id, "name": name,
                    "start_s": start, "end_s": end,
                    "self_ms": self_s * 1000.0,
                }) + "\n")
        return len(self.spans)
