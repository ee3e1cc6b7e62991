"""Sampling profiler and trace-tree time analysis.

Two complementary views of *where time goes*:

* :class:`SamplingProfiler` — a wall-clock sampling profiler over
  ``sys._current_frames()``: a daemon thread wakes at a configurable
  rate, records every other thread's Python stack, and aggregates into
  the collapsed-stack format flamegraph tools consume
  (``frame;frame;frame count`` per line).  Default off; when off it owns
  no thread and costs nothing.
* :func:`span_self_times` / :func:`critical_path` — per-span *self* time
  (duration minus children) and the longest root-to-leaf chain computed
  from the trace trees :class:`~repro.obs.trace.Tracer` already keeps,
  which is the per-request analogue of a flamegraph.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Any, Optional

from .trace import Span


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{Path(code.co_filename).name}:{code.co_name}"


class SamplingProfiler:
    """Aggregating ``sys._current_frames()`` sampler (default off)."""

    #: Bounds on what one run retains: distinct stacks, frames a stack.
    max_stacks = 10_000
    max_depth = 128

    def __init__(self, hz: float = 97.0):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = hz
        self.samples = 0
        self._stacks: Counter[tuple[str, ...]] = Counter()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, hz: Optional[float] = None) -> "SamplingProfiler":
        """Begin sampling; a second start while running is a no-op."""
        if self.running:
            return self
        if hz is not None:
            if hz <= 0:
                raise ValueError("sampling rate must be positive")
            self.hz = hz
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        """Stop sampling; returns the total samples collected."""
        thread = self._thread
        if thread is None:
            return self.samples
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        return self.samples

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self.samples = 0

    # -- sampling --------------------------------------------------------------

    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        own_id = threading.get_ident()
        while not self._stop.wait(interval):
            self._take_sample(own_id)

    def _take_sample(self, own_id: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            self.samples += 1
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                stack: list[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                key = tuple(stack)
                if key in self._stacks or len(self._stacks) < self.max_stacks:
                    self._stacks[key] += 1

    # -- reading ---------------------------------------------------------------

    def collapsed(self, limit: Optional[int] = None) -> str:
        """Collapsed-stack flamegraph text: ``a;b;c <count>`` per line,
        heaviest stacks first."""
        with self._lock:
            items = self._stacks.most_common(limit)
        lines = [f"{';'.join(stack)} {count}" for stack, count in items]
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self, limit: int = 25) -> dict[str, Any]:
        with self._lock:
            n_stacks = len(self._stacks)
            top = self._stacks.most_common(limit)
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.samples,
            "distinct_stacks": n_stacks,
            "top_stacks": [
                {"stack": list(stack), "count": count} for stack, count in top
            ],
        }


# -- trace-tree time analysis ----------------------------------------------------


def span_self_times(root: Span) -> list[dict[str, Any]]:
    """Per-span self time (duration minus direct children) over a tree,
    heaviest self time first — "which tier actually burned the time"."""
    rows: list[dict[str, Any]] = []
    for span in root.walk():
        duration = span.duration_s or 0.0
        children = sum(child.duration_s or 0.0 for child in span.children)
        rows.append({
            "name": span.name,
            "span_id": span.span_id,
            "trace_id": span.trace_id,
            "duration_s": duration,
            "self_s": max(0.0, duration - children),
        })
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows


def critical_path(root: Span) -> list[Span]:
    """The root-to-leaf chain following the longest child at each level —
    the spans that bound the request's wall-clock time."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.duration_s or 0.0)
        path.append(node)
    return path


def trace_profile(root: Span) -> dict[str, Any]:
    """Self times plus the critical path for one trace tree, JSON-ready."""
    return {
        "trace_id": root.trace_id,
        "root": root.name,
        "duration_s": root.duration_s,
        "self_times": span_self_times(root),
        "critical_path": [
            {"name": span.name, "span_id": span.span_id,
             "duration_s": span.duration_s}
            for span in critical_path(root)
        ],
    }
