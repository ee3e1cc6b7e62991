"""DM call redirection (paper §5.4).

"The system has been designed to run either on a single node, or
distributed across a cluster ... there is the possibility of redirecting
calls from one DM component to another."  The router holds several DM
nodes; per-call it either executes locally, forwards to a peer (chosen
round-robin or by load), enqueues for asynchronous execution on a worker
pool, or honours a force-local overwrite.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional

DmCall = Callable[["object"], Any]  # receives the target DataManager


@dataclass
class NodeStats:
    calls: int = 0
    errors: int = 0
    in_flight: int = 0


class DmRouter:
    """Routes DM API calls across one or more DM nodes."""

    #: Threads serving the asynchronous call queue.
    ASYNC_WORKERS = 2

    def __init__(self):
        self._nodes: list = []
        self._stats: dict[int, NodeStats] = {}
        self._round_robin = 0
        self._lock = threading.Lock()
        self._queue: "queue.Queue[tuple[DmCall, Future]]" = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._shutdown = False
        for worker_index in range(self.ASYNC_WORKERS):
            thread = threading.Thread(
                target=self._worker_loop, name=f"dm-worker-{worker_index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)

    # -- topology ------------------------------------------------------------

    def add_node(self, dm) -> int:
        """Register a DM node; returns its node index."""
        with self._lock:
            self._nodes.append(dm)
            index = len(self._nodes) - 1
            self._stats[index] = NodeStats()
            return index

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node(self, index: int):
        return self._nodes[index]

    def stats(self, index: int) -> NodeStats:
        return self._stats[index]

    # -- routing ---------------------------------------------------------------

    def _pick_node(self) -> int:
        """Least-loaded, ties broken round-robin."""
        with self._lock:
            minimum = min(self._stats[index].in_flight for index in range(len(self._nodes)))
            candidates = [
                index
                for index in range(len(self._nodes))
                if self._stats[index].in_flight == minimum
            ]
            self._round_robin = (self._round_robin + 1) % len(candidates)
            return candidates[self._round_robin]

    def call(self, fn: DmCall, force_local: bool = False, local_index: int = 0) -> Any:
        """Execute synchronously on a routed node.

        "The calling methods do not know where the code is actually
        executed, but can use overwrites to force local execution."
        """
        if not self._nodes:
            raise RuntimeError("router has no DM nodes")
        index = local_index if force_local else self._pick_node()
        stats = self._stats[index]
        with self._lock:
            stats.calls += 1
            stats.in_flight += 1
        try:
            return fn(self._nodes[index])
        except Exception:
            with self._lock:
                stats.errors += 1
            raise
        finally:
            with self._lock:
                stats.in_flight -= 1

    def submit(self, fn: DmCall) -> Future:
        """Enqueue for asynchronous execution on the worker pool."""
        future: Future = Future()
        self._queue.put((fn, future))
        return future

    def _worker_loop(self) -> None:
        while True:
            fn, future = self._queue.get()
            if self._shutdown:
                future.cancel()
                continue
            try:
                future.set_result(self.call(fn))
            except Exception as exc:
                future.set_exception(exc)
            finally:
                self._queue.task_done()

    def drain(self) -> None:
        """Wait for all queued asynchronous calls to finish."""
        self._queue.join()

    def close(self) -> None:
        self._shutdown = True
