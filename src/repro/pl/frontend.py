"""The PL frontend (paper §5.1).

"Primary controller of sessions and requests, dispatch and scheduling of
requests to processing subsystems.  There is one instance of this
service."  The front end interprets abstract requests: it looks up the
request type's strategy, runs the four phases in order, honours priority
scheduling, bounds the number of in-flight requests (the paper's
processing tests keep "no more than 20 requests in the system at any
given time"), and supports cancellation with per-phase cleanup.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import threading
import time
from typing import Optional

from ..obs import Observability, resolve as resolve_obs
from ..resil import BreakerState, Deadline
from .animation import AnimationStrategy
from .directory import GlobalDirectory
from .manager import IdlServerManager
from .product_cache import ProductCache, fingerprint
from .requests import (
    AnalysisRequest,
    AnalysisStrategy,
    DEFAULT_STRATEGIES,
    Phase,
    RequestCancelled,
    RequestFailed,
    StrategyContext,
)


class UnknownRequestType(Exception):
    """No strategy registered for the request's algorithm."""


class Frontend:
    """Interpreter and scheduler of abstract analysis requests."""

    #: When less than this fraction of the ambient deadline budget is
    #: left at execute time, the request degrades to a cheaper
    #: approximation instead of blowing the budget mid-computation.
    degrade_fraction = 0.5

    #: The paper's processing tests keep "no more than 20 requests in the
    #: system at any given time".
    max_in_flight = 20

    def __init__(
        self,
        dm,
        idl_manager: IdlServerManager,
        directory: Optional[GlobalDirectory] = None,
        node_name: str = "server",
        n_workers: int = 0,
        obs: Optional[Observability] = None,
        cache_products: bool = True,
    ):
        self.dm = dm
        self.obs = obs if obs is not None else resolve_obs(getattr(dm, "obs", None))
        #: Derived-product memoization: repeat-identical requests are
        #: served in O(lookup) with zero IDL invocations (§3.5, §5.3).
        #: ``cache_products=False`` gives an uncached frontend (workload
        #: characterization runs that must exercise the full pipeline).
        self.product_cache: Optional[ProductCache] = (
            ProductCache(dm, obs=self.obs) if cache_products else None
        )
        self.context = StrategyContext(dm, idl_manager, node_name=node_name)
        self.directory = directory or GlobalDirectory()
        self.directory.register(f"frontend:{node_name}", "frontend", node_name)
        self.strategies: dict[str, AnalysisStrategy] = dict(DEFAULT_STRATEGIES)
        self.strategies[AnimationStrategy.algorithm] = AnimationStrategy()
        self._queue: list[
            tuple[int, int, AnalysisRequest, Optional[contextvars.Context]]
        ] = []
        self._ticket = itertools.count()
        self._queue_lock = threading.Lock()
        self._queue_ready = threading.Condition(self._queue_lock)
        self._in_flight = 0
        #: Finished requests by final phase, and the committed ones'
        #: sojourn total: what :meth:`stats` reports.  The requests
        #: themselves (raw result and product attached) go back to their
        #: callers and are not kept.
        self._finished = {Phase.COMMITTED: 0, Phase.FAILED: 0, Phase.CANCELLED: 0}
        self._committed_sojourn_s = 0.0
        self._stats_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._shutdown = False
        for worker_index in range(n_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"pl-worker-{worker_index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)

    # -- strategy registry -----------------------------------------------------

    def register_strategy(self, strategy: AnalysisStrategy) -> None:
        """Incorporate a new request type (new processing environment,
        §5.1: "defining the strategy that extends the existing framework")."""
        self.strategies[strategy.algorithm] = strategy

    def strategy_for(self, algorithm: str) -> AnalysisStrategy:
        strategy = self.strategies.get(algorithm)
        if strategy is None:
            raise UnknownRequestType(algorithm)
        return strategy

    # -- synchronous path ---------------------------------------------------------

    def estimate(self, request: AnalysisRequest) -> AnalysisRequest:
        """Run only the estimation phase; returns immediately."""
        strategy = self.strategy_for(request.algorithm)
        request.plan = strategy.estimate(request, self.context)
        request.phase = Phase.ESTIMATED
        return request

    def run(self, request: AnalysisRequest, estimate: bool = False) -> AnalysisRequest:
        """Run the phases in order, synchronously."""
        started = time.perf_counter()
        with self.obs.span("pl.run", algorithm=request.algorithm) as span:
            result = self._run_or_serve(request, estimate)
            span.set_tag("phase", result.phase.name.lower())
            elapsed = time.perf_counter() - started
            self.obs.observe("pl.request_s", elapsed,
                             algorithm=request.algorithm)
            threshold = self.obs.slowlog.threshold_for("pl.run")
            if threshold is not None and elapsed >= threshold:
                self.obs.slow_op(
                    "pl.run", elapsed, threshold,
                    algorithm=request.algorithm,
                    phase=result.phase.name.lower(),
                    fingerprint=fingerprint(request.algorithm, request.hle_id,
                                            request.parameters),
                )
        self.obs.count("pl.requests", algorithm=request.algorithm,
                       phase=result.phase.name.lower())
        return result

    def _run_or_serve(self, request: AnalysisRequest, estimate: bool) -> AnalysisRequest:
        """Product-cache front door around the four phases.

        Fresh hit → serve in O(lookup).  Miss with the IDL breaker open →
        serve a *stale* entry with ``degraded=True`` if one survives
        (stale-while-degraded).  Otherwise run the phases under
        singleflight, so N concurrent identical submits execute once and
        the followers are served from the entry the leader committed.
        """
        cache = self.product_cache
        if cache is None or request.parameters.get("force"):
            return self._run_phases(request, estimate)
        key = fingerprint(request.algorithm, request.hle_id, request.parameters)
        entry = cache.lookup(request.user, key)
        if entry is not None:
            self.obs.count("pl.product_cache.hits", algorithm=request.algorithm)
            return self._serve_from_cache(request, entry)
        self.obs.count("pl.product_cache.misses", algorithm=request.algorithm)
        breaker = getattr(self.context.idl, "breaker", None)
        if breaker is not None and breaker.state is BreakerState.OPEN:
            stale = cache.lookup_stale(request.user, key)
            if stale is not None:
                self.obs.count("pl.product_cache.stale_served",
                               algorithm=request.algorithm)
                return self._serve_from_cache(request, stale, degraded=True)

        def _lead() -> AnalysisRequest:
            result = self._run_phases(request, estimate)
            if (result.phase is Phase.COMMITTED and result.product is not None
                    and result.ana_id is not None):
                cache.store(key, request.algorithm, result.product, result.ana_id)
            return result

        result, leading = cache.flight.do(key, _lead)
        if leading:
            return result
        # Follower: the leader ran the phases on its *own* request; this
        # one gets the committed entry — or its own full run if the
        # leader failed (no entry to share).
        entry = cache.lookup(request.user, key)
        if entry is not None:
            self.obs.count("pl.product_cache.coalesced",
                           algorithm=request.algorithm)
            return self._serve_from_cache(request, entry)
        return self._run_phases(request, estimate)

    def _serve_from_cache(self, request: AnalysisRequest, entry,
                          degraded: bool = False) -> AnalysisRequest:
        request.product = entry.product
        request.ana_id = entry.ana_id
        request.parameters["served_from_cache"] = True
        if degraded:
            request.parameters["degraded"] = True
        request.phase = Phase.COMMITTED
        return self._finish(request)

    def _run_phases(self, request: AnalysisRequest, estimate: bool) -> AnalysisRequest:
        strategy = self.strategy_for(request.algorithm)
        try:
            if estimate:
                request.check_cancelled()
                request.plan = strategy.estimate(request, self.context)
                request.phase = Phase.ESTIMATED
                if not request.plan.feasible:
                    raise RequestFailed(f"infeasible: {request.plan.reason}")
            request.check_cancelled()
            self._maybe_degrade(request, strategy)
            request.raw_result = strategy.execute(request, self.context)
            request.phase = Phase.EXECUTED
            request.check_cancelled()
            request.product = strategy.deliver(request, self.context)
            request.phase = Phase.DELIVERED
            request.check_cancelled()
            request.ana_id = strategy.commit(request, self.context)
            request.phase = Phase.COMMITTED
        except RequestCancelled:
            strategy.cleanup(request, self.context)
            request.phase = Phase.CANCELLED
        except Exception as exc:
            strategy.cleanup(request, self.context)
            request.phase = Phase.FAILED
            request.error = str(exc)
        return self._finish(request)

    def _finish(self, request: AnalysisRequest) -> AnalysisRequest:
        request.completed_at = time.monotonic()
        with self._stats_lock:
            self._finished[request.phase] += 1
            if request.phase is Phase.COMMITTED:
                self._committed_sojourn_s += request.sojourn_s
        return request

    def _maybe_degrade(self, request: AnalysisRequest,
                       strategy: AnalysisStrategy) -> None:
        """Graceful degradation against the ambient :class:`Deadline`.

        A blown budget fails fast (the raise is caught by the phase
        runner, producing a FAILED request).  A nearly-spent budget caps
        the strategy's declared parameters at their degrade caps, a
        cheap approximation, and marks the result ``degraded`` so the
        client can see it got the fallback.
        """
        deadline = Deadline.current()
        if deadline is None:
            return
        deadline.check(f"pl.execute({request.algorithm})")
        if deadline.fraction_remaining() >= self.degrade_fraction:
            return
        for parameter in strategy.parameters:
            cap = parameter.degrade_cap
            value = request.parameters.get(parameter.name)
            if cap is not None and isinstance(value, int) and value > cap:
                request.parameters[parameter.name] = cap
        request.parameters["degraded"] = True
        self.obs.count("pl.degraded", algorithm=request.algorithm)

    # -- queued/asynchronous path ----------------------------------------------------

    def submit(self, request: AnalysisRequest) -> AnalysisRequest:
        """Enqueue under priority scheduling (needs worker threads).

        The submitter's tracing context rides along, so a ``pl.run`` span
        executed on a worker thread nests under the span (web request,
        batch job) that submitted it.
        """
        if not self._workers:
            raise RuntimeError("frontend has no workers; use run() or pass n_workers")
        # The context carries the tracing span AND any ambient Deadline
        # onto the worker thread.
        copy_needed = self.obs.enabled or Deadline.current() is not None
        ctx = contextvars.copy_context() if copy_needed else None
        with self._queue_ready:
            heapq.heappush(
                self._queue, (request.priority, next(self._ticket), request, ctx)
            )
            self.obs.set_gauge("pl.queue_depth", len(self._queue))
            self._queue_ready.notify()
        return request

    def _worker_loop(self) -> None:
        while True:
            with self._queue_ready:
                while not self._queue or self._in_flight >= self.max_in_flight:
                    if self._shutdown:
                        return
                    self._queue_ready.wait(timeout=0.5)
                _priority, _ticket, request, ctx = heapq.heappop(self._queue)
                self._in_flight += 1
                self.obs.set_gauge("pl.queue_depth", len(self._queue))
                self.obs.set_gauge("pl.in_flight", self._in_flight)
            try:
                if ctx is not None:
                    ctx.run(self.run, request)
                else:
                    self.run(request)
            finally:
                with self._queue_ready:
                    self._in_flight -= 1
                    self.obs.set_gauge("pl.in_flight", self._in_flight)
                    self._queue_ready.notify_all()

    def drain(self, timeout_s: float = 60.0) -> None:
        """Wait until the queue is empty and nothing is in flight."""
        deadline = time.monotonic() + timeout_s
        with self._queue_ready:
            while self._queue or self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("frontend drain timed out")
                self._queue_ready.wait(timeout=min(0.5, remaining))

    def close(self) -> None:
        with self._queue_ready:
            self._shutdown = True
            self._queue_ready.notify_all()

    # -- statistics ---------------------------------------------------------------------

    def stats(self) -> dict:
        with self._stats_lock:
            finished = dict(self._finished)
            sojourn_s = self._committed_sojourn_s
        committed = finished[Phase.COMMITTED]
        return {
            "completed": sum(finished.values()),
            "committed": committed,
            "failed": finished[Phase.FAILED],
            "cancelled": finished[Phase.CANCELLED],
            "queries": self.context.queries,
            "edits": self.context.edits,
            "avg_sojourn_s": sojourn_s / committed if committed else 0.0,
        }
