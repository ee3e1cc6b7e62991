"""The web server and thin client.

:class:`WebServer` wires the servlets into a router (the Apache/Tomcat of
paper §2.3) and hands every request to a pluggable executor
(:mod:`repro.web.scheduler`): synchronous single-thread dispatch by
default, or a worker pool with priority admission control so thousands of
in-flight sessions interleave (§7.3's "add servlet threads" knob).
:class:`ThinClient` drives the typical browse sequence of §7.2 — "first
sends a query to select an HLE, then sends another query to retrieve all
its related analyses, and finally sends requests for all images related
to these analyses" — caching static images client-side after the first
download, and backing off for the server's ``Retry-After`` hint when it
is shed with 503.

Both are instrumented through :mod:`repro.obs`: the server keeps
per-route latency histograms and status counters (``requests_served`` /
``bytes_sent`` remain as thin properties over the obs counters), and the
client's browse timing feeds a ``client.browse_s`` histogram instead of
hand-rolled ``perf_counter`` bookkeeping.
"""

from __future__ import annotations

import contextvars
import math
import re
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..dm import EntityNotFound
from ..obs import Observability, resolve as resolve_obs
from ..resil import (
    BreakerOpen,
    Bulkhead,
    BulkheadFull,
    ConnectionDropped,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from ..resil.faults import fire as fire_fault
from .http import HttpRequest, HttpResponse, Router
from .scheduler import (
    DEFAULT_ROUTE_LIMITS,
    AdmissionController,
    ScheduledRequest,
    SynchronousExecutor,
    WorkerPoolExecutor,
    classify_route,
)
from .servlets import SESSION_COOKIE, Servlets


class WebServer:
    """One web-server node hosting the HEDC servlets over one DM.

    ``scheduler`` picks the executor: ``"sync"`` (default — inline
    dispatch, today's semantics), ``"pool"`` (``n_workers`` threads
    behind a bounded priority admission queue), or a callable
    ``factory(dispatch) -> executor`` for custom schedulers.
    ``admission_control=False`` keeps the pool but degrades the queue to
    plain bounded FIFO — the benchmark's A/B baseline.  ``route_limits``
    maps route prefixes to :class:`~repro.resil.Bulkhead` concurrency
    caps (defaults cap ``/hedc/analyze`` at the paper's 20-request window
    and bulk downloads at 8; pass ``{}`` to disable).

    ``request_budget_s`` installs a :class:`Deadline` around each request
    — created at *admission*, so queue wait counts against the budget —
    propagated down into the DM and PL; blown budgets come back as 504.
    When a downstream breaker/bulkhead rejects the call, the server sheds
    load with 503 + ``Retry-After`` instead of queueing on a dead
    dependency.
    """

    def __init__(self, dm, frontend=None, name: str = "web0",
                 obs: Observability | None = None,
                 request_budget_s: float | None = None,
                 scheduler: Union[str, Any] = "sync",
                 n_workers: int = 8,
                 max_queue_depth: int = 64,
                 admission_control: bool = True,
                 route_limits: Optional[dict[str, int]] = None):
        self.request_budget_s = request_budget_s
        self.name = name
        self.dm = dm
        self.obs = obs if obs is not None else resolve_obs(getattr(dm, "obs", None))
        self.servlets = Servlets(dm, frontend=frontend, obs=self.obs)
        self.router = Router()
        self.router.add("/static", self.servlets.static)
        self.router.add("/hedc/login", self.servlets.login)
        self.router.add("/hedc/catalogs", self.servlets.catalogs)
        self.router.add("/hedc/catalog", self.servlets.catalog)
        self.router.add("/hedc/hle", self.servlets.hle)
        self.router.add("/hedc/ana", self.servlets.ana)
        self.router.add("/hedc/image", self.servlets.image)
        self.router.add("/hedc/download", self.servlets.download)
        self.router.add("/hedc/search", self.servlets.search)
        self.router.add("/hedc/analyze", self.servlets.analyze)
        self.router.add("/hedc/metrics", self.servlets.metrics)
        self.router.add("/hedc/debug", self.servlets.debug)
        self.router.add("/hedc/dashboard", self.servlets.dashboard)
        # The panels describe the web tier and the node it fronts: a DM
        # built on the hub without a server (an extra §7.3 node, a
        # StreamCorder's clone) claims nothing.  Last server wired wins.
        self.obs.contribute("serving", self.serving_report)
        self.obs.contribute("dm", dm.describe)
        self.obs.contribute("data", dm.describe_data)
        self.obs.slo.cause_resolver = self.obs.health.attributed_cause
        #: Set by :meth:`enable_canary`.
        self.canary = None
        self._requests = self.obs.counter("web.requests", server=self.name)
        self._bytes = self.obs.counter("web.bytes_sent", server=self.name)
        # Per-route metric handles, resolved lazily once per (route, status).
        self._route_hists: dict[str, object] = {}
        self._response_counters: dict[tuple[str, int], object] = {}
        limits = DEFAULT_ROUTE_LIMITS if route_limits is None else route_limits
        self._route_bulkheads = {
            route: Bulkhead(f"web.route{route}", max_concurrent=limit,
                            obs=self.obs)
            for route, limit in limits.items()
        }
        if scheduler == "sync":
            self.executor = SynchronousExecutor(self._dispatch)
        elif scheduler == "pool":
            admission = AdmissionController(
                max_queue_depth=max_queue_depth,
                priorities=admission_control,
                obs=self.obs, server=self.name,
            )
            self.executor = WorkerPoolExecutor(
                self._dispatch, n_workers=n_workers, admission=admission,
                obs=self.obs, server=self.name,
            )
        else:
            self.executor = scheduler(self._dispatch)

    # -- legacy counters, now thin views over the obs registry ---------------

    @property
    def requests_served(self) -> int:
        return int(self._requests.value)

    @property
    def bytes_sent(self) -> int:
        return int(self._bytes.value)

    def _route_of(self, path: str) -> str:
        prefix = self.router.match(path)
        return prefix if prefix is not None else "(unrouted)"

    # -- request lifecycle ---------------------------------------------------

    def submit(self, request: HttpRequest) -> ScheduledRequest:
        """Admit a request and return its in-flight handle.

        With the pool executor this is non-blocking (the open-loop load
        generator's entry point); with the synchronous executor the task
        is already resolved on return.
        """
        route = self._route_of(request.path)
        deadline = (Deadline(self.request_budget_s)
                    if self.request_budget_s is not None else None)
        context = (contextvars.copy_context()
                   if self.executor.needs_context else None)
        task = ScheduledRequest(
            request, route,
            request_class=classify_route(route),
            deadline=deadline, context=context, on_resolve=self._account,
        )
        self.executor.submit(task)
        return task

    def handle(self, request: HttpRequest) -> HttpResponse:
        # The drop happens before any server-side work, like a broken
        # socket would; it propagates to the client as an exception, not a
        # response.
        fire_fault("web.connection_drop")
        task = self.submit(request)
        timeout = None
        if task.deadline is not None:
            # Give workers a grace window past the budget to deliver
            # their own 504 before the caller abandons the task.
            timeout = max(0.0, task.deadline.remaining()) + 0.1
        response = task.result(timeout)
        if response is None:
            # Still queued past its budget: abandon with 504.  resolve()
            # is write-once, so a worker finishing concurrently wins and
            # its response is returned instead.
            if task.resolve(HttpResponse.error(
                    504, "deadline exceeded waiting for a worker")):
                self.obs.count("web.deadline_exceeded", server=self.name,
                               route=task.route)
            response = task.response
        return response

    def _dispatch(self, task: ScheduledRequest) -> None:
        """Serve one admitted task — runs on a worker (pool) or inline
        (sync); all error→status mapping happens here."""
        request = task.request
        route = task.route
        with self.obs.span("web.handle", server=self.name, route=route) as span:
            try:
                bulkhead = self._route_bulkheads.get(route)
                if bulkhead is not None:
                    with bulkhead:
                        response = self._serve(task)
                else:
                    response = self._serve(task)
            except (BreakerOpen, BulkheadFull) as exc:
                response = HttpResponse.error(
                    503, f"service unavailable: {exc}"
                )
                response.headers["Retry-After"] = str(
                    max(1, math.ceil(exc.retry_after_s))
                )
                self.obs.count("web.shed", server=self.name, route=route)
            except DeadlineExceeded as exc:
                response = HttpResponse.error(504, f"deadline exceeded: {exc}")
                self.obs.count("web.deadline_exceeded", server=self.name,
                               route=route)
            except EntityNotFound as exc:
                response = HttpResponse.error(404, str(exc))
            except Exception as exc:
                response = HttpResponse.error(500, f"{type(exc).__name__}: {exc}")
            span.set_tag("status", response.status)
            if span:
                task.exemplar = (span.trace_id, span.span_id)
        task.resolve(response)

    def _serve(self, task: ScheduledRequest) -> HttpResponse:
        if task.deadline is not None:
            with task.deadline:
                task.deadline.check("web.dispatch")
                return self.router.dispatch(task.request)
        return self.router.dispatch(task.request)

    def _account(self, task: ScheduledRequest) -> None:
        """Metric accounting at resolution — every outcome (served, shed,
        expired, abandoned) is counted exactly once."""
        response = task.response
        route = task.route
        elapsed = time.perf_counter() - task.created_at
        histogram = self._route_hists.get(route)
        if histogram is None:
            histogram = self._route_hists[route] = self.obs.histogram(
                "web.request_s", server=self.name, route=route
            )
        if task.exemplar is not None:
            histogram.observe(elapsed, exemplar=task.exemplar)
        else:
            histogram.observe(elapsed)
        threshold = self.obs.slowlog.threshold_for("web.handle")
        if threshold is not None and elapsed >= threshold:
            trace_id, span_id = task.exemplar or (None, None)
            self.obs.slowlog.record(
                "web.handle", elapsed, threshold,
                trace_id=trace_id, span_id=span_id,
                route=route, path=task.request.path, status=response.status,
            )
        self._requests.inc()
        self._bytes.inc(response.size)
        counter_key = (route, response.status)
        counter = self._response_counters.get(counter_key)
        if counter is None:
            counter = self._response_counters[counter_key] = self.obs.counter(
                "web.responses", server=self.name, route=route,
                status=str(response.status),
            )
        counter.inc()

    # -- lifecycle & telemetry -----------------------------------------------

    def enable_canary(self, path: str = "/hedc/catalogs",
                      interval_s: float = 5.0, timeout_s: float = 2.0):
        """Attach a synthetic canary probe to the hub's collector so an
        idle deployment still distinguishes "no traffic" from "down".
        The probe fires on collector ticks (at most once per
        ``interval_s``); start the collector to make it periodic."""
        from ..obs import CanaryProbe

        self.canary = CanaryProbe(self, path=path, interval_s=interval_s,
                                  timeout_s=timeout_s)
        self.obs.collector.add_sampler(self.canary)
        return self.canary

    def shutdown(self) -> None:
        """Stop pool workers and shed anything still queued."""
        self.executor.shutdown()

    def serving_report(self) -> dict[str, Any]:
        """Scheduler/admission state: the ``serving`` section of the
        report tree."""
        executor_report = self.executor.report()
        return {
            "scheduler": executor_report["mode"],
            "n_workers": executor_report["n_workers"],
            "queue": executor_report["queue"],
            "routes": {
                route: {"limit": bulkhead.max_concurrent,
                        "in_use": bulkhead.in_use}
                for route, bulkhead in sorted(self._route_bulkheads.items())
            },
        }


_IMG_RE = re.compile(r'(?:src|href)="(/hedc/image[^"]+)"')


@dataclass
class BrowseResult:
    """What one full browse interaction transferred."""

    hle_id: int
    page_bytes: int = 0
    image_bytes: int = 0
    n_images: int = 0
    n_requests: int = 0
    elapsed_s: float = 0.0


class ThinClient:
    """A browser-like client with persistent cookies and a static cache.

    When the server sheds it with 503, the client honors the
    ``Retry-After`` header — sleeping for the server's hint (capped at
    ``max_retry_after_s``) and retrying up to ``max_shed_retries`` times
    — instead of hammering a server that just said it is overloaded.
    """

    def __init__(self, server: WebServer, client_ip: str = "127.0.0.1"):
        self.server = server
        self.obs = server.obs
        self.client_ip = client_ip
        self.cookies: dict[str, str] = {}
        #: Retry-After behavior on 503 (injectable sleep for tests).
        self.honor_retry_after = True
        self.max_shed_retries = 1
        self.max_retry_after_s = 5.0
        self._sleep = time.sleep
        self._static_cache: dict[str, bytes] = {}
        # Browser-style revalidation cache: url -> (etag, body, content_type).
        # Responses carrying an ETag are replayed with If-None-Match; a 304
        # restores the cached body without the payload crossing the wire.
        self._etag_cache: dict[str, tuple[str, bytes, str]] = {}
        self._requests_sent = self.obs.counter("client.requests_sent",
                                               client=client_ip)
        # A browser reconnects on a dropped connection; GET/POST against
        # these servlets are safe to resend.
        self._drop_retry = RetryPolicy(
            name="client.reconnect",
            max_attempts=3,
            base_delay_s=0.0,
            jitter=0.0,
            retryable=(ConnectionDropped,),
            obs=self.obs,
        )

    @property
    def requests_sent(self) -> int:
        return int(self._requests_sent.value)

    def get(self, url: str) -> HttpResponse:
        if url.startswith("/static"):
            if url in self._static_cache:
                self.obs.count("client.static_cache_hits", client=self.client_ip)
                return HttpResponse.image(self._static_cache[url])
            response = self._send(HttpRequest.get(url, self.cookies, self.client_ip))
            if response.status == 200:
                self._static_cache[url] = response.body
            return response
        headers: dict[str, str] = {}
        cached = self._etag_cache.get(url)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response = self._send(
            HttpRequest.get(url, self.cookies, self.client_ip, headers=headers)
        )
        if response.status == 304 and cached is not None:
            self.obs.count("client.revalidated", client=self.client_ip)
            return HttpResponse(status=200, body=cached[1], content_type=cached[2],
                                headers=dict(response.headers))
        etag = response.headers.get("ETag")
        if response.status == 200 and etag:
            self._etag_cache[url] = (etag, response.body, response.content_type)
        return response

    def post(self, url: str, params: dict[str, str]) -> HttpResponse:
        return self._send(HttpRequest.post(url, params, self.cookies, self.client_ip))

    def _send(self, request: HttpRequest) -> HttpResponse:
        self._requests_sent.inc()
        response = self._drop_retry.call(self.server.handle, request)
        retries = 0
        while (response.status == 503 and self.honor_retry_after
               and retries < self.max_shed_retries):
            hint = response.headers.get("Retry-After")
            if hint is None:
                break
            # The server's hint is authoritative (it knows its backlog);
            # the cap only bounds a pathological estimate.
            self._sleep(min(float(hint), self.max_retry_after_s))
            self.obs.count("client.retry_after_waits", client=self.client_ip)
            retries += 1
            self._requests_sent.inc()
            response = self._drop_retry.call(self.server.handle, request)
        self.cookies.update(response.set_cookies)
        return response

    def login(self, login: str, password: str) -> bool:
        response = self.post("/hedc/login", {"login": login, "password": password})
        return response.status == 302 and SESSION_COOKIE in self.cookies

    def browse_hle(self, hle_id: int) -> BrowseResult:
        """The §7.2 sequence: HLE page, then every embedded dynamic image."""
        result = BrowseResult(hle_id)
        with self.obs.timed("client.browse_s", client=self.client_ip) as timer:
            page = self.get(f"/hedc/hle?id={hle_id}")
            result.page_bytes = page.size
            result.n_requests += 1
            if page.status == 200:
                for image_url in _IMG_RE.findall(page.text):
                    image = self.get(image_url.replace("&amp;", "&"))
                    result.n_requests += 1
                    if image.status == 200:
                        result.image_bytes += image.size
                        result.n_images += 1
        result.elapsed_s = timer.elapsed_s
        return result
