"""Workload harness for the serving tier: real servers, synthetic load.

The §7 testbed drove a *real* HEDC deployment with closed-loop clients;
this module rebuilds that harness over the reproduction so the serving
benchmarks measure actual :class:`~repro.web.server.WebServer` instances,
not models.  Three pieces:

* :class:`RemoteDatabase` — a metadb proxy that charges a wire round trip
  (``time.sleep``, which releases the GIL exactly like blocking socket
  I/O) per ``execute``/``execute_batch``.  In-process statements finish
  in microseconds, so without it a concurrency benchmark measures only
  the interpreter lock; with it, worker-pool scaling and the batched
  page fetch's round-trip savings show up in wall-clock numbers.  The
  default latency derives from the paper's DBMS ceiling ("a maximum
  throughput of around 120 HEDC request[s] per second" — ~8.3 ms per
  statement).
* :func:`build_serving_stack` — a self-contained deployment (database,
  DM, web server) seeded with synthetic public HLEs and one logged-in
  scientist session, ready to be driven.
* :func:`run_closed_loop` / :func:`run_open_loop` — the two §7-style
  generators: N think-time-free clients cycling requests (closed), or a
  fixed-rate arrival process over :meth:`WebServer.submit` (open), both
  reporting per-admission-class goodput and latency quantiles.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional, Union

from ..dm import DataManager
from ..filestore import DiskArchive, StorageManager
from ..metadb import Database, DatabaseApi
from ..obs import Observability
from .http import HttpRequest, HttpResponse
from .scheduler import CLASS_ORDER, classify_route
from .server import ThinClient, WebServer
from .servlets import SESSION_COOKIE

#: One DM↔DBMS wire round trip, from the paper's 120 queries/s DBMS.
DEFAULT_RTT_S = 1.0 / 120.0


class RemoteDatabase:
    """A database proxy that pays ``rtt_s`` of wire latency per call.

    One sleep per :meth:`execute` and one per :meth:`execute_batch` —
    that asymmetry is the whole point: a batched page fetch crossing the
    wire twice beats seven single-statement trips by construction,
    and a worker sleeping on the "network" yields the GIL to its peers.
    ``rtt_s`` is mutable so a stack can be seeded at zero latency and
    measured at full latency.
    """

    def __init__(self, inner: DatabaseApi, rtt_s: float = 0.0):
        self._inner = inner
        self.rtt_s = rtt_s

    def execute(self, statement, tx=None):
        if self.rtt_s > 0:
            time.sleep(self.rtt_s)
        return self._inner.execute(statement, tx=tx)

    def execute_batch(self, statements, tx=None):
        if self.rtt_s > 0:
            time.sleep(self.rtt_s)
        return self._inner.execute_batch(statements, tx=tx)

    # The rest of the DatabaseApi passes straight through: the wire
    # changes latency, nothing else.  Spelled out, not ``__getattr__``,
    # so isinstance() against the protocol holds on Python 3.12 too.

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def obs(self) -> Observability:
        return self._inner.obs

    @property
    def stats(self):
        return self._inner.stats

    def begin(self):
        return self._inner.begin()

    def commit(self, tx) -> None:
        self._inner.commit(tx)

    def rollback(self, tx) -> None:
        self._inner.rollback(tx)

    def allocate_id(self, table: str, column: str) -> int:
        return self._inner.allocate_id(table, column)

    def create_table(self, schema) -> None:
        self._inner.create_table(schema)

    def declare_table(self, schema) -> None:
        self._inner.declare_table(schema)

    def drop_table(self, name: str) -> None:
        self._inner.drop_table(name)

    def has_table(self, name: str) -> bool:
        return self._inner.has_table(name)

    def table_names(self) -> list[str]:
        return self._inner.table_names()

    def table(self, name: str):
        return self._inner.table(name)

    def explain_plan(self, select) -> dict[str, Any]:
        return self._inner.explain_plan(select)

    def describe(self) -> dict[str, Any]:
        return self._inner.describe()

    def checkpoint(self) -> None:
        self._inner.checkpoint()

    def close(self) -> None:
        self._inner.close()


@dataclass
class ServingStack:
    """One drivable deployment: web server, DM, remote database."""

    web: WebServer
    dm: DataManager
    database: RemoteDatabase
    obs: Observability
    hle_ids: list[int]
    session_cookie: str
    client_ip: str = "127.0.0.1"

    def request(self, path: str) -> HttpRequest:
        """An authenticated GET, as the logged-in scientist."""
        return HttpRequest.get(path, {SESSION_COOKIE: self.session_cookie},
                               self.client_ip)

    def shutdown(self) -> None:
        self.web.shutdown()


def build_serving_stack(
    data_dir: Union[str, Path, None] = None,
    n_hles: int = 48,
    rtt_s: float = DEFAULT_RTT_S,
    obs: Optional[Observability] = None,
    **web_kwargs: Any,
) -> ServingStack:
    """Assemble and seed a deployment for load experiments.

    ``web_kwargs`` pass through to :class:`WebServer` (``scheduler``,
    ``n_workers``, ``admission_control``, ``max_queue_depth``,
    ``request_budget_s``, ``route_limits`` ...).  Seeding runs at zero
    wire latency; ``rtt_s`` is switched on only once the stack is built.
    """
    if data_dir is None:
        data_dir = tempfile.mkdtemp(prefix="repro-serving-")
    data_dir = Path(data_dir)
    obs = obs if obs is not None else Observability(name="serving")
    database = RemoteDatabase(Database(None, name="serving", obs=obs))
    storage = StorageManager(scratch_dir=data_dir / "scratch")
    archive = DiskArchive("main", data_dir / "archive")
    storage.register(archive)
    dm = DataManager(database, storage, node_name="dm-load", obs=obs)
    dm.io.names.ensure_archive("main", str(archive.root))
    scientist = dm.users.create_user("loadgen", "loadgen-pw",
                                     group="scientist")
    hle_ids = []
    for index in range(n_hles):
        # Spread start times so the neighbours window (±1h) and the
        # similar-rate band each select a bounded, non-empty slice.
        hle_ids.append(dm.semantic.insert_hle(scientist, {
            "public": True,
            "kind": "flare",
            "title": f"synthetic flare {index}",
            "start_time": 240.0 * index,
            "end_time": 240.0 * index + 60.0,
            "peak_rate": 50.0 + 2.5 * (index % 40),
            "goes_class": "C1.0",
        }))
    web = WebServer(dm, obs=obs, **web_kwargs)
    client = ThinClient(web)
    if not client.login("loadgen", "loadgen-pw"):
        raise RuntimeError("loadgen login failed")
    database.rtt_s = rtt_s
    return ServingStack(web=web, dm=dm, database=database, obs=obs,
                        hle_ids=hle_ids,
                        session_cookie=client.cookies[SESSION_COOKIE])


# -- workload mixes ----------------------------------------------------------

#: A request factory: draws one request from the mix.
RequestFactory = Callable[[Random], HttpRequest]


def browse_mix(stack: ServingStack) -> RequestFactory:
    """The §7.2 browse mix: HLE detail pages dominate, with catalog
    listings riding along.  Everything is browse-class."""
    def make(rng: Random) -> HttpRequest:
        if rng.random() < 0.85:
            hle_id = rng.choice(stack.hle_ids)
            return stack.request(f"/hedc/hle?id={hle_id}")
        return stack.request("/hedc/catalogs")
    return make


def mixed_class_mix(
    stack: ServingStack,
    analysis_share: float = 0.25,
    bulk_share: float = 0.15,
) -> RequestFactory:
    """All three admission classes: rate-band searches (analysis-class),
    HLE pages (browse), static transfers (bulk) — the overload workload
    for the admission-control A/B."""
    def make(rng: Random) -> HttpRequest:
        roll = rng.random()
        if roll < analysis_share:
            min_rate = 50.0 + 5.0 * rng.randrange(10)
            return stack.request(f"/hedc/search?min_rate={min_rate}")
        if roll < analysis_share + bulk_share:
            return stack.request("/static/logo.pgm")
        hle_id = rng.choice(stack.hle_ids)
        return stack.request(f"/hedc/hle?id={hle_id}")
    return make


# -- result accounting -------------------------------------------------------

@dataclass
class ClassStats:
    """Outcome tally for one admission class.

    Besides the aggregates, every completion is kept as a timestamped
    event (``at_s`` relative to the run start) so the result can render
    per-class goodput/latency *timelines* — behavior over time, not just
    end-of-run averages.
    """

    sent: int = 0
    ok: int = 0          # 2xx/3xx — goodput numerator
    shed: int = 0        # 503
    expired: int = 0     # 504
    errors: int = 0      # other 4xx/5xx
    latencies_s: list[float] = field(default_factory=list)
    #: (completion time since run start, status, elapsed) per request.
    events: list[tuple[float, int, float]] = field(default_factory=list)

    def record(self, status: int, elapsed_s: float,
               at_s: Optional[float] = None) -> None:
        self.sent += 1
        if status < 400:
            self.ok += 1
            self.latencies_s.append(elapsed_s)
        elif status == 503:
            self.shed += 1
        elif status == 504:
            self.expired += 1
        else:
            self.errors += 1
        if at_s is not None:
            self.events.append((at_s, status, elapsed_s))

    def merge(self, other: "ClassStats") -> None:
        self.sent += other.sent
        self.ok += other.ok
        self.shed += other.shed
        self.expired += other.expired
        self.errors += other.errors
        self.latencies_s.extend(other.latencies_s)
        self.events.extend(other.events)


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


@dataclass
class LoadResult:
    """One load run, summarised per admission class and overall."""

    mode: str
    duration_s: float
    classes: dict[str, ClassStats]

    @property
    def sent(self) -> int:
        return sum(stats.sent for stats in self.classes.values())

    @property
    def ok(self) -> int:
        return sum(stats.ok for stats in self.classes.values())

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def timeline(self, bucket_s: float = 0.25) -> dict[str, list[dict[str, Any]]]:
        """Per-class behavior over time: completions bucketed into
        ``bucket_s`` slices, each with goodput and latency quantiles —
        what the TSDB tests feed on."""
        per_class: dict[str, list[dict[str, Any]]] = {}
        for cls in CLASS_ORDER:
            stats = self.classes.get(cls)
            if stats is None or not stats.events:
                continue
            buckets: dict[int, list[tuple[int, float]]] = {}
            for at_s, status, elapsed_s in stats.events:
                buckets.setdefault(int(at_s / bucket_s), []).append(
                    (status, elapsed_s))
            rows = []
            for index in sorted(buckets):
                entries = buckets[index]
                oks = sorted(elapsed for status, elapsed in entries
                             if status < 400)
                rows.append({
                    "t_s": round(index * bucket_s, 6),
                    "sent": len(entries),
                    "ok": len(oks),
                    "goodput_rps": len(oks) / bucket_s,
                    "p50_s": _quantile(oks, 0.50) if oks else None,
                    "p95_s": _quantile(oks, 0.95) if oks else None,
                })
            per_class[cls] = rows
        return per_class

    def summary(self, bucket_s: float = 0.25) -> dict[str, Any]:
        per_class: dict[str, Any] = {}
        for cls in CLASS_ORDER:
            stats = self.classes.get(cls)
            if stats is None or not stats.sent:
                continue
            latencies = sorted(stats.latencies_s)
            per_class[cls] = {
                "sent": stats.sent,
                "ok": stats.ok,
                "shed": stats.shed,
                "expired": stats.expired,
                "errors": stats.errors,
                "goodput_rps": stats.ok / self.duration_s,
                "p50_s": _quantile(latencies, 0.50),
                "p95_s": _quantile(latencies, 0.95),
                "p99_s": _quantile(latencies, 0.99),
            }
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "sent": self.sent,
            "ok": self.ok,
            "throughput_rps": self.throughput_rps,
            "classes": per_class,
            "timeline": self.timeline(bucket_s),
        }


# -- drivers -----------------------------------------------------------------

def run_closed_loop(
    stack: ServingStack,
    make_request: RequestFactory,
    n_clients: int = 8,
    duration_s: float = 2.0,
    seed: int = 2003,
) -> LoadResult:
    """N zero-think-time clients cycling through ``make_request`` — the
    paper's closed-loop testbed.  Each client blocks on
    :meth:`WebServer.handle`, so offered load tracks completion rate."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    barrier = threading.Barrier(n_clients + 1)
    stop = threading.Event()
    per_thread: list[dict[str, ClassStats]] = [
        {cls: ClassStats() for cls in CLASS_ORDER} for _ in range(n_clients)
    ]

    def client(index: int) -> None:
        rng = Random(seed * 7919 + index)
        stats = per_thread[index]
        barrier.wait()
        run_started = time.perf_counter()
        while not stop.is_set():
            request = make_request(rng)
            cls = classify_route(stack.web._route_of(request.path))
            started = time.perf_counter()
            response = stack.web.handle(request)
            finished = time.perf_counter()
            stats[cls].record(response.status, finished - started,
                              at_s=finished - run_started)

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    elapsed = time.perf_counter() - started
    merged = {cls: ClassStats() for cls in CLASS_ORDER}
    for stats in per_thread:
        for cls in CLASS_ORDER:
            merged[cls].merge(stats[cls])
    return LoadResult(mode="closed", duration_s=elapsed, classes=merged)


def run_open_loop(
    stack: ServingStack,
    make_request: RequestFactory,
    rate_rps: float = 100.0,
    duration_s: float = 2.0,
    seed: int = 2003,
    drain_timeout_s: float = 10.0,
) -> LoadResult:
    """A fixed-rate arrival process over :meth:`WebServer.submit`.

    Unlike the closed loop, arrivals don't slow down when the server
    does — the generator keeps offering ``rate_rps`` regardless, which is
    what pushes a bounded admission queue into shedding.  Requires a
    non-blocking executor (``scheduler="pool"``)."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = Random(seed)
    interval = 1.0 / rate_rps
    tasks = []
    started = time.perf_counter()
    next_arrival = started
    while True:
        now = time.perf_counter()
        if now - started >= duration_s:
            break
        if now < next_arrival:
            time.sleep(min(interval, next_arrival - now))
            continue
        tasks.append(stack.web.submit(make_request(rng)))
        next_arrival += interval
    deadline = time.perf_counter() + drain_timeout_s
    merged = {cls: ClassStats() for cls in CLASS_ORDER}
    for task in tasks:
        response = task.result(timeout=max(0.0, deadline - time.perf_counter()))
        if response is None:
            # Never resolved within the drain window: count as expired.
            if task.resolve(HttpResponse.error(504, "load harness drain")):
                response = task.response
            else:
                response = task.result(0.0)
        resolved_at = task.resolved_at or time.perf_counter()
        elapsed = resolved_at - task.created_at
        merged[task.request_class].record(response.status, elapsed,
                                          at_s=resolved_at - started)
    total = time.perf_counter() - started
    return LoadResult(mode="open", duration_s=min(total, duration_s),
                      classes=merged)
