"""The four deployments, built from the program's public surface.

Every builder returns a :class:`Deployment`: a logged-in web server over
a seeded data tier.  Building is what ``setup_s`` times; generating the
inputs (catalogue rows, packaged observation) is not part of it.  A
builder calls ``tick`` between its stages, which is where the caller
reads the machine's speed (``speed.Meter``).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core import Hedc
from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database
from repro.obs import Observability
from repro.shard import ShardedDatabase
from repro.web import HttpRequest, WebServer
from repro.web.scheduler import AdmissionController, WorkerPoolExecutor
from repro.web.servlets import SESSION_COOKIE

from datagen import SPAN_S, Catalogue, Observation, load_catalogue

#: One DM<->DBMS wire round trip: the paper's DBMS ceiling of ~120 q/s.
WIRE_RTT_S = 1.0 / 120.0

LOGIN = "bench"
PASSWORD = "bench-pw"
CLIENT_IP = "10.0.0.1"

#: serve_wire's serving tier.
WEB_NAME = "web0"
POOL_WORKERS = 8
POOL_QUEUE_DEPTH = 32

#: composed_rw: three boundaries, four shards, two copies of each.
SHARD_BOUNDARIES = (SPAN_S * 0.25, SPAN_S * 0.5, SPAN_S * 0.75)
REPLICAS_PER_SHARD = 2


class WireProxy:
    """A database proxy that charges ``rtt_s`` of wire latency per
    ``execute``/``execute_batch`` (a sleep releases the interpreter lock
    like blocking socket I/O would).  Seeding runs at ``rtt_s = 0``."""

    def __init__(self, inner: Database, tracer=None):
        self._inner = inner
        self._tracer = tracer
        self.rtt_s = 0.0

    def _trip(self) -> None:
        if self.rtt_s > 0:
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                frame = tracer.begin("wire.rtt")
                time.sleep(self.rtt_s)
                tracer.end(frame)
            else:
                time.sleep(self.rtt_s)

    def execute(self, statement, tx=None):
        self._trip()
        return self._inner.execute(statement, tx=tx)

    def execute_batch(self, statements, tx=None):
        self._trip()
        return self._inner.execute_batch(statements, tx=tx)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


@dataclass
class Deployment:
    """One drivable stack and what the load generator needs to drive it."""

    web: WebServer
    dm: DataManager
    database: Any
    obs: Observability
    user: Any
    cookies: dict[str, str]
    workdir: Path
    hedc: Optional[Hedc] = None
    extra: dict[str, Any] = field(default_factory=dict)

    def get(self, path: str) -> HttpRequest:
        return HttpRequest.get(path, self.cookies, CLIENT_IP)

    def post(self, path: str, params: dict[str, str]) -> HttpRequest:
        return HttpRequest.post(path, params, self.cookies, CLIENT_IP)

    def close(self) -> None:
        self.web.shutdown()
        if self.hedc is not None:
            self.hedc.idl.stop_all()
            self.hedc.frontend.close()
        closer = getattr(self.database, "close", None)
        if closer is not None:
            closer()
        shutil.rmtree(self.workdir, ignore_errors=True)


def login(web: WebServer) -> dict[str, str]:
    response = web.handle(HttpRequest.post(
        "/hedc/login", {"login": LOGIN, "password": PASSWORD},
        client_ip=CLIENT_IP))
    if response.status != 302 or SESSION_COOKIE not in response.set_cookies:
        raise RuntimeError(f"benchmark login failed: {response.status}")
    return {SESSION_COOKIE: response.set_cookies[SESSION_COOKIE]}


def no_tick() -> None:
    """For a build nobody times (the oracle twin)."""


def seeded_data_manager(database, workdir: Path, obs: Observability,
                        catalogue: Catalogue, tick: Callable[[], None]):
    """A DM node over ``database`` with the schema installed, the two
    users created and the catalogue loaded; returns (dm, bench user)."""
    storage = StorageManager(scratch_dir=workdir / "scratch")
    archive = DiskArchive("main", workdir / "archive")
    storage.register(archive)
    dm = DataManager(database, storage, node_name="dm0", obs=obs)
    dm.io.names.ensure_archive("main", str(archive.root))
    user = dm.users.create_user(LOGIN, PASSWORD, group="scientist")
    other = dm.users.create_user("other", "other-pw", group="scientist")
    tick()
    load_catalogue(database, catalogue,
                   {"bench": user.user_id, "other": other.user_id}, tick)
    tick()
    return dm, user


def build_plain(workdir: Path, catalogue: Catalogue,
                tick: Callable[[], None]) -> Deployment:
    """``browse_plain``: one in-memory ``Database``, synchronous server."""
    obs = Observability(name="browse_plain")
    database = Database(None, name="plain", obs=obs)
    dm, user = seeded_data_manager(database, workdir, obs, catalogue, tick)
    web = WebServer(dm, obs=obs, scheduler="sync")
    return Deployment(web, dm, database, obs, user, login(web), workdir)


def build_composed(workdir: Path, catalogue: Catalogue,
                   tick: Callable[[], None]) -> Deployment:
    """``composed_rw``: four time shards, two copies each, WAL with an
    fsync on every commit (the program's default flush policy), seeded in
    500-row transactions and checkpointed."""
    obs = Observability(name="composed_rw")
    database = open_composed(workdir, obs)
    dm, user = seeded_data_manager(database, workdir, obs, catalogue, tick)
    database.checkpoint()
    tick()
    web = WebServer(dm, obs=obs, scheduler="sync")
    return Deployment(web, dm, database, obs, user, login(web), workdir)


def open_composed(workdir: Path, obs: Optional[Observability] = None) -> ShardedDatabase:
    """Create the sharded, replicated, persistent stack under ``workdir``
    or reopen the one already there."""
    return ShardedDatabase(
        boundaries=SHARD_BOUNDARIES, path=workdir / "db", name="composed",
        obs=obs, replicas_per_shard=REPLICAS_PER_SHARD,
    )


def build_wire(workdir: Path, catalogue: Catalogue, tick: Callable[[], None],
               tracer=None) -> Deployment:
    """``serve_wire``: in-memory ``Database`` behind the wire proxy, a pool
    of eight workers behind priority admission (what ``scheduler="pool",
    n_workers=8, admission_control=True, max_queue_depth=32`` assembles).
    The round trip is switched on once the stack is seeded and logged in."""
    obs = Observability(name="serve_wire")
    database = WireProxy(Database(None, name="wire", obs=obs), tracer)
    dm, user = seeded_data_manager(database, workdir, obs, catalogue, tick)

    # One assembly for traced and untraced runs: the pool goes in through
    # the scheduler plug point, which is where a traced run's dispatch
    # wrapper sees admission and dispatch start.
    def factory(dispatch):
        if tracer is not None:
            dispatch = tracer.wrap_dispatch(dispatch)
        return WorkerPoolExecutor(
            dispatch, n_workers=POOL_WORKERS,
            admission=AdmissionController(
                max_queue_depth=POOL_QUEUE_DEPTH, priorities=True,
                obs=obs, server=WEB_NAME),
            obs=obs, server=WEB_NAME)

    web = WebServer(dm, name=WEB_NAME, obs=obs, scheduler=factory)
    cookies = login(web)
    database.rtt_s = WIRE_RTT_S
    return Deployment(web, dm, database, obs, user, cookies, workdir)


#: analyze: analyses committed on each page event while setting up, so
#: that the HLE page renders a fixed number of analysis rows.
PAGE_EVENT_ANALYSES = (("lightcurve", {"bin_width_s": 2.0}),
                       ("histogram", {"n_bins": 32}),
                       ("lightcurve", {"bin_width_s": 4.0}),
                       ("histogram", {"n_bins": 64}))
N_PAGE_EVENTS = 4


def build_analyze(workdir: Path, observation: Observation,
                  tick: Callable[[], None]) -> Deployment:
    """``analyze``: the full ``Hedc`` assembly, persistent, one IDL
    server, the observation loaded unit by unit through the process
    layer; then one event per analysis window."""
    hedc = Hedc.create(workdir, persistent=True, n_idl_servers=1)
    load_s = 0.0
    for unit in observation.units:
        tick()
        started = time.perf_counter()
        hedc.dm.process.load_raw_unit(
            unit, "main", standard_catalog_id=hedc.standard_catalog_id)
        load_s += time.perf_counter() - started
    tick()
    user = hedc.register_user(LOGIN, PASSWORD, group="scientist")
    units = sorted(observation.units, key=lambda unit: unit.start)
    events: dict[int, str] = {}
    for index, (start, end) in enumerate(observation.windows):
        covering = [u for u in units if u.start <= start and end <= u.end]
        title = f"window {index} at {start:.0f}s"
        hle_id = hedc.dm.semantic.insert_hle(user, {
            "public": True, "kind": "flare", "title": title,
            "start_time": start, "end_time": end,
            # One covering unit keeps the photon load to a single file;
            # a window across two units resolves them by time instead.
            "source_unit": covering[0].unit_id if covering else None,
        })
        events[hle_id] = title
    page_events = list(events)[:N_PAGE_EVENTS]
    for hle_id in page_events:
        for algorithm, parameters in PAGE_EVENT_ANALYSES:
            request = hedc.analyze(user, hle_id, algorithm, parameters)
            if request.ana_id is None:
                raise RuntimeError(f"set-up analysis failed: {request.error}")
            tick()
    cookies = login(hedc.web)
    return Deployment(
        hedc.web, hedc.dm, hedc.dm.io.default_database, hedc.obs, user,
        cookies, workdir, hedc=hedc,
        extra={"events": events, "page_events": page_events,
               "target_events": list(events)[N_PAGE_EVENTS:],
               "load_unit_s": load_s,
               "n_photons": observation.n_photons,
               "n_units": len(observation.units)},
    )
