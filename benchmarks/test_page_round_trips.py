"""Trip budget: one DM<->DBMS round trip per read servlet, two for the
catalogue page.

Counts only (they repeat exactly), taken by a proxy in front of the
database that counts the ``execute``/``execute_batch`` calls reaching
it and the statements they carry: what ``bench/deploy.py``'s
``WireProxy`` charges 1/120 s for on ``serve_wire``.  Not ``IoStats``: a
trip the DM miscounts is still a call here.  Every read servlet, on a
plain ``Database`` and on a 4 x 2 stack:

=================  ==========  =====
servlet            statements  trips
=================  ==========  =====
``/hedc/hle``      7           1      (with and without file rows)
``/hedc/catalog``  3           2      (the events are an IN list)
``/hedc/image``    2           1      (the item gate, the joined lookup)
``/hedc/download`` 2           1
``/hedc/catalogs`` 1           1
``/hedc/search``   1           1
``/hedc/ana``      1           1
=================  ==========  =====

A page nobody may see is one trip of seven statements, of which the
database runs one: the gate.  And one timing: with 1/120 s charged per
trip, an HLE page costs one trip and under 3 ms of computing.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import min_per_call
from repro.analysis import AnalysisProduct, render_pgm
from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database
from repro.obs import Observability
from repro.shard import ShardedDatabase
from repro.web import HttpRequest, WebServer
from repro.web.servlets import SESSION_COOKIE

DAY = 86_400.0
RTT_S = 1.0 / 120.0
PAGE_COMPUTE_BUDGET_S = 0.003


class CountingProxy:
    """The wire (``rtt_s`` slept per call), counting the calls that
    reach the database and the statements they carry; everything else
    passes through."""

    def __init__(self, inner):
        self._inner = inner
        self.rtt_s = 0.0
        self.trips = self.statements = 0

    def _trip(self, statements: int) -> None:
        self.trips += 1
        self.statements += statements
        if self.rtt_s > 0:
            time.sleep(self.rtt_s)

    def execute(self, statement, tx=None):
        self._trip(1)
        return self._inner.execute(statement, tx=tx)

    def execute_batch(self, statements, tx=None):
        self._trip(len(statements))
        return self._inner.execute_batch(statements, tx=tx)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


@pytest.fixture(params=["plain", "4x2"])
def served(request, tmp_path):
    obs = Observability(name="trips")
    if request.param == "plain":
        database = Database(name="trips", obs=obs)
    else:
        database = ShardedDatabase(boundaries=(DAY, 2 * DAY, 3 * DAY), name="trips",
                                   obs=obs, replicas_per_shard=2)
    proxy = CountingProxy(database)
    storage = StorageManager(scratch_dir=tmp_path / "scratch")
    storage.register(DiskArchive("main", tmp_path / "archive"))
    dm = DataManager(proxy, storage, obs=obs)
    dm.io.names.ensure_archive("main", str(tmp_path / "archive"))
    user = dm.users.create_user("bench", "pw", group="scientist")
    hle_ids = [
        dm.semantic.insert_hle(user, {
            "start_time": day * DAY + 60.0 * n, "end_time": day * DAY + 90.0,
            "peak_rate": 50.0 + n, "kind": "flare", "public": True,
            "title": f"event {day}.{n}"})
        for day in range(4) for n in range(5)
    ]
    with_files, bare = hle_ids[7], hle_ids[12]
    for n in range(3):
        dm.io.names.register_file(f"hle:{with_files}", "main", f"hle/{n}.fits")
    product = AnalysisProduct("imaging", {"n_pixels": 8})
    product.add_image(render_pgm(np.eye(8)))
    ana_id = dm.semantic.import_analysis(user, with_files, product, {})
    catalog_id = dm.semantic.create_catalog(user, "filed", public=True)
    for hle_id in hle_ids[5:9]:
        dm.semantic.add_to_catalog(user, catalog_id, hle_id)
    web = WebServer(dm, obs=obs)
    cookies = {SESSION_COOKIE: dm.open_session(user, "hle").cookie}

    def get(url: str):
        return web.handle(HttpRequest.get(url, cookies))

    yield proxy, get, {"files": with_files, "bare": bare, "ana": ana_id,
                       "catalog": catalog_id}
    database.close()


def test_every_read_servlet_is_within_its_trips(served):
    proxy, get, ids = served
    budget = {
        f"/hedc/hle?id={ids['files']}": (7, 1),
        f"/hedc/hle?id={ids['bare']}": (7, 1),
        f"/hedc/catalog?id={ids['catalog']}": (3, 2),
        f"/hedc/image?item=ana:{ids['ana']}&index=0": (2, 1),
        f"/hedc/download?item=ana:{ids['ana']}": (2, 1),
        "/hedc/catalogs": (1, 1),
        "/hedc/search?kind=flare": (1, 1),
        f"/hedc/ana?id={ids['ana']}": (1, 1),
    }
    measured = {}
    for url in budget:
        statements, trips = proxy.statements, proxy.trips
        response = get(url)
        assert response.status == 200, (url, response.text)
        measured[url] = (proxy.statements - statements, proxy.trips - trips)
    assert measured == budget
    # A page nobody may see stops at the gate: seven statements sent in
    # one trip, one of them run, by the database behind the proxy.
    statements, trips = proxy.statements, proxy.trips
    executed = proxy.stats.selects
    assert get("/hedc/hle?id=99999").status == 404
    assert (proxy.statements - statements, proxy.trips - trips) == (7, 1)
    assert proxy.stats.selects == executed + 1


def test_a_warm_hle_page_translates_nothing_and_plans_nothing(
        served, monkeypatch):
    """The page is a prepared batch: once its shape is warm, a page
    renders no SQL text, tokenizes nothing and scans no statement for
    references, and plans nothing, on either build.  Every one of its
    seven shapes, the two ``hle`` sweeps among them, reuses its plan; on
    the 4 x 2 stack so does each shard's part of a sweep, under a shape
    of its own, on both copies of the shard."""
    from repro.metadb import database, sql

    _proxy, get, ids = served
    url = f"/hedc/hle?id={ids['files']}"
    for _copy in range(2):      # warm: shapes prepared, plans kept
        assert get(url).status == 200
    calls = {}
    for module, name in ((sql, "_statement_sql"), (sql, "_tokenize"),
                         (sql, "references"), (database, "plan_select")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    for _page in range(3):
        assert get(url).status == 200
    assert calls == {}


def test_an_hle_page_on_the_wire_costs_one_trip_and_little_else(served):
    proxy, get, ids = served
    url = f"/hedc/hle?id={ids['files']}"
    proxy.rtt_s = RTT_S
    try:
        per_page = min_per_call(get, url, calls=5, repeats=5)
    finally:
        proxy.rtt_s = 0.0
    assert RTT_S <= per_page < RTT_S + PAGE_COMPUTE_BUDGET_S, per_page
