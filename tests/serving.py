"""A seeded serving stack and the two load loops the serving tests and
benchmarks drive it with.

``bench/`` is the serving benchmark; this is the little the tests need
of one: a deployment behind a wire that charges a round trip per call,
a logged-in scientist, and closed- and open-loop traffic of HLE pages
and catalogue listings.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Optional

from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database
from repro.obs import Observability
from repro.web import SESSION_COOKIE, HttpRequest, WebServer


class WireProxy:
    """A database behind a wire: ``rtt_s`` is slept per ``execute`` and
    per ``execute_batch`` (a sleep releases the interpreter lock like
    blocking socket I/O would); everything else passes through."""

    def __init__(self, inner: Database):
        self._inner = inner
        self.rtt_s = 0.0

    def _trip(self) -> None:
        if self.rtt_s > 0:
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
class Stack:
    """A web server over a DM over a :class:`WireProxy`, seeded with
    public HLEs and one logged-in scientist."""

    web: WebServer
    dm: DataManager
    database: WireProxy
    obs: Observability
    user: Any
    hle_ids: list[int]
    session_cookie: str

    def request(self, path: str) -> HttpRequest:
        """A GET as the logged-in scientist."""
        return HttpRequest.get(path, {SESSION_COOKIE: self.session_cookie})

    def browse(self, rng: Random) -> HttpRequest:
        """One request of the browse mix: mostly HLE pages, some
        catalogue listings."""
        if rng.random() < 0.85:
            return self.request(f"/hedc/hle?id={rng.choice(self.hle_ids)}")
        return self.request("/hedc/catalogs")

    def shutdown(self) -> None:
        self.web.shutdown()


def build_stack(data_dir: Path, n_hles: int = 8, rtt_s: float = 0.0,
                obs: Optional[Observability] = None, **web_kwargs: Any) -> Stack:
    """Seed a deployment at zero wire latency, then set ``rtt_s``.
    ``web_kwargs`` go to :class:`WebServer` (``scheduler``,
    ``n_workers``, ``max_queue_depth``, ``route_limits`` ...)."""
    obs = obs if obs is not None else Observability(name="serving")
    database = WireProxy(Database(name="serving", obs=obs))
    storage = StorageManager(scratch_dir=data_dir / "scratch")
    archive = DiskArchive("main", data_dir / "archive")
    storage.register(archive)
    dm = DataManager(database, storage, obs=obs)
    dm.io.names.ensure_archive("main", str(archive.root))
    user = dm.users.create_user("scientist", "scientist-pw", group="scientist")
    # Start times 240 s apart and rates in a 40-step band keep each
    # page's neighbours and similar-rate lists short but not empty.
    hle_ids = [dm.semantic.insert_hle(user, {
        "public": True, "kind": "flare", "title": f"synthetic flare {index}",
        "start_time": 240.0 * index, "end_time": 240.0 * index + 60.0,
        "peak_rate": 50.0 + 2.5 * (index % 40), "goes_class": "C1.0",
    }) for index in range(n_hles)]
    web = WebServer(dm, obs=obs, **web_kwargs)
    cookie = dm.open_session(user, "hle").cookie
    database.rtt_s = rtt_s
    return Stack(web, dm, database, obs, user, hle_ids, cookie)


def closed_loop(stack: Stack, n_clients: int = 8, duration_s: float = 1.0,
                seed: int = 2003) -> float:
    """``n_clients`` clients without think time, each waiting for its
    answer before it sends again; returns the answers under 400 per
    second."""
    stop = threading.Event()
    answered = [0] * n_clients

    def client(index: int) -> None:
        rng = Random(seed * 7919 + index)
        while not stop.is_set():
            if stack.web.handle(stack.browse(rng)).status < 400:
                answered[index] += 1

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(n_clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    return sum(answered) / (time.perf_counter() - started)


def open_loop(stack: Stack, rate_rps: float, duration_s: float,
              seed: int = 2003, drain_timeout_s: float = 10.0
              ) -> dict[str, dict[str, int]]:
    """Arrivals at ``rate_rps`` through :meth:`WebServer.submit`,
    whether or not the server keeps up (it needs ``scheduler="pool"``);
    returns ``sent``, ``ok`` (under 400) and ``shed`` (503) per
    admission class.  A request still unanswered after the drain counts
    as sent only."""
    rng = Random(seed)
    tasks = []
    started = next_arrival = time.perf_counter()
    while (now := time.perf_counter()) - started < duration_s:
        if now < next_arrival:
            time.sleep(next_arrival - now)
            continue
        tasks.append(stack.web.submit(stack.browse(rng)))
        next_arrival += 1.0 / rate_rps
    deadline = time.perf_counter() + drain_timeout_s
    counts: dict[str, dict[str, int]] = {}
    for task in tasks:
        response = task.result(timeout=max(0.0, deadline - time.perf_counter()))
        tally = counts.setdefault(task.request_class,
                                  {"sent": 0, "ok": 0, "shed": 0})
        tally["sent"] += 1
        if response is not None:
            tally["ok"] += response.status < 400
            tally["shed"] += response.status == 503
    return counts
