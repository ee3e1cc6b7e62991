"""Seeded inputs: the event catalogue, the observation, the request streams.

Everything the program sees is generated here from ``--seed``; the same
seed gives the same rows and the same operation stream.  Sizes, shares
and value ranges are fixed, only the draws move with the seed, so two
seeds give statistically equal workloads.

The :class:`Ledger` is what the generator *knows* about the catalogue as
the logged-in user sees it (titles, counts, which rows are visible); the
load generator checks every response against it, and on ``composed_rw``
it is updated by every acknowledged write.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator, Optional

from repro.metadb import Insert

#: The catalogue covers 64 days of mission time.
SPAN_S = 64 * 86_400.0
DAY_S = 86_400.0

KINDS = ("flare", "grb", "quiet")
KIND_WEIGHTS = (0.8, 0.1, 0.1)

#: Six catalogues that are browsed and two the user files events into.
BROWSE_CATALOG_SIZES = (200, 200, 150, 150, 100, 100)
WORK_CATALOG_SIZES = (50, 50)

#: ``/hedc/search?min_rate=`` thresholds: a fixed log-spaced grid that the
#: stream cycles through, so that every run asks the same questions.
MIN_RATE_GRID = tuple(round(10 ** (1.0 + 2.6 * i / 15), 3) for i in range(16))


@dataclass
class Catalogue:
    """Generated rows, owner given by role (``bench`` or ``other``)."""

    events: list[dict[str, Any]]
    analyses: list[dict[str, Any]]
    files: list[dict[str, Any]]
    catalogs: list[dict[str, Any]]
    members: list[dict[str, Any]]


def _log_uniform(rng: Random, low: float, high: float) -> float:
    return 10 ** rng.uniform(math.log10(low), math.log10(high))


def make_catalogue(seed: int, n_events: int) -> Catalogue:
    """Events in ``start_time`` order (as real ingest would load them, so
    zone maps can prune), 90 % public and 10 % private to a second user,
    a quarter of them carrying 1-3 analyses with an image reference."""
    rng = Random(seed)
    events = []
    analyses = []
    files = []
    step = SPAN_S / n_events
    for index in range(n_events):
        hle_id = index + 1
        start = step * (index + rng.random() * 0.9)
        kind = rng.choices(KINDS, KIND_WEIGHTS)[0]
        public = rng.random() < 0.9
        n_ana = rng.randint(1, 3) if rng.random() < 0.25 else 0
        events.append({
            "hle_id": hle_id,
            "item_id": f"hle:{hle_id}",
            "owner": "bench" if public else "other",
            "public": public,
            "kind": kind,
            "title": f"{kind} {hle_id} on day {start / DAY_S:.3f}",
            "start_time": start,
            "end_time": start + rng.uniform(30.0, 900.0),
            "peak_rate": _log_uniform(rng, 10.0, 1e4),
            "total_counts": rng.randrange(1_000, 500_000),
            "mean_energy_kev": rng.uniform(5.0, 60.0),
            "significance": rng.uniform(3.0, 80.0),
            "n_analyses": n_ana,
        })
        for _ in range(n_ana):
            ana_id = len(analyses) + 1
            algorithm = rng.choice(("imaging", "lightcurve", "histogram"))
            analyses.append({
                "ana_id": ana_id,
                "item_id": f"ana:{ana_id}",
                "hle_id": hle_id,
                "owner": "bench",
                "public": True,
                "algorithm": algorithm,
                "executed_on": "server",
                "n_photons_used": rng.randrange(1_000, 200_000),
                "n_images": 1,
            })
            files.append({
                "file_id": ana_id,
                "item_id": f"ana:{ana_id}",
                "archive_id": "main",
                "rel_path": f"ana/{ana_id:08d}/image_00.pgm",
                "role": "image",
                "size_bytes": 4_096,
                "compressed": False,
            })
    catalogs = []
    members = []
    sizes = BROWSE_CATALOG_SIZES + WORK_CATALOG_SIZES
    for index, size in enumerate(sizes):
        catalog_id = index + 1
        work = index >= len(BROWSE_CATALOG_SIZES)
        size = min(size, n_events // 4)
        catalogs.append({
            "catalog_id": catalog_id,
            "item_id": f"cat:{catalog_id}",
            "owner": "bench",
            "public": True,
            "name": f"{'work' if work else 'survey'} {catalog_id}",
            "description": f"seeded catalogue {catalog_id}",
            "n_members": size,
            "work": work,
        })
        for hle_id in rng.sample(range(1, n_events + 1), size):
            members.append({"member_id": len(members) + 1,
                            "catalog_id": catalog_id, "hle_id": hle_id})
    return Catalogue(events, analyses, files, catalogs, members)


def load_catalogue(database, catalogue: Catalogue, owners: dict[str, int],
                   tick: Callable[[], None], batch_rows: int = 500) -> int:
    """Insert the catalogue in ``batch_rows``-row transactions, events in
    ``start_time`` order, calling ``tick`` after each; returns the number
    of rows written."""

    def rows() -> Iterator[tuple[str, dict[str, Any]]]:
        for event in catalogue.events:
            row = {key: value for key, value in event.items() if key != "owner"}
            row["owner_id"] = owners[event["owner"]]
            yield "hle", row
            yield "loc_tuples", {"tuple_ref": f"tuple:hle:{event['hle_id']}",
                                 "item_id": event["item_id"],
                                 "table_name": "hle"}
        for ana in catalogue.analyses:
            row = {key: value for key, value in ana.items() if key != "owner"}
            row["owner_id"] = owners[ana["owner"]]
            yield "ana", row
        for file_row in catalogue.files:
            yield "loc_files", file_row
        for catalog in catalogue.catalogs:
            row = {key: value for key, value in catalog.items()
                   if key not in ("owner", "work")}
            row["owner_id"] = owners[catalog["owner"]]
            yield "catalogs", row
        for member in catalogue.members:
            yield "catalog_members", member

    written = 0
    tx = database.begin()
    for table, row in rows():
        database.execute(Insert(table, row), tx=tx)
        written += 1
        if written % batch_rows == 0:
            database.commit(tx)
            tick()
            tx = database.begin()
    database.commit(tx)
    return written


class Ledger:
    """The catalogue as the logged-in user must see it."""

    def __init__(self, catalogue: Catalogue):
        self.n_seeded = len(catalogue.events)
        self.title: dict[int, str] = {}
        self.n_analyses: dict[int, int] = {}
        self.n_catalogs: dict[int, int] = {}
        self.rate: dict[int, float] = {}
        self.start: dict[int, float] = {}
        self.kind: dict[int, str] = {}
        self.kind_counts = {kind: 0 for kind in KINDS}
        #: Visible ids in start_time order of the seeded catalogue.
        self.visible: list[int] = []
        for event in catalogue.events:
            hle_id = event["hle_id"]
            self.n_analyses[hle_id] = event["n_analyses"]
            self.n_catalogs[hle_id] = 0
            if event["public"] or event["owner"] == "bench":
                self.visible.append(hle_id)
                self._show(hle_id, event["title"], event["kind"],
                           event["peak_rate"], event["start_time"])
        self.rates_sorted = sorted(self.rate.values())
        self.starts_sorted = sorted(self.start.values())
        self.browse_catalogs = [c["catalog_id"] for c in catalogue.catalogs
                                if not c["work"]]
        self.work_catalogs = [c["catalog_id"] for c in catalogue.catalogs
                              if c["work"]]
        self.catalog_name = {c["catalog_id"]: c["name"]
                             for c in catalogue.catalogs}
        self.catalog_members: dict[int, set[int]] = {
            c["catalog_id"]: set() for c in catalogue.catalogs}
        for member in catalogue.members:
            self.catalog_members[member["catalog_id"]].add(member["hle_id"])
            self.n_catalogs[member["hle_id"]] += 1

    def _show(self, hle_id: int, title: str, kind: str, rate: float,
              start: float) -> None:
        self.title[hle_id] = title
        self.kind[hle_id] = kind
        self.rate[hle_id] = rate
        self.start[hle_id] = start
        self.kind_counts[kind] += 1

    # -- writes (composed_rw) ------------------------------------------------

    def inserted(self, hle_id: int, fields: dict[str, Any]) -> None:
        self.n_analyses[hle_id] = 0
        self.n_catalogs[hle_id] = 0
        self.visible.append(hle_id)
        self._show(hle_id, fields["title"], fields["kind"],
                   fields["peak_rate"], fields["start_time"])
        bisect.insort(self.rates_sorted, fields["peak_rate"])
        bisect.insort(self.starts_sorted, fields["start_time"])

    def deleted(self, hle_id: int) -> None:
        rate = self.rate.pop(hle_id)
        start = self.start.pop(hle_id)
        del self.rates_sorted[bisect.bisect_left(self.rates_sorted, rate)]
        del self.starts_sorted[bisect.bisect_left(self.starts_sorted, start)]
        self.kind_counts[self.kind.pop(hle_id)] -= 1
        del self.title[hle_id]

    def filed(self, catalog_id: int, hle_id: int) -> None:
        self.catalog_members[catalog_id].add(hle_id)
        self.n_catalogs[hle_id] += 1

    # -- expectations --------------------------------------------------------

    def count_rate_at_least(self, min_rate: float) -> int:
        return len(self.rates_sorted) - bisect.bisect_left(self.rates_sorted,
                                                           min_rate)

    def count_started_between(self, low: float, high: float) -> int:
        return (bisect.bisect_right(self.starts_sorted, high)
                - bisect.bisect_left(self.starts_sorted, low))

    def visible_members(self, catalog_id: int) -> int:
        return sum(1 for hle_id in self.catalog_members[catalog_id]
                   if hle_id in self.title)


@dataclass
class Op:
    """One operation of a stream: what to send and what must come back."""

    cls: str                      # metric class: hle, search, catalog, ...
    path: str = ""                # request path
    post: Optional[dict[str, str]] = None  # POST parameters (else a GET)
    expect_status: int = 200
    expect_rows: Optional[int] = None     # result links on the page
    expect_texts: tuple[str, ...] = ()    # fragments the body must hold
    expect_location: Optional[str] = None  # redirect target, when known
    write: Optional[tuple] = None         # (method name, *args) on dm.semantic


HLE_LINK = b'<a href="/hedc/hle?id='


def hle_op(ledger: Ledger, hle_id: int) -> Op:
    return Op("hle", f"/hedc/hle?id={hle_id}", expect_texts=(
        f"<h2>{ledger.title[hle_id]}</h2>",
        f"<th>analyses</th><td>{ledger.n_analyses[hle_id]}</td>",
        f"<th>in catalogs</th><td>{ledger.n_catalogs[hle_id]}</td>",
    ))


def draw_hle_id(ledger: Ledger, rng: Random) -> int:
    """80 % from the most recent tenth of the seeded catalogue, 20 %
    uniformly, always an event the user can see."""
    visible = ledger.visible
    recent = len(visible) - len(visible) // 10
    while True:
        if rng.random() < 0.8:
            hle_id = visible[rng.randrange(recent, len(visible))]
        else:
            hle_id = visible[rng.randrange(len(visible))]
        if hle_id in ledger.title:
            return hle_id


class Schedule:
    """Labels drawn in seeded shuffles of one fixed cycle: the shares are
    exact over every cycle and only the order is random, so two runs do
    the same mix of work and a metric does not move with the luck of the
    draw."""

    def __init__(self, shares: dict[Any, int], rng: Random):
        self._cycle = [label for label, count in shares.items()
                       for _ in range(count)]
        self._rng = rng
        self._at = len(self._cycle)

    def next(self) -> Any:
        if self._at == len(self._cycle):
            self._rng.shuffle(self._cycle)
            self._at = 0
        label = self._cycle[self._at]
        self._at += 1
        return label


#: The read-only §7.2 mix, in twentieths: 70 % HLE page, 5 % each of
#: catalogue list, catalogue page, rate search, kind search, SQL search
#: and static file.
BROWSE_SHARES = {"hle": 14, "catalogs": 1, "catalog": 1, "rate": 1,
                 "kind": 1, "sql": 1, "static": 1}
#: composed_rw, in hundredths: 80 % the browse mix, 8 % insert_hle, 5 %
#: add_to_catalog, 4 % publish_hle, 3 % delete_hle.
READ_WRITE_SHARES = {**{label: 4 * count for label, count in BROWSE_SHARES.items()},
                     "insert": 8, "file": 5, "publish": 4, "delete": 3}
#: serve_wire, in twentieths: 60 % HLE page, 25 % rate search, 15 % static.
WIRE_SHARES = {"hle": 12, "rate": 5, "static": 3}
#: analyze, in twentieths: 45 % fresh analysis, 20 % exact repeat, 10 %
#: analysis page, 10 % image, 15 % HLE page.
ANALYZE_SHARES = {"fresh": 9, "repeat": 4, "ana": 2, "image": 2, "hle": 3}


class BrowseStream:
    """The read-only §7.2 mix (:data:`BROWSE_SHARES`)."""

    shares = BROWSE_SHARES

    def __init__(self, ledger: Ledger, seed: int):
        self.ledger = ledger
        self.rng = rng = Random(seed * 31 + 1)
        self._schedule = Schedule(self.shares, rng)
        self._rates = Schedule({rate: 1 for rate in MIN_RATE_GRID}, rng)
        self._kinds = Schedule({"flare": 8, "grb": 1, "quiet": 1}, rng)
        self._catalogs = Schedule({c: 1 for c in ledger.browse_catalogs}, rng)

    def page(self) -> Op:
        """One HLE page of an event the user can see."""
        return hle_op(self.ledger, draw_hle_id(self.ledger, self.rng))

    def read(self, label: str) -> Op:
        ledger = self.ledger
        if label == "hle":
            return self.page()
        if label == "catalogs":
            return Op("catalogs", "/hedc/catalogs",
                      expect_texts=tuple(ledger.catalog_name.values())[:2])
        if label == "catalog":
            catalog_id = self._catalogs.next()
            return Op("catalog", f"/hedc/catalog?id={catalog_id}",
                      expect_rows=ledger.visible_members(catalog_id),
                      expect_texts=(ledger.catalog_name[catalog_id],))
        if label == "rate":
            rate = self._rates.next()
            return Op("search", f"/hedc/search?min_rate={rate}",
                      expect_rows=min(100, ledger.count_rate_at_least(rate)))
        if label == "kind":
            kind = self._kinds.next()
            return Op("search", f"/hedc/search?kind={kind}",
                      expect_rows=min(100, ledger.kind_counts[kind]))
        if label == "sql":
            low = self.rng.uniform(0.0, SPAN_S - DAY_S)
            sql = ("SELECT * FROM hle WHERE start_time >= %r AND start_time <= %r "
                   "ORDER BY start_time ASC LIMIT 50" % (low, low + DAY_S))
            # An index range with a LIMIT: cheap, so timed apart from the
            # two scanning forms that make up the "search" class.
            return Op("search_sql", "/hedc/search?sql=" + sql.replace(" ", "+"),
                      expect_rows=min(50, ledger.count_started_between(
                          low, low + DAY_S)))
        return Op("static", "/static/logo.pgm")

    def next(self) -> Op:
        return self.read(self._schedule.next())


class ReadWriteStream(BrowseStream):
    """The browse mix interleaved with writes through ``dm.semantic``
    (:data:`READ_WRITE_SHARES`); a delete only ever takes an event this
    run inserted."""

    shares = READ_WRITE_SHARES

    def __init__(self, ledger: Ledger, seed: int):
        super().__init__(ledger, seed)
        self.unpublished: list[int] = []
        self.deletable: list[int] = []
        self.published: list[int] = []
        self.n_inserted = 0
        #: Every acknowledged write, in order: (method, arguments).
        self.log: list[tuple[str, tuple]] = []

    def next(self) -> Op:
        label = self._schedule.next()
        if label == "insert":
            return self.insert()
        if label == "file":
            catalog_id = self.rng.choice(self.ledger.work_catalogs)
            hle_id = draw_hle_id(self.ledger, self.rng)
            if hle_id in self.ledger.catalog_members[catalog_id]:
                return self.insert()
            return Op("write", write=("add_to_catalog", catalog_id, hle_id))
        if label == "publish":
            if not self.unpublished:
                return self.insert()
            return Op("write", write=("publish_hle", self.unpublished.pop(0)))
        if label == "delete":
            if not self.deletable:
                return self.insert()
            return Op("write", write=("delete_hle", self.deletable.pop(0)))
        return self.read(label)

    def insert(self, recent: bool = False) -> Op:
        """A new private event, 80 % of them in the most recent tenth of
        the mission (always, with ``recent``)."""
        rng = self.rng
        self.n_inserted += 1
        if recent or rng.random() < 0.8:
            start = rng.uniform(0.9 * SPAN_S, SPAN_S)
        else:
            start = rng.uniform(0.0, SPAN_S)
        kind = rng.choices(KINDS, KIND_WEIGHTS)[0]
        return Op("write", write=("insert_hle", {
            "public": False,
            "kind": kind,
            "title": f"{kind} filed {self.n_inserted}",
            "start_time": start,
            "end_time": start + rng.uniform(30.0, 900.0),
            "peak_rate": _log_uniform(rng, 10.0, 1e4),
        }))

    def acknowledged(self, op: Op, result: Any) -> None:
        """Update the ledger once the program acknowledged a write."""
        method, *args = op.write
        self.log.append((method, tuple(args)))
        if method == "insert_hle":
            self.ledger.inserted(result, args[0])
            self.unpublished.append(result)
            self.deletable.append(result)
        elif method == "add_to_catalog":
            catalog_id, hle_id = args
            self.ledger.filed(catalog_id, hle_id)
            if hle_id in self.deletable:
                self.deletable.remove(hle_id)   # members may not be deleted
        elif method == "publish_hle":
            self.published.append(args[0])
        elif method == "delete_hle":
            hle_id = args[0]
            self.ledger.deleted(hle_id)
            if hle_id in self.unpublished:
                self.unpublished.remove(hle_id)


class WireStream(BrowseStream):
    """``serve_wire`` (:data:`WIRE_SHARES`)."""

    shares = WIRE_SHARES


class AnalyzeStream:
    """``analyze`` (:data:`ANALYZE_SHARES`): fresh analyses are lightcurve,
    histogram and imaging in turn with parameters that never repeat by
    accident, repeats replay one of the last 64 fresh requests, HLE pages
    go to events whose analyses are fixed."""

    REPEAT_WINDOW = 64

    def __init__(self, titles: dict[int, str], page_events: list[int],
                 target_events: list[int], n_page_analyses: int, seed: int):
        self.rng = rng = Random(seed * 31 + 2)
        self._schedule = Schedule(ANALYZE_SHARES, rng)
        self._algorithms = Schedule(
            {"lightcurve": 1, "histogram": 1, "imaging": 1}, rng)
        self.titles = titles
        self.page_events = page_events
        self.target_events = target_events
        self.n_page_analyses = n_page_analyses
        #: (POST parameters, redirect location) of acknowledged fresh requests.
        self.recent: list[tuple[dict[str, str], str]] = []
        self.committed: list[int] = []
        self._used: set[tuple] = set()

    def _fresh(self) -> Op:
        rng = self.rng
        algorithm = self._algorithms.next()
        while True:
            params = {"hle": str(rng.choice(self.target_events)),
                      "algorithm": algorithm}
            if algorithm == "lightcurve":
                params["bin_width_s"] = repr(rng.uniform(0.5, 8.0))
            elif algorithm == "histogram":
                params["n_bins"] = str(rng.randint(16, 256))
            else:
                params["n_pixels"] = str(rng.randint(12, 40))
                params["extent_arcsec"] = repr(rng.uniform(1024.0, 4096.0))
            key = tuple(sorted(params.items()))
            if key not in self._used:      # integer parameters can collide
                self._used.add(key)
                return Op("analyze", "/hedc/analyze", post=params,
                          expect_status=302)

    def next(self) -> Op:
        rng = self.rng
        label = self._schedule.next()
        if label == "fresh" or not self.recent:
            return self._fresh()
        if label == "repeat":
            params, location = rng.choice(self.recent)
            return Op("analyze_cached", "/hedc/analyze", post=params,
                      expect_status=302, expect_location=location)
        if label == "ana":
            ana_id = rng.choice(self.committed)
            return Op("ana", f"/hedc/ana?id={ana_id}",
                      expect_texts=(f"<h2>Analysis {ana_id}:",))
        if label == "image":
            ana_id = rng.choice(self.committed)
            return Op("image", f"/hedc/image?item=ana:{ana_id}&index=0")
        return self.page()

    def page(self) -> Op:
        hle_id = self.rng.choice(self.page_events)
        return Op("hle", f"/hedc/hle?id={hle_id}", expect_texts=(
            f"<h2>{self.titles[hle_id]}</h2>",
            f"<th>analyses</th><td>{self.n_page_analyses}</td>",
            "<th>in catalogs</th><td>0</td>",
        ))

    def acknowledged(self, op: Op, location: str) -> None:
        """Remember a fresh analysis once its redirect came back."""
        self.recent.append((op.post, location))
        if len(self.recent) > self.REPEAT_WINDOW:
            self.recent.pop(0)
        self.committed.append(int(location.rsplit("=", 1)[1]))


# -- the observation (analyze) -------------------------------------------------

@dataclass
class Observation:
    """Packaged raw-data units plus the analysis windows inside them."""

    units: list
    n_photons: int
    #: (start, end) windows the benchmark files as events to analyse.
    windows: list[tuple[float, float]] = field(default_factory=list)


def make_observation(seed: int, directory: Path, quick: bool = False) -> Observation:
    """One observation of fixed shape: two M-class flares over a quiet
    background (about 300 000 photons; a tenth of that with ``quick``),
    packaged into gzipped FITS units.  Only the photon draws move with
    the seed, so the analysis cost does not."""
    from repro.rhessi import (ObservationPlan, SolarFlare, TelemetryGenerator,
                              package_units)

    rng = Random(seed)
    duration = 160.0
    plan = ObservationPlan(0.0, duration, background_rate=50.0)
    goes_class = "C" if quick else "M"
    for start in (20.0, 90.0):
        plan.add(SolarFlare(
            start=start, duration=60.0, goes_class=goes_class,
            position_arcsec=(rng.uniform(-600, 600), rng.uniform(-600, 600)),
        ))
    photons = TelemetryGenerator(plan, seed=seed).generate()
    units = package_units(photons, directory, prefix="hsi0000",
                          unit_target_photons=25_000 if quick else 100_000)
    # Twelve-second windows on the decay of each flare.  The three units
    # split the photons in thirds, near 44 s and 102 s; every window keeps
    # clear of both, so that each analysis reads exactly one unit whatever
    # the seed.
    windows = [(start + offset, start + offset + 12.0)
               for start in (20.0, 90.0)
               for offset in (26.0, 30.0, 34.0, 38.0, 42.0, 46.0)]
    return Observation(units, len(photons), windows)
