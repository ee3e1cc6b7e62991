"""The four workloads: build, drive, check, measure.

One call of :func:`run` is one run of one workload in the current
process: it generates the inputs from the seed, builds the deployment
(three to nine times, for the median set-up time), warms it up, drives it for
the measured window from a single generator thread, checks every
response, runs the workload's after-window checks and probes, and
returns the metrics.  With ``trace`` the layers are wrapped first and
the window is split into an untraced part (for the user-visible timings
and the tracing overhead) and a traced part (for the waterfall).
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from repro.metadb import Aggregate, Comparison, Select

import datagen
import deploy
import probe_tax
import speed
from metrics import END_TO_END, PER_LAYER, USER_VISIBLE_TIMINGS, quantile
from trace import SPAN_NAMES, Tracer

#: Builds per run: at least three, and for a deployment that builds in a
#: fraction of a second (serve_wire, analyze) more, up to nine, while all of
#: them together have taken under two seconds - a quarter-second build of
#: which 10 to 110 ms are spent waiting for a shared disk is not steady in
#: three.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUPS_BUDGET_S = 2.0
WARMUP_OPS = 200
N_SLICES = 5

#: Catalogue sizes (events).  The composed stack writes every row to two
#: copies with an fsync per 500-row transaction and is built three times
#: a run, so it is seeded with a quarter of the plain catalogue.
N_EVENTS = {"browse_plain": 16_000, "composed_rw": 4_000, "serve_wire": 2_000}
N_EVENTS_QUICK = 1_000

#: serve_wire: offered rates of the two phases and the length of phase B.
RATE_A = 100.0
RATE_B = 400.0
PHASE_B_S = 5.0
#: Phase A: requests the generator lets be outstanding at once.  Far above
#: what 100 req/s needs (three in flight on average) and below the pool's
#: 8 workers + 32 queue places: when the whole machine stalls for a second,
#: the hundred requests that fell due meanwhile are sent as places free up,
#: not in one burst that admission control would (rightly) shed and this
#: benchmark would count as failed.  Each is still timed from its due time.
MAX_OUTSTANDING = 24

#: Share of a traced run spent untraced: its user-visible timings, and the
#: reference for the tracing overhead.
UNTRACED_SHARE = 0.4

CATCHUP_WRITES = 200
COUNT_PROBE_PAGES = 20
TAX_PROBE_PAGES = 300


# -- samples -------------------------------------------------------------------

@dataclass
class Window:
    """What one driven window produced."""

    seconds: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: class -> latencies (s) of correct operations, the same at reference
    #: speed (``speed.py``), and when each ended (s since the window started).
    latency: dict[str, list[float]] = field(default_factory=dict)
    normal: dict[str, list[float]] = field(default_factory=dict)
    ended: dict[str, list[float]] = field(default_factory=dict)
    #: Kernel readings (s) taken between the operations of a closed loop.
    readings: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: serve_wire: latencies by admission class, beside those by route.
    by_admission_class: dict[str, list[float]] = field(default_factory=dict)

    def ok(self, cls: str, latency_s: float, ended_s: float,
           stretch: float = 1.0) -> None:
        """``stretch``: by how much the machine's state stretched the
        operation (``speed.factor``); 1 where the wall clock is the truth."""
        self.latency.setdefault(cls, []).append(latency_s)
        self.normal.setdefault(cls, []).append(latency_s / stretch)
        self.ended.setdefault(cls, []).append(ended_s)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    @property
    def n_ok(self) -> int:
        return sum(len(values) for values in self.latency.values())

    def rate(self) -> float:
        """Correct operations per second of the window."""
        return self.n_ok / self.seconds

    def slowdown_over(self, other: "Window") -> float:
        """How much longer this window's operations took than the same
        classes of operation took in ``other`` (both at reference speed),
        weighting each class by its count here so that a different mix
        does not read as a different speed."""
        mine = theirs = 0.0
        for cls, values in self.normal.items():
            reference = other.normal.get(cls)
            if reference:
                mine += sum(values)
                theirs += len(values) * sum(reference) / len(reference)
        return mine / theirs - 1.0

    def summary(self, cls: str) -> dict[str, Any]:
        """Count, p10/p50/p95/p99 of a class, its p10 and p50 at reference
        speed, and the spread of its median over five equal slices of the
        window, in milliseconds."""
        values, ends = self.latency[cls], self.ended[cls]
        ordered = sorted(values)
        normal = sorted(self.normal[cls])
        slices: list[list[float]] = [[] for _ in range(N_SLICES)]
        for value, ended in zip(values, ends):
            index = min(N_SLICES - 1, int(N_SLICES * ended / self.seconds))
            slices[index].append(value)
        medians = [quantile(sorted(part), 0.5) * 1e3 for part in slices if part]
        return {
            "n": len(ordered),
            "p10_ms": quantile(ordered, 0.10) * 1e3,
            "p50_ms": quantile(ordered, 0.50) * 1e3,
            "p95_ms": quantile(ordered, 0.95) * 1e3,
            "p99_ms": quantile(ordered, 0.99) * 1e3,
            "norm_p10_ms": quantile(normal, 0.10) * 1e3,
            "norm_p50_ms": quantile(normal, 0.50) * 1e3,
            "slice_p50_min_ms": min(medians),
            "slice_p50_max_ms": max(medians),
        }


def check_response(op: datagen.Op, response) -> Optional[str]:
    """None when the response is what the generator expects."""
    if response.status != op.expect_status:
        return f"{op.cls} {op.path}: status {response.status}"
    body = response.body
    if response.status == 200 and not body:
        return f"{op.cls} {op.path}: empty body"
    for text in op.expect_texts:
        if text.encode("utf-8") not in body:
            return f"{op.cls} {op.path}: page lacks {text!r}"
    if op.expect_rows is not None and body.count(datagen.HLE_LINK) != op.expect_rows:
        return (f"{op.cls} {op.path}: {body.count(datagen.HLE_LINK)} rows, "
                f"expected {op.expect_rows}")
    if op.expect_location is not None and \
            response.headers.get("Location") != op.expect_location:
        return f"{op.cls}: redirect {response.headers.get('Location')!r}"
    return None


# -- generators ----------------------------------------------------------------

def drive_closed(dep: deploy.Deployment, stream, seconds: float,
                 max_ops: Optional[int] = None) -> Window:
    """One client, zero think time: the next operation is sent when the
    previous one returned and the reference kernel has been read (the
    reading is not part of any latency, nor of the window's length).
    Stops after ``seconds`` (or ``max_ops``)."""
    window = Window()
    web, dm, user = dep.web, dep.dm, dep.user
    io_stats = dm.io.stats
    acknowledged = getattr(stream, "acknowledged", None)
    readings = window.readings
    kernel_s = 0.0      # spent reading the kernel since the window started
    gc.collect()
    before = speed.reading()
    cpu_started = time.process_time()
    started = perf_counter()
    deadline = started + seconds
    while True:
        if perf_counter() >= deadline or (
                max_ops is not None and window.attempted >= max_ops):
            break
        op = stream.next()
        window.attempted += 1
        problem = response = result = None
        if op.write is not None:
            cls = "write"
            method, *args = op.write
            edits = io_stats.edits
            t0 = perf_counter()
            try:
                result = getattr(dm.semantic, method)(user, *args)
            except Exception as exc:   # a failed write is a failed operation
                problem = f"write {method}: {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        else:
            cls = op.cls
            request = (dep.get(op.path) if op.post is None
                       else dep.post(op.path, op.post))
            t0 = perf_counter()
            response = web.handle(request)
            t1 = perf_counter()
            problem = check_response(op, response)
        after = speed.reading()
        readings.append(after)
        stretch = speed.factor(before, after, cls)
        before = after
        ended = t1 - started - kernel_s
        kernel_s += after
        if problem is not None:
            window.fail(problem)
            continue
        window.ok(cls, t1 - t0, ended, stretch)
        if op.write is not None:
            acknowledged(op, result)
            window.add("edits", io_stats.edits - edits)
        else:
            if cls == "hle":
                window.add("hle_bytes", response.size)
            elif cls == "analyze":
                acknowledged(op, response.headers["Location"])
            window.add("rows_shown", 1 if op.expect_rows is None
                       else op.expect_rows)
    # The kernel is pure computation: its wall time is its CPU time.
    window.seconds = perf_counter() - started - kernel_s
    window.cpu_s = time.process_time() - cpu_started - kernel_s
    return window


def drive_open(dep: deploy.Deployment, stream, rate: float, seconds: float,
               tolerate_shed: bool = False) -> Window:
    """A fixed-rate arrival process over ``WebServer.submit`` from this
    thread.  Every latency runs from the moment the request was *due*, so
    a stall charges the requests it delayed; how late the generator ran
    is kept beside it.  Unless shedding is the point (``tolerate_shed``),
    at most ``MAX_OUTSTANDING`` requests are outstanding at once."""
    window = Window()
    web = dep.web
    interval = 1.0 / rate
    n_requests = max(1, int(seconds * rate))
    in_flight = []
    gc.collect()
    # A page here is three charged sleeps and a tenth of that in computing:
    # the wall clock is the truth, and the machine's speed is only recorded.
    window.readings.append(speed.reading(15))
    cpu_started = time.process_time()
    started = perf_counter() + 0.01
    settled = 0     # in_flight[:settled] have their responses
    for index in range(n_requests):
        op = stream.next()
        request = dep.get(op.path)
        due = started + index * interval
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        while settled < index:
            oldest = in_flight[settled][3]
            if not oldest.done:
                if tolerate_shed or index - settled < MAX_OUTSTANDING:
                    break
                oldest.result(30.0)     # wait for a place
            settled += 1
        submitted = perf_counter()
        in_flight.append((op, due, submitted, web.submit(request)))
    drain_deadline = perf_counter() + 30.0
    late: list[float] = []
    waits: list[float] = []
    for op, due, submitted, task in in_flight:
        response = task.result(max(0.0, drain_deadline - perf_counter()))
        window.attempted += 1
        window.add(f"sent.{task.request_class}", 1)
        late.append(submitted - due)
        if response is None:
            window.fail(f"{op.cls} {op.path}: no response within the drain")
            continue
        waits.append(task.wait_s)
        if tolerate_shed and response.status == 503:
            window.add(f"shed.{task.request_class}", 1)
            continue
        problem = check_response(op, response)
        if problem is not None:
            window.fail(problem)
            continue
        window.ok(op.cls, task.resolved_at - due, task.resolved_at - started)
        window.by_admission_class.setdefault(task.request_class, []).append(
            task.resolved_at - due)
        if op.cls == "hle":
            window.add("hle_bytes", response.size)
    # The time it took to serve the offered load: first due time to last
    # response, a little over the nominal length.
    window.seconds = max(task.resolved_at or perf_counter()
                         for _op, _due, _submitted, task in in_flight) - started
    window.cpu_s = time.process_time() - cpu_started
    window.readings.append(speed.reading(15))
    window.counters["late_p95_ms"] = quantile(sorted(late), 0.95) * 1e3
    window.counters["wait_p95_ms"] = (quantile(sorted(waits), 0.95) * 1e3
                                      if waits else 0.0)
    return window


# -- workload definitions ------------------------------------------------------

@dataclass
class Workload:
    name: str
    make_inputs: Callable[[int, Path, bool], Any]
    build: Callable[..., deploy.Deployment]
    make_stream: Callable[[deploy.Deployment, Any, int], Any]
    open_loop: bool = False


def _catalogue_inputs(name: str):
    def make(seed: int, base: Path, quick: bool):
        n_events = N_EVENTS_QUICK if quick else N_EVENTS[name]
        return datagen.make_catalogue(seed, n_events)
    return make


def _analyze_stream(dep: deploy.Deployment, inputs, seed: int):
    extra = dep.extra
    return datagen.AnalyzeStream(
        extra["events"], extra["page_events"], extra["target_events"],
        len(deploy.PAGE_EVENT_ANALYSES), seed)


WORKLOADS = {
    "browse_plain": Workload(
        "browse_plain", _catalogue_inputs("browse_plain"), deploy.build_plain,
        lambda dep, cat, seed: datagen.BrowseStream(datagen.Ledger(cat), seed)),
    "composed_rw": Workload(
        "composed_rw", _catalogue_inputs("composed_rw"), deploy.build_composed,
        lambda dep, cat, seed: datagen.ReadWriteStream(datagen.Ledger(cat), seed)),
    "serve_wire": Workload(
        "serve_wire", _catalogue_inputs("serve_wire"), deploy.build_wire,
        lambda dep, cat, seed: datagen.WireStream(datagen.Ledger(cat), seed),
        open_loop=True),
    "analyze": Workload(
        "analyze",
        lambda seed, base, quick: datagen.make_observation(
            seed, base / "incoming", quick),
        deploy.build_analyze, _analyze_stream),
}


# -- one run -------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, quick: bool,
        out_dir: Path) -> dict[str, Any]:
    """Run one workload once; returns the result document."""
    workload = WORKLOADS[name]
    base = out_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        return _run(workload, seed, seconds, tracer, quick, base, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(base, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float,
         tracer: Optional[Tracer], quick: bool, base: Path,
         out_dir: Path) -> dict[str, Any]:
    name = workload.name
    inputs = workload.make_inputs(seed, base, quick)

    # Set-up, several times; the last build is the one that is driven.
    # Each build is timed in reference-speed seconds: it calls ``tick``
    # between its stages and after every seeded transaction.
    setup_times = []
    setup_wall_times = []
    dep: Optional[deploy.Deployment] = None
    while len(setup_times) < MIN_SETUPS or (
            len(setup_times) < MAX_SETUPS
            and sum(setup_wall_times) < SETUPS_BUDGET_S):
        if dep is not None:
            dep.close()
            dep = None
            gc.collect()
        # Only the pool's scheduler plug point needs to know the tracer.
        build_args = (tracer,) if workload.open_loop else ()
        meter = speed.Meter(name)
        meter.tick()
        dep = workload.build(base / f"setup{len(setup_times)}", inputs,
                             meter.tick, *build_args)
        meter.tick()
        setup_times.append(meter.normal_s)
        setup_wall_times.append(meter.wall_s)
    assert dep is not None

    try:
        stream = workload.make_stream(dep, inputs, seed)
        if workload.open_loop:
            def drive(length: float) -> Window:
                return drive_open(dep, stream, RATE_A, length)
            drive(WARMUP_OPS / RATE_A)
        else:
            def drive(length: float) -> Window:
                return drive_closed(dep, stream, length)
            drive_closed(dep, stream, 60.0, max_ops=WARMUP_OPS)

        untraced: Optional[Window] = None
        if tracer is not None:
            untraced = drive(seconds * UNTRACED_SHARE)
            seconds *= 1.0 - UNTRACED_SHARE
            tracer.enabled = True
        before = _counters(dep)
        window = drive(seconds)
        after = _counters(dep)
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()      # the probes below run unwrapped
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layer: dict[str, float] = {}
        checks: dict[str, Any] = {}
        _count_probe(dep, stream, layer)
        if name == "serve_wire" and tracer is not None:
            _overload_phase(dep, stream, layer, quick)
        if name == "composed_rw":
            _composed_checks(dep, inputs, stream, window, layer, checks,
                             tracer is not None)
        if name == "analyze":
            _analyze_checks(dep, stream, window, checks)
        if name == "browse_plain" and tracer is not None:
            layer.update(probe_tax.run(dep, inputs, stream, base / "tax"))
    finally:
        dep.close()

    layer["bench.setup_wall_s"] = statistics.median(setup_wall_times)
    return _document(name, tracer, window, untraced, setup_times, peak_rss_mb,
                     before, after, layer, checks, dep, out_dir)


# -- counters read from the program's public surface ---------------------------

def _groups(database) -> list:
    """The replica groups of a sharded, replicated database."""
    if not hasattr(database, "shard_map"):
        return []
    return [database.shard_db(spec.shard_id) for spec in database.shard_map]


def _journal_bytes(workdir: Path) -> int:
    return sum(path.stat().st_size for path in workdir.rglob("journal.jsonl"))


def _counters(dep: deploy.Deployment) -> dict[str, float]:
    registry = dep.obs.registry
    database = dep.database
    io_stats = dep.dm.io.stats
    values = {
        "bytes_written": io_stats.bytes_written,
        "rows_read": database.stats.rows_read,
        "fsyncs": registry.family_total("metadb.wal.fsyncs"),
        "shipped_records": registry.family_total("repl.shipped_records"),
        "segments_pruned": registry.family_total("metadb.columnar.segments_pruned"),
        "segments_scanned": registry.family_total("metadb.columnar.segments_scanned"),
        "cache_hits": registry.family_total("pl.product_cache.hits"),
        "cache_misses": registry.family_total("pl.product_cache.misses"),
        "journal_bytes": _journal_bytes(dep.workdir),
    }
    if dep.hedc is not None:
        frontend = dep.hedc.frontend.stats()
        values["pl_queries"] = frontend["queries"]
        values["pl_edits"] = frontend["edits"]
    routes = getattr(database, "route_counts", None)
    if routes is not None:
        for kind, count in routes.items():
            values[f"route.{kind}"] = count
        values["shard_reads"] = sum(database.reads_by_shard.values())
    follower = total = 0
    for group in _groups(database):
        for copy, reads in group.reads_by_copy.items():
            total += reads
            if copy != group.primary.name:
                follower += reads
    values["reads_follower"] = follower
    values["reads_all_copies"] = total
    return values


def _count_probe(dep: deploy.Deployment, stream, layer: dict[str, float]) -> None:
    """Queries and round trips of one HLE page, counted over a few pages
    fetched one after the other (exact with one client)."""
    pages = [stream.page() for _ in range(COUNT_PROBE_PAGES)]
    stats = dep.dm.io.stats
    queries, trips = stats.queries, stats.round_trips
    for op in pages:
        dep.web.handle(dep.get(op.path))
    layer["dm.io.queries_per_page"] = (stats.queries - queries) / len(pages)
    layer["dm.io.round_trips_per_page"] = (stats.round_trips - trips) / len(pages)
    layer["dm.session.hit_ratio"] = float(dep.dm.sessions.hit_ratio)


# -- serve_wire: overload ------------------------------------------------------

def _overload_phase(dep: deploy.Deployment, stream, layer: dict[str, float],
                    quick: bool) -> None:
    """Phase B: 400 req/s, four times what the pool sustains.  Shedding
    is the designed outcome here, so it is reported, not failed."""
    length = 2.0 if quick else PHASE_B_S
    window = drive_open(dep, stream, RATE_B, length, tolerate_shed=True)
    prefix = "web.scheduler.overload_"
    layer[prefix + "goodput_rps"] = window.n_ok / window.seconds
    priority = sorted(window.by_admission_class.get("analysis", []))
    layer[prefix + "priority_p95_ms"] = (quantile(priority, 0.95) * 1e3
                                         if priority else 0.0)
    for cls in ("browse", "analysis", "bulk"):
        sent = window.counters.get(f"sent.{cls}", 0.0)
        shed = window.counters.get(f"shed.{cls}", 0.0)
        layer[f"{prefix}shed_share.{cls}"] = shed / sent if sent else 0.0


# -- composed_rw: oracle, catch-up, reopen -------------------------------------

#: Filled in by the program with the wall clock; not part of a row's identity.
CLOCK_COLUMNS = ("created_at", "updated_at", "added_at")


def table_digest(database, table: str) -> tuple[int, int]:
    """Row count and an order-independent checksum of a table."""
    rows = database.execute(Select(table))
    total = 0
    for row in rows:
        text = repr(sorted((key, value) for key, value in row.items()
                           if key not in CLOCK_COLUMNS))
        total += int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")
    return len(rows), total % (1 << 64)


def _composed_checks(dep: deploy.Deployment, catalogue, stream, window: Window,
                     layer: dict[str, float], checks: dict[str, Any],
                     probes: bool) -> None:
    database = dep.database
    if probes:
        _catchup_probe(dep, stream, layer)
    layer["repl.lag_max"] = float(max(
        (replica["lag"] for group in _groups(database)
         for replica in group.repl_report()["replicas"]), default=0))

    # Oracle: every acknowledged write, in order, replayed into one plain
    # in-memory Database seeded with the same rows.
    twin = deploy.build_plain(dep.workdir.parent / "oracle", catalogue,
                              deploy.no_tick)
    try:
        for method, args in stream.log:
            getattr(twin.dm.semantic, method)(twin.user, *args)
        mismatches = []
        digests = {}
        for table in ("hle", "catalog_members", "loc_tuples"):
            digests[table] = table_digest(database, table)
            expected = table_digest(twin.database, table)
            if digests[table] != expected:
                mismatches.append(f"{table}: {digests[table]} != oracle {expected}")
        checks["oracle_tables"] = {table: digest[0]
                                   for table, digest in digests.items()}
        if probes:
            layer["composed.read_tax_ratio"] = _read_tax(dep, twin, stream)
        logical_rows = sum(len(twin.database.table(table))
                           for table in twin.database.table_names())
    finally:
        twin.close()

    # Durability: checkpoint, close, reopen from disk, compare again.
    database.checkpoint()
    disk_bytes = sum(path.stat().st_size
                     for path in (dep.workdir / "db").rglob("*") if path.is_file())
    layer["metadb.disk_bytes_per_row"] = disk_bytes / logical_rows
    database.close()
    reopened = deploy.open_composed(dep.workdir)
    try:
        for table, digest in digests.items():
            again = table_digest(reopened, table)
            if again != digest:
                mismatches.append(f"{table}: {again} after reopen != {digest}")
        ledger = stream.ledger
        rows = reopened.execute(Select(
            "hle", where=Comparison("hle_id", ">", ledger.n_seeded)))
        found = {row["hle_id"]: row for row in rows}
        expected_ids = {hle_id for hle_id in ledger.title
                        if hle_id > ledger.n_seeded}
        if set(found) != expected_ids:
            mismatches.append(
                f"reopen: {len(found)} inserted events readable, "
                f"{len(expected_ids)} acknowledged and not deleted")
        for hle_id in stream.published:
            if hle_id in found and not found[hle_id]["public"]:
                mismatches.append(f"reopen: event {hle_id} lost its publication")
        for catalog_id in ledger.work_catalogs:
            members = reopened.execute(Select(
                "catalog_members",
                where=Comparison("catalog_id", "=", catalog_id),
                aggregates=[Aggregate("count", "*", "n")]))[0]["n"]
            if members != len(ledger.catalog_members[catalog_id]):
                mismatches.append(
                    f"reopen: catalogue {catalog_id} has {members} members, "
                    f"{len(ledger.catalog_members[catalog_id])} acknowledged")
    finally:
        reopened.close()
        dep.database = None      # already closed; Deployment.close skips it
    checks["writes_replayed"] = len(stream.log)
    checks["mismatches"] = mismatches
    for mismatch in mismatches:
        window.fail(mismatch)


def _catchup_probe(dep: deploy.Deployment, stream, layer: dict[str, float]) -> None:
    """Kill one follower of the most recent shard, write past it and
    rejoin it by log replay; then the same again with the retained log
    dropped, which forces the full re-sync."""
    group = _groups(dep.database)[-1]
    follower = group.replicas[0].name

    def fall_behind(n_writes: int) -> None:
        group.kill_replica(follower)
        for _ in range(n_writes):
            op = stream.insert(recent=True)
            result = dep.dm.semantic.insert_hle(dep.user, *op.write[1:])
            stream.acknowledged(op, result)

    def rejoin(expected_mode: str) -> float:
        started = perf_counter()
        outcome = group.rejoin_replica(follower)
        elapsed = perf_counter() - started
        if outcome["mode"] != expected_mode:
            raise RuntimeError(f"catch-up took the {outcome['mode']} path, "
                               f"not {expected_mode}")
        return elapsed

    fall_behind(CATCHUP_WRITES)
    # Each insert_hle is one transaction on this shard.
    layer["repl.catchup.replay_ms_per_tx"] = (
        1e3 * rejoin("log_replay") / CATCHUP_WRITES)
    fall_behind(CATCHUP_WRITES // 10)
    group.log.truncate_to(group.log.head_lsn)
    layer["repl.catchup.resync_ms"] = 1e3 * rejoin("full_resync")


def _read_tax(dep: deploy.Deployment, twin: deploy.Deployment, stream) -> float:
    """HLE page median on the composed stack over the median on the
    plain twin, the same pages alternating between the two."""
    composed: list[float] = []
    plain: list[float] = []
    for _ in range(TAX_PROBE_PAGES):
        op = stream.page()
        for target, samples in ((dep, composed), (twin, plain)):
            request = target.get(op.path)
            t0 = perf_counter()
            target.web.handle(request)
            samples.append(perf_counter() - t0)
    return quantile(sorted(composed), 0.5) / quantile(sorted(plain), 0.5)


# -- analyze: every redirect resolves ------------------------------------------

def _analyze_checks(dep: deploy.Deployment, stream, window: Window,
                    checks: dict[str, Any]) -> None:
    """Every analysis the run was redirected to is a committed ``ana`` row
    with a non-empty image behind it."""
    dm, user = dep.dm, dep.user
    bad = []
    for ana_id in stream.committed:
        try:
            row = dm.semantic.get_analysis(user, ana_id)
            names = dm.io.names.resolve_files(f"ana:{ana_id}", role="image")
            if row["status"] != "committed" or not names \
                    or not dm.io.read_item(names[0]):
                bad.append(ana_id)
        except Exception as exc:
            bad.append(ana_id)
            checks.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
    checks["analyses_verified"] = len(stream.committed)
    checks["analyses_bad"] = bad[:10]
    for ana_id in bad:
        window.fail(f"analysis {ana_id} is not committed with an image")


# -- result document -----------------------------------------------------------

def _document(name, tracer, window: Window, untraced: Optional[Window],
              setup_times, peak_rss_mb, before, after, layer, checks, dep,
              out_dir) -> dict:
    # Timings a user would see never come from a traced window: a traced
    # run takes them from its untraced part.  Counts come from ``window``.
    timed = untraced if untraced is not None else window
    classes = {cls: timed.summary(cls) for cls in sorted(timed.latency)}
    if "hle" not in classes:
        raise RuntimeError(f"{name}: no correct HLE page in the window")

    setup_s = statistics.median(setup_times)
    values = {
        "setup_s": setup_s,
        "hle_page_p10_ms": classes["hle"]["norm_p10_ms"],
        "mix_op_p10_ms": sum(summary["n"] * summary["norm_p10_ms"]
                             for summary in classes.values()) / timed.n_ok,
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {metric.name: {"value": values[metric.name], "unit": metric.unit}
                  for metric in END_TO_END}

    delta = {key: after[key] - before.get(key, 0) for key in after}
    n_writes = len(window.latency.get("write", ()))
    n_fresh = len(window.latency.get("analyze", ()))
    n_hle = len(window.latency.get("hle", ()))

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    attempted = window.attempted + (untraced.attempted if untraced else 0)
    failed = window.failed + (untraced.failed if untraced else 0)
    failures = (untraced.failures if untraced else []) + window.failures
    routed = sum(value for key, value in delta.items() if key.startswith("route."))
    layer = dict(layer)
    layer.update({
        "req_per_s": timed.rate(),
        "fail_share": failed / attempted,
        "hle_page_p99_ms": classes["hle"]["p99_ms"],
        "cpu_ms_per_req": 1e3 * timed.cpu_s / timed.attempted,
        "bench.speed_factor": statistics.median(timed.readings)
        / speed.REFERENCE_S,
        "dm.io.edits_per_write": per(window.counters.get("edits", 0), n_writes),
        "metadb.rows_read_per_row_returned": per(
            delta["rows_read"], window.counters.get("rows_shown", 0)),
        "metadb.columnar.segments_pruned_share": per(
            delta["segments_pruned"],
            delta["segments_pruned"] + delta["segments_scanned"]),
        "metadb.wal.fsyncs_per_write": per(delta["fsyncs"], n_writes),
        "metadb.wal.bytes_per_write": per(delta["journal_bytes"], n_writes),
        "shard.route.pruned_share": per(delta.get("route.pruned", 0), routed),
        "shard.route.scatter_share": per(delta.get("route.scatter", 0), routed),
        "shard.shards_touched_per_select": per(delta.get("shard_reads", 0), routed),
        "repl.reads_follower_share": per(delta["reads_follower"],
                                         delta["reads_all_copies"]),
        "repl.ship.records_per_write": per(delta["shipped_records"], n_writes),
        "web.scheduler.wait_p95_ms": timed.counters.get("wait_p95_ms", 0.0),
        "web.scheduler.late_p95_ms": timed.counters.get("late_p95_ms", 0.0),
        "web.bytes_per_page": per(window.counters.get("hle_bytes", 0), n_hle),
        "pl.product_cache.hit_ratio": per(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "pl.queries_per_analysis": per(delta.get("pl_queries", 0), n_fresh),
        "pl.edits_per_analysis": per(delta.get("pl_edits", 0), n_fresh),
        "filestore.bytes_written_per_analysis": per(
            delta["bytes_written"] if name == "analyze" else 0, n_fresh),
    })
    for metric, (cls, key, _on, _doc) in USER_VISIBLE_TIMINGS.items():
        layer[metric] = classes[cls][key] if cls in classes else 0.0
    if name == "analyze":
        extra = dep.extra
        layer["dm.process.load_unit_ms"] = 1e3 * extra["load_unit_s"] / extra["n_units"]
        layer["dm.process.photons_per_s"] = extra["n_photons"] / extra["load_unit_s"]
    waterfall: dict[str, dict[str, float]] = {}
    trace_file = None
    if tracer is not None:
        assert untraced is not None
        layer["bench.trace_overhead_share"] = window.slowdown_over(untraced)
        waterfall = tracer.waterfall(window.attempted)
        trace_file = out_dir / f"trace-{name}.jsonl"
        tracer.write(trace_file)
    for span in SPAN_NAMES:
        entry = waterfall.get(span, {"self_ms": 0.0, "calls": 0.0})
        layer[f"{span}.self_ms"] = entry["self_ms"]
        layer[f"{span}.calls"] = entry["calls"]
    per_layer = {metric.name: {"value": float(layer.get(metric.name, 0.0)),
                               "unit": metric.unit}
                 for metric in PER_LAYER}

    return {
        "workload": name,
        "trace": tracer is not None,
        "window_s": window.seconds,
        "untraced_window_s": untraced.seconds if untraced is not None else None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "classes": classes,
        "checks": checks,
        "trace_file": str(trace_file) if trace_file else None,
        "trace_self_time_excess_ms": (tracer.self_time_excess() * 1e3
                                      if tracer is not None else None),
    }
