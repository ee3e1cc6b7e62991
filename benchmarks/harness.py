"""Command-line harness: regenerate every table and figure of the paper.

Usage::

    python benchmarks/harness.py            # everything
    python benchmarks/harness.py fig4       # one experiment
    python benchmarks/harness.py fig5 table1-imaging table1-histogram
    python benchmarks/harness.py table2 table3 sec72 sec63 sec43

Each experiment prints the paper's published values next to the measured
ones.  Absolute numbers are not expected to match (the substrate is a
simulator, not the 2003 testbed); the shape is.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path


def run_fig4() -> None:
    from repro.evalmodel import figure4_series, print_figure4

    print(print_figure4(figure4_series()))
    print("paper: ~16.5 req/s at 16 clients degrading to ~3 req/s at 96\n")


def run_fig5() -> None:
    from repro.evalmodel import figure5_series, print_figure5

    print(print_figure5(figure5_series()))
    print("paper: 3 req/s at 1 node rising to 18 req/s (~120 db q/s) at 5\n")


def run_table1_imaging() -> None:
    from repro.evalmodel import print_table1, table1_imaging

    print(print_table1(table1_imaging()))
    print("paper: S/1 6027s 0.8GB/d 109s | S/2 3117 1.5 56 | "
          "C/1 2059 2.3 37 | S+C 1380 3.5 24\n")


def run_table1_histogram() -> None:
    from repro.evalmodel import print_table1, table1_histogram

    print(print_table1(table1_histogram()))
    print("paper: S/1 960s 4.6GB/d 115s | S/2 655 6.8 74 | C/1 841 5.3 98 | "
          "C/cached 821 5.4 90 | S+C 438 10.0 40\n")


def _build_stack():
    from repro.core import Hedc

    workdir = Path(tempfile.mkdtemp(prefix="hedc-harness-"))
    hedc = Hedc.create(workdir)
    hedc.ingest_observation(duration_s=900.0, seed=31, unit_target_photons=120_000)
    user = hedc.register_user("harness", "pw")
    return hedc, user


def run_table2() -> None:
    from repro.pl import AnalysisRequest, Phase

    hedc, user = _build_stack()
    events = hedc.events()
    n_requests = 12
    start_queries = hedc.frontend.context.queries
    start_edits = hedc.frontend.context.edits
    output_bytes = 0
    started = time.perf_counter()
    for index in range(n_requests):
        event = events[index % len(events)]
        request = AnalysisRequest(user, event["hle_id"], "imaging",
                                  {"n_pixels": 16, "force": True})
        hedc.frontend.run(request)
        assert request.phase is Phase.COMMITTED, request.error
        stored = hedc.dm.semantic.get_analysis(user, request.ana_id)
        output_bytes += stored["output_bytes"]
    elapsed = time.perf_counter() - started
    queries = hedc.frontend.context.queries - start_queries
    edits = hedc.frontend.context.edits - start_edits
    print("Table 2 (imaging characteristics, volume-scaled, REAL stack)")
    print(f"{'':24}{'paper':>12}{'measured':>12}")
    print(f"{'Requests':24}{100:>12}{n_requests:>12}")
    print(f"{'Queries':24}{300:>12}{queries:>12}")
    print(f"{'Edits':24}{200:>12}{edits:>12}")
    print(f"{'Output':24}{'5.5 MB':>12}{output_bytes:>12,}")
    print(f"(wall: {elapsed:.1f}s)\n")


def run_table3() -> None:
    from repro.pl import AnalysisRequest, Phase

    hedc, user = _build_stack()
    events = hedc.events()
    n_requests = 18
    start_queries = hedc.frontend.context.queries
    start_edits = hedc.frontend.context.edits
    output_bytes = 0
    for index in range(n_requests):
        event = events[index % len(events)]
        request = AnalysisRequest(user, event["hle_id"], "histogram",
                                  {"n_bins": 64, "force": True})
        hedc.frontend.run(request)
        assert request.phase is Phase.COMMITTED, request.error
        stored = hedc.dm.semantic.get_analysis(user, request.ana_id)
        output_bytes += stored["output_bytes"]
    queries = hedc.frontend.context.queries - start_queries
    edits = hedc.frontend.context.edits - start_edits
    print("Table 3 (histogram characteristics, volume-scaled, REAL stack)")
    print(f"{'':24}{'paper':>12}{'measured':>12}")
    print(f"{'Requests':24}{150:>12}{n_requests:>12}")
    print(f"{'Queries':24}{450:>12}{queries:>12}")
    print(f"{'Edits':24}{300:>12}{edits:>12}")
    print(f"{'Output':24}{'1.2 MB':>12}{output_bytes:>12,}")
    print()


def run_sec72() -> None:
    from repro.web import ThinClient

    hedc, _user = _build_stack()
    client = ThinClient(hedc.web)
    client.login("harness", "pw")
    events = hedc.events()
    io_stats = hedc.dm.io.stats
    total_queries = 0
    total_html = 0
    for event in events:
        before = io_stats.queries
        result = client.browse_hle(event["hle_id"])
        total_queries += io_stats.queries - before
        total_html += result.page_bytes
    print("Section 7.2 page characteristics (REAL stack)")
    print(f"{'':28}{'paper':>12}{'measured':>12}")
    print(f"{'DM queries/page':28}{'~7':>12}{total_queries / len(events):>12.1f}")
    print(f"{'HTML bytes/page':28}{'12 KB':>12}{total_html / len(events):>12,.0f}")
    print()


def run_sec63() -> None:
    from repro.analysis import approximation_speedup
    from repro.metadb import Select
    from repro.streamcorder import StreamCorder

    hedc, user = _build_stack()
    unit_id = hedc.dm.io.execute(Select("raw_units"))[0]["unit_id"]
    corder = StreamCorder(hedc.dm, user,
                          Path(tempfile.mkdtemp(prefix="hedc-sc-")))
    view = hedc.dm.process.get_view(unit_id)
    result = corder.progressive_lightcurve(unit_id, detail_levels=1)
    photons = corder.fetch_unit(unit_id)
    input_mb = len(photons) * 14 / 1e6
    speedup = approximation_speedup("spectroscopy", input_mb, 10.0)
    print("Section 6.3 approximated analysis")
    print(f"  full view bytes      : {view.total_encoded_bytes:,}")
    print(f"  LoD prefix bytes     : {result['bytes_decoded']:,} "
          f"({result['reduction_factor']:.1f}x reduction)")
    print(f"  modelled speedup     : {speedup:.1f}x   (paper: >= 10x)\n")


def run_sec43() -> None:
    from repro.dm import DataManager

    workdir = Path(tempfile.mkdtemp(prefix="hedc-naming-"))
    dm = DataManager.standalone(workdir)
    for index in range(200):
        dm.io.names.register_file(f"item:{index}", "main", f"raw/f{index:05d}.fits")
    database = dm.io.default_database
    before = database.stats.selects
    dm.io.names.resolve_files("item:50")
    extra = database.stats.selects - before
    database.stats.reset()
    dm.io.names.relocate_archive("main", "/relocated")
    print("Section 4.3 dynamic name mapping")
    print(f"  extra queries per name construction : {extra}   (paper: 2)")
    print(f"  rows touched to relocate 200 files  : "
          f"{database.stats.rows_written}   (static binding: 200)\n")


def run_cache() -> None:
    import time

    from repro.pl import AnalysisRequest, Phase

    hedc, user = _build_stack()
    event = hedc.events()[0]
    manager = hedc.frontend.context.idl

    def one_run(force):
        params = {"n_bins": 64}
        if force:
            params["force"] = True
        request = AnalysisRequest(user, event["hle_id"], "histogram", params)
        started = time.perf_counter()
        hedc.frontend.run(request)
        assert request.phase is Phase.COMMITTED, request.error
        return time.perf_counter() - started

    cold_s = one_run(force=False)        # miss: full pipeline + store
    invocations_before = manager.stats()["invocations"]
    warm_s = min(one_run(force=False) for _repeat in range(5))
    warm_invocations = manager.stats()["invocations"] - invocations_before
    forced_s = min(one_run(force=True) for _repeat in range(3))
    print("Product cache (repeat-identical histogram, REAL stack)")
    print(f"  cold (miss+store)      : {cold_s * 1e3:8.2f} ms")
    print(f"  warm (cache hit)       : {warm_s * 1e3:8.2f} ms   "
          f"({cold_s / warm_s:,.0f}x, IDL invocations: {warm_invocations})")
    print(f"  forced (cache bypass)  : {forced_s * 1e3:8.2f} ms")
    report = hedc.frontend.product_cache.stats.snapshot()
    print(f"  stats                  : hits={report['hits']} "
          f"misses={report['misses']} hit_ratio={report['hit_ratio']:.2f} "
          f"resident={report['size_bytes']:,}B\n")


def _write_bench(name: str, payload: dict) -> Path:
    import json

    path = Path(__file__).resolve().parent.parent / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_query() -> None:
    import time

    from repro.metadb import (
        Aggregate, And, Column, ColumnType, Comparison, Database, In, Insert,
        Select, TableSchema,
    )

    database = Database()
    database.create_table(TableSchema(
        "events",
        [Column("event_id", ColumnType.INTEGER, nullable=False),
         Column("start_time", ColumnType.REAL, nullable=False),
         Column("rate", ColumnType.REAL, nullable=False)],
        primary_key="event_id",
        indexes=[("start_time",)],
    ))
    n_rows = 10_000
    for index in range(n_rows):
        database.execute(Insert("events", {
            "event_id": index,
            "start_time": float((index * 7919) % n_rows),
            "rate": float((index * 37) % 1000),
        }))
    table = database.table("events")
    select = Select("events", order_by=[("start_time", "desc")], limit=10)

    def naive(statement):
        # The seed executor: materialise every row, full sort, then slice.
        rows = [dict(row) for row in table.rows()]
        for column, direction in reversed(statement.order_by):
            rows.sort(key=lambda row: row[column],
                      reverse=direction == "desc")
        stop = (statement.offset or 0) + statement.limit
        return rows[statement.offset or 0:stop]

    def best(fn, arg, calls, repeats=7):
        fn(arg)
        timing = float("inf")
        for _repeat in range(repeats):
            started = time.perf_counter()
            for _call in range(calls):
                fn(arg)
            timing = min(timing, time.perf_counter() - started)
        return timing / calls

    assert database.execute(select) == naive(select)
    streamed_s = best(database.execute, select, 200)
    naive_s = best(naive, select, 20)
    probe = Select("events", where=In("event_id", [12, 4321, 9876]))
    probe_s = best(database.execute, probe, 200)
    plan = database.explain_plan(select)

    # -- columnar vs row-at-a-time on full-scan analytics ----------------
    def columnar_experiment(n_rows: int, vec_calls: int, row_calls: int) -> dict:
        kinds = ["flare", "quiet", "storm", "saa", "burst", "cal", "idle"]

        def build(columnar: bool) -> Database:
            built = Database(name=f"colbench{n_rows}-{columnar}")
            built.create_table(TableSchema(
                "ev",
                [Column("ev_id", ColumnType.INTEGER, nullable=False),
                 Column("kind", ColumnType.TEXT, nullable=False),
                 Column("rate", ColumnType.REAL, nullable=False),
                 Column("counts", ColumnType.INTEGER, nullable=False)],
                primary_key="ev_id",
                columnar=columnar,
            ))
            for index in range(n_rows):
                built.execute(Insert("ev", {
                    "ev_id": index,
                    "kind": kinds[(index * 131) % len(kinds)],
                    "rate": float((index * 37) % 1000),
                    "counts": (index * 7919) % 10_000,
                }))
            return built

        # The row path is the same rows in a twin declared columnar=False.
        db, row_db = build(True), build(False)

        queries = {
            "full_scan_filter": Select("ev", where=And([
                Comparison("kind", "=", "flare"),
                Comparison("rate", ">=", 500.0),
            ])),
            "full_scan_aggregate": Select(
                "ev", where=Comparison("rate", ">=", 250.0),
                aggregates=[Aggregate("count", "*", "c"),
                            Aggregate("sum", "counts", "s"),
                            Aggregate("avg", "rate", "a")],
            ),
            "group_by": Select(
                "ev", group_by=["kind"],
                aggregates=[Aggregate("count", "*", "c"),
                            Aggregate("max", "rate", "m")],
            ),
            # ev_id follows insertion order, so zone maps prune the
            # leading segments outright.
            "zone_map_prune": Select(
                "ev", where=Comparison("ev_id", ">=", n_rows - 2000),
            ),
        }
        section: dict = {"table_rows": n_rows}
        for label, query in queries.items():
            vec_plan = db.explain_plan(query)
            assert vec_plan["access"] == "columnar_scan", (label, vec_plan)
            assert db.execute(query) == row_db.execute(query)
            vectorized_s = best(db.execute, query, vec_calls, 3)
            row_s = best(row_db.execute, query, row_calls, 3)
            section[label] = {
                "vectorized_us_per_query": vectorized_s * 1e6,
                "row_us_per_query": row_s * 1e6,
                "speedup": row_s / vectorized_s,
                "segments_total": vec_plan["segments_total"],
                "segments_pruned": vec_plan["segments_pruned"],
            }
        prune = section["zone_map_prune"]
        prune["prune_hit_rate"] = (
            prune["segments_pruned"] / prune["segments_total"]
            if prune["segments_total"] else 0.0
        )
        return section

    columnar = {
        "10000": columnar_experiment(10_000, vec_calls=50, row_calls=10),
        "100000": columnar_experiment(100_000, vec_calls=20, row_calls=3),
    }
    payload = {
        "table_rows": n_rows,
        "order_limit_query": {
            "sql": "SELECT * FROM events ORDER BY start_time DESC LIMIT 10",
            "plan": plan,
            "naive_us_per_query": naive_s * 1e6,
            "streamed_us_per_query": streamed_s * 1e6,
            "speedup": naive_s / streamed_s,
        },
        "in_probe_query": {
            "plan": database.explain_plan(probe),
            "us_per_query": probe_s * 1e6,
        },
        "columnar": columnar,
    }
    path = _write_bench("BENCH_query_engine.json", payload)
    print("Query engine (10k-row indexed table, ORDER BY + LIMIT 10)")
    print(f"  naive (materialise+sort) : {naive_s * 1e6:10.1f} us/query")
    print(f"  streamed (limit pushdown): {streamed_s * 1e6:10.1f} us/query")
    print(f"  speedup                  : {naive_s / streamed_s:10.1f}x   "
          f"(target: >= 3x)")
    print(f"  IN-list probe (3 keys)   : {probe_s * 1e6:10.1f} us/query")
    print("Columnar vs row path (full-scan analytics)")
    for n_rows, section in columnar.items():
        for label in ("full_scan_filter", "full_scan_aggregate",
                      "group_by", "zone_map_prune"):
            entry = section[label]
            extra = ""
            if label == "zone_map_prune":
                extra = (f", prune {entry['segments_pruned']}"
                         f"/{entry['segments_total']} segments")
            print(f"  {int(n_rows):>7,} rows {label:20}: "
                  f"row {entry['row_us_per_query']:10.1f} us -> "
                  f"vec {entry['vectorized_us_per_query']:8.1f} us "
                  f"({entry['speedup']:5.1f}x{extra})")
    print("  target: >= 10x on at least one 100k full-scan query")
    print(f"  wrote {path.name}\n")


def run_backprojection() -> None:
    import time
    import tracemalloc

    from repro.analysis import back_projection, back_projection_dense
    from repro.rhessi import SolarFlare, TelemetryGenerator
    from repro.rhessi.telemetry import ObservationPlan

    plan = ObservationPlan(0.0, 240.0, background_rate=40.0)
    plan.add(SolarFlare(start=40.0, duration=120.0, goes_class="M",
                        position_arcsec=(250.0, -150.0)))
    photons = TelemetryGenerator(plan, seed=31).generate()
    from repro.rhessi import PhotonList

    window = photons.select_time(40.0, 160.0).select_energy(6.0, 100.0)
    if len(window) > 20_000:
        window = PhotonList(window.times[:20_000], window.energies[:20_000],
                            window.detectors[:20_000])
    kwargs = {"n_pixels": 64, "source_position": (250.0, -150.0)}

    def measure(fn, **extra):
        tracemalloc.start()
        started = time.perf_counter()
        result = fn(window, **kwargs, **extra)
        elapsed = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return result, elapsed, peak

    dense_result, dense_s, dense_peak = measure(back_projection_dense)
    binned_result, binned_s, binned_peak = measure(back_projection,
                                                   n_phase_bins=256)
    payload = {
        "n_photons": len(window),
        "n_pixels": 64,
        "n_phase_bins": 256,
        "dense": {"wall_s": dense_s, "peak_bytes": dense_peak,
                  "peak_position": dense_result.peak_position(),
                  "dynamic_range": dense_result.dynamic_range()},
        "binned": {"wall_s": binned_s, "peak_bytes": binned_peak,
                   "peak_position": binned_result.peak_position(),
                   "dynamic_range": binned_result.dynamic_range()},
        "speedup": dense_s / binned_s,
        "peak_memory_reduction": dense_peak / binned_peak,
    }
    path = _write_bench("BENCH_backprojection.json", payload)
    print(f"Back-projection ({len(window):,} photons, 64 px, K=256)")
    print(f"  dense  : {dense_s:7.3f} s, peak {dense_peak / 1e6:8.1f} MB")
    print(f"  binned : {binned_s:7.3f} s, peak {binned_peak / 1e6:8.1f} MB")
    print(f"  speedup: {dense_s / binned_s:.1f}x (target >= 5x), "
          f"memory: {dense_peak / binned_peak:.1f}x lower (target >= 10x)")
    print(f"  peak   : dense {dense_result.peak_position()} vs "
          f"binned {binned_result.peak_position()}")
    print(f"  wrote {path.name}\n")


def run_shard() -> None:
    import time

    from repro.evalmodel import project_scaling
    from repro.metadb import Between, Database, Insert, Select
    from repro.schema import install_all
    from repro.shard import ShardedDatabase

    day = 86_400.0
    span_days = 16
    n_rows = 4000
    rows = []
    for index in range(n_rows):
        t = (index * 7919) % int(span_days * day)
        rows.append({
            "hle_id": index + 1, "item_id": f"hle:{index + 1}", "owner_id": 1,
            "start_time": float(t), "end_time": float(t) + 60.0,
            "peak_rate": float((index * 37) % 1000),
            "created_at": 0.0,
        })
    admin = {"user_id": 1, "login": "bench", "password_hash": "x"}
    pruned_q = Select("hle", where=Between("start_time", 3 * day, 3.5 * day),
                      order_by=[("start_time", "asc")])
    scatter_q = Select("hle", order_by=[("peak_rate", "desc")], limit=10)

    def best(db, statement, calls=50, repeats=5):
        db.execute(statement)
        timing = float("inf")
        for _repeat in range(repeats):
            started = time.perf_counter()
            for _call in range(calls):
                db.execute(statement)
            timing = min(timing, time.perf_counter() - started)
        return timing / calls

    def load(db):
        install_all(db)
        db.execute(Insert("admin_users", dict(admin)))
        for row in rows:
            db.execute(Insert("hle", dict(row)))

    single = Database(name="bench-single")
    load(single)
    baseline = {"pruned_range_us": best(single, pruned_q) * 1e6,
                "topn_scan_us": best(single, scatter_q) * 1e6}

    configs = {}
    for n_shards in (1, 4, 16):
        cuts = [span_days * day * index / n_shards
                for index in range(1, n_shards)]
        sharded = ShardedDatabase(boundaries=cuts, name=f"bench{n_shards}")
        load(sharded)
        pruned_route = sharded.explain_plan(pruned_q)["shard_route"]
        scatter_route = sharded.explain_plan(scatter_q)["shard_route"]
        configs[str(n_shards)] = {
            "pruned_range": {
                "us_per_query": best(sharded, pruned_q) * 1e6,
                "shards_touched": len(pruned_route["shards"]),
                "route": pruned_route["kind"],
            },
            "topn_scan": {
                "us_per_query": best(sharded, scatter_q) * 1e6,
                "shards_touched": len(scatter_route["shards"]),
                "route": scatter_route["kind"],
            },
        }

    projected_users = {
        str(n): project_scaling(n).users_supported
        for n in (1, 4, 16, 64, 256)
    }
    payload = {
        "table_rows": n_rows,
        "span_days": span_days,
        "single_node": baseline,
        "sharded": configs,
        "projected_users": projected_users,
    }
    path = _write_bench("BENCH_sharding.json", payload)
    print(f"Sharded catalog ({n_rows:,} events over {span_days} days)")
    print(f"  single node : pruned-range {baseline['pruned_range_us']:8.1f} us,"
          f" top-N scan {baseline['topn_scan_us']:8.1f} us")
    for n_shards, entry in configs.items():
        pruned = entry["pruned_range"]
        scatter = entry["topn_scan"]
        print(f"  {n_shards:>2} shard(s) : "
              f"pruned-range {pruned['us_per_query']:8.1f} us "
              f"({pruned['shards_touched']}/{n_shards} shards, "
              f"{pruned['route']}), "
              f"top-N scan {scatter['us_per_query']:8.1f} us "
              f"({scatter['shards_touched']}/{n_shards})")
    print("  projected   : " + ", ".join(
        f"{shards}sh={users:,}u" for shards, users in projected_users.items()))
    print(f"  wrote {path.name}\n")


def run_repl() -> None:
    import threading
    import time

    from repro.evalmodel import project_scaling, replica_efficiency
    from repro.metadb import (
        Column, ColumnType, Database, Insert, Select, TableSchema,
    )
    from repro.repl import ReplicaGroup
    from repro.resil import FaultInjector, use_injector

    schema = TableSchema(
        "events",
        [Column("event_id", ColumnType.INTEGER, nullable=False),
         Column("rate", ColumnType.REAL, nullable=False)],
        primary_key="event_id",
    )
    n_rows = 1000
    select = Select("events", limit=50)

    def build(n_copies, path=None, cooldown=60.0):
        group = ReplicaGroup(name=f"bench-repl{n_copies}", path=path,
                             n_replicas=n_copies - 1,
                             breaker_cooldown_s=cooldown)
        group.create_table(schema)
        for index in range(n_rows):
            group.execute(Insert("events", {
                "event_id": index, "rate": float(index % 97),
            }))
        return group

    # -- read throughput vs copies (4 concurrent readers, fixed window) --
    throughput = {}
    for n_copies in (1, 2, 4):
        group = build(n_copies)
        counts = [0] * 4
        stop = threading.Event()

        def reader(slot, target=group):
            while not stop.is_set():
                target.execute(select)
                counts[slot] += 1

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(4)]
        window_s = 0.5
        for thread in threads:
            thread.start()
        time.sleep(window_s)
        stop.set()
        for thread in threads:
            thread.join()
        throughput[str(n_copies)] = {
            "reads_per_s": sum(counts) / window_s,
            "reads_by_copy": dict(group.reads_by_copy),
        }

    # -- failover blip: read latency while one copy dies mid-rotation ----
    group = build(2)
    baseline_samples = []
    for _ in range(50):
        started = time.perf_counter()
        group.execute(select)
        baseline_samples.append(time.perf_counter() - started)
    baseline_s = min(baseline_samples)
    durations = []
    injector = FaultInjector(seed=31)
    injector.inject("repl.replica.bench-repl2-r1.crash", rate=1.0)
    with use_injector(injector):
        for _ in range(40):
            started = time.perf_counter()
            group.execute(select)
            durations.append(time.perf_counter() - started)
    blip_s = max(durations) - baseline_s

    # -- catch-up: log replay vs full re-clone ---------------------------
    workdir = Path(tempfile.mkdtemp(prefix="hedc-repl-"))
    group = build(2, path=workdir)
    group.kill_replica("bench-repl2-r1")
    delta = 200
    for index in range(n_rows, n_rows + delta):
        group.execute(Insert("events", {
            "event_id": index, "rate": 0.0,
        }))
    started = time.perf_counter()
    replay = group.rejoin_replica("bench-repl2-r1")
    replay_s = time.perf_counter() - started
    assert replay["mode"] == "log_replay", replay
    # Force the fallback path: write past the crashed copy, then evict
    # the retained window so log replay cannot reach back far enough.
    group.kill_replica("bench-repl2-r1")
    for index in range(n_rows + delta, n_rows + 2 * delta):
        group.execute(Insert("events", {
            "event_id": index, "rate": 0.0,
        }))
    group.log.truncate_to(group.log.head_lsn)
    started = time.perf_counter()
    clone = group.rejoin_replica("bench-repl2-r1")
    clone_s = time.perf_counter() - started
    assert clone["mode"] == "full_resync", clone

    # -- projection: measured costs discount follower capacity ----------
    efficiency = replica_efficiency(
        failover_blip_s=max(blip_s, 0.0), mtbf_s=3600.0,
        ship_overhead_fraction=0.01,
    )
    projected = {
        str(r): project_scaling(16, replicas_per_shard=r,
                                replica_read_efficiency=efficiency)
        .users_supported
        for r in (1, 2, 4)
    }
    payload = {
        "table_rows": n_rows,
        "read_throughput": throughput,
        "failover": {
            "baseline_read_s": baseline_s,
            "worst_read_during_failover_s": max(durations),
            "blip_s": blip_s,
        },
        "catchup": {
            "delta_transactions": delta,
            "log_replay_s": replay_s,
            "log_replay_records": replay["replayed_records"],
            "full_resync_s": clone_s,
            "full_resync_rows": clone["rows_cloned"],
        },
        "replica_read_efficiency": efficiency,
        "projected_users_16_shards": projected,
    }
    path = _write_bench("BENCH_replication.json", payload)
    print(f"Replica group ({n_rows:,} rows, 4 reader threads)")
    for n_copies, entry in throughput.items():
        print(f"  {n_copies} cop(y/ies): {entry['reads_per_s']:10,.0f} reads/s")
    print(f"  failover blip          : {blip_s * 1e3:8.2f} ms "
          f"(baseline {baseline_s * 1e6:.0f} us/read)")
    print(f"  catch-up ({delta} tx)     : log replay {replay_s * 1e3:8.2f} ms"
          f" vs full re-sync {clone_s * 1e3:8.2f} ms")
    print(f"  replica efficiency     : {efficiency:.3f} -> projected users at"
          f" 16 shards: " + ", ".join(
              f"{r}x={users:,}" for r, users in projected.items()))
    print(f"  wrote {path.name}\n")


def run_serving() -> None:
    from repro.evalmodel import admission_ab, worker_scaling_series
    from repro.web import (
        browse_mix,
        build_serving_stack,
        mixed_class_mix,
        run_closed_loop,
        run_open_loop,
    )

    # (a) worker scaling: closed-loop §7 browse mix, 1 vs 8 pool workers
    # over the same remote (wire-latency) database.
    scaling = {}
    for n_workers in (1, 8):
        stack = build_serving_stack(scheduler="pool", n_workers=n_workers)
        result = run_closed_loop(stack, browse_mix(stack),
                                 n_clients=16, duration_s=1.5)
        stack.shutdown()
        scaling[str(n_workers)] = result.summary()
    speedup = (scaling["8"]["throughput_rps"]
               / max(scaling["1"]["throughput_rps"], 1e-9))

    # (b) admission-control A/B: identical 2x-capacity open-loop overload,
    # strict class priorities on vs off.
    ab = {}
    for label, admission in (("with_admission", True),
                             ("without_admission", False)):
        stack = build_serving_stack(scheduler="pool", n_workers=8,
                                    admission_control=admission,
                                    max_queue_depth=32)
        capacity = run_closed_loop(stack, mixed_class_mix(stack),
                                   n_clients=16, duration_s=1.0).throughput_rps
        overload = run_open_loop(stack, mixed_class_mix(stack),
                                 rate_rps=2.0 * capacity, duration_s=2.0)
        stack.shutdown()
        ab[label] = {"capacity_rps": capacity, **overload.summary()}

    # (c) the batched page fetch: round trips per HLE page and the
    # differential bytes check (batched and unbatched must render the
    # exact same page).
    stack = build_serving_stack(rtt_s=0.0)
    io_stats = stack.dm.io.stats
    request = stack.request(f"/hedc/hle?id={stack.hle_ids[0]}")
    page = {}
    bodies = {}
    for mode, batched in (("batched", True), ("unbatched", False)):
        stack.dm.batched_pages = batched
        queries, trips = io_stats.queries, io_stats.round_trips
        response = stack.web.handle(request)
        assert response.status == 200, response.status
        bodies[mode] = response.body
        page[mode] = {"queries": io_stats.queries - queries,
                      "round_trips": io_stats.round_trips - trips}
    stack.shutdown()
    identical = bodies["batched"] == bodies["unbatched"]

    # The discrete-event model's prediction of the same two shapes.
    model_scaling = worker_scaling_series(worker_counts=(1, 8),
                                          duration_s=100.0)
    model_ab = admission_ab(duration_s=100.0)
    payload = {
        "worker_scaling": {**scaling, "speedup_8_vs_1": speedup},
        "admission_ab": ab,
        "page_fetch": {**page, "bytes_identical": identical},
        "model": {
            "worker_scaling": {
                str(r.n_workers): {"throughput_rps": r.throughput_rps}
                for r in model_scaling
            },
            "admission_ab": {
                key: {"analysis_goodput_rps": r.goodput_rps["analysis"],
                      "analysis_wait_s": r.avg_wait_s["analysis"],
                      "shed": r.shed}
                for key, r in model_ab.items()
            },
        },
    }
    path = _write_bench("BENCH_serving.json", payload)
    with_ac = ab["with_admission"]["classes"]["analysis"]
    without_ac = ab["without_admission"]["classes"]["analysis"]
    print("Concurrent serving tier (REAL WebServer instances)")
    print(f"  browse throughput      : 1 worker "
          f"{scaling['1']['throughput_rps']:7.1f} req/s, 8 workers "
          f"{scaling['8']['throughput_rps']:7.1f} req/s "
          f"({speedup:.1f}x, target >= 3x)")
    print(f"  2x overload, analysis  : goodput "
          f"{with_ac['goodput_rps']:6.1f} vs {without_ac['goodput_rps']:6.1f}"
          f" req/s, p99 {with_ac['p99_s'] * 1e3:6.1f} vs "
          f"{without_ac['p99_s'] * 1e3:6.1f} ms (with vs without admission)")
    print(f"  HLE page fetch         : "
          f"{page['unbatched']['round_trips']} -> "
          f"{page['batched']['round_trips']} round trips "
          f"({page['batched']['queries']} logical queries), "
          f"bytes identical: {identical}")
    print(f"  wrote {path.name}\n")


EXPERIMENTS = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "table1-imaging": run_table1_imaging,
    "table1-histogram": run_table1_histogram,
    "table2": run_table2,
    "table3": run_table3,
    "sec72": run_sec72,
    "sec63": run_sec63,
    "sec43": run_sec43,
    "cache": run_cache,
    "query": run_query,
    "backprojection": run_backprojection,
    "shard": run_shard,
    "repl": run_repl,
    "serving": run_serving,
}


def main(argv: list[str]) -> int:
    chosen = argv or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENTS)}")
        return 2
    for name in chosen:
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        EXPERIMENTS[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
