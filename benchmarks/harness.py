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
    print(f"  extra statements per name construction : {extra}   "
          "(paper: 2 queries; here two indexed lookups in one)")
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
