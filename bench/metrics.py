"""The metric dictionary: every name the benchmark prints, with its unit
and direction; for the bounded metrics the regression bound; for layer
metrics the user-visible metric and workload they are expected to move.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; it can hold a name, a unit and a direction only, so the
relations between metrics live here and ``selftest.py`` checks that the
two agree.

Three groups:

``END_TO_END``
    The bounded metrics of the contract.  The driver wants every workload
    to report every one of them, never 0, and refuses the benchmark when
    ten runs of one commit spread (first to third quartile over the
    median) by more than the bound, which may not exceed 25 %.
``USER_VISIBLE``
    The end-to-end metrics issue 12 named, wall clock, computed from every
    sample of the window.  On the sandbox this was sized on they spread by
    11-50 % over ten runs of one commit (see ``README.md``), more than any
    allowed bound, so by the issue's own rule they are demoted: printed
    by every run, listed under ``per_layer`` in the contract, unbounded.
``LAYERS``
    Span self times, calls, and the program's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from trace import SPAN_NAMES

#: name -> why the workload exists (one line, at most 200 characters).
WORKLOADS = {
    "browse_plain": (
        "In-memory Database, sync server, RTT 0, closed loop of the read-only "
        "browse mix: servlets, DM, SQL round trip, planner and executor do all "
        "the work. A data-tier read optimisation must show here."),
    "composed_rw": (
        "4 shards x 2 copies with WAL+fsync, same pages plus 20 % dm.semantic "
        "writes in one stream: wrapper tax on reads, with WAL, log shipping "
        "and segment rebuilds working beside them."),
    "serve_wire": (
        "1/120 s wire RTT per round trip, 8-worker pool with admission, open "
        "loop at 100 req/s: round trips and queue wait dominate; the bypass "
        "workload for data-tier CPU work."),
    "analyze": (
        "Hedc with one ingested observation, closed loop of fresh and repeated "
        "/hedc/analyze, analysis pages and images: PL, IDL, kernels, FITS "
        "read, filestore and commit do the work."),
}

@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float         # share of the parent's median it may worsen by
    doc: str


#: The bounded timings are tenth percentiles in reference-speed
#: milliseconds (``speed.py``).  The sandbox's CPUs are hyperthreads of a
#: shared host: whenever the sibling thread is busy everything runs 1.5-1.8
#: times slower, for seconds to minutes, so a whole window can lie inside
#: one slow spell and every wall-clock statistic of it (median, tenth
#: percentile, throughput) moves by 30-50 % between runs of one commit.
#: Each closed-loop latency is therefore divided by the slowdown that a
#: fixed reference kernel, read before and after the operation, showed at
#: that moment.  The tenth percentile, because on serve_wire - which is not
#: normalised: a page is three charged sleeps - a slow spell fills the
#: worker pool's queue and moves the median by 18 % and the p95 by 77 %,
#: the tenth percentile by 2 %.  What a tenth percentile cannot see - a
#: stall that hits fewer than nine operations in ten - shows in the
#: wall-clock p50/p95 and req_per_s of ``USER_VISIBLE``, printed beside it.
#: Over ten seeds under a sibling load switched on and off at random the
#: bounded timings spread by 1-5 % (README, "Noise floor"); the bound is
#: the largest the driver admits because its hour may be worse.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "Median of three to nine builds of the workload's deployment (schema, "
             "seeding, checkpoint, server, login); on analyze the ingest.  "
             "Reference-speed seconds: the speed is read between the "
             "build's stages and after every seeded transaction."),
    EndToEnd("hle_page_p10_ms", "ms", "lower", 0.25,
             "10th percentile latency of /hedc/hle over every correct "
             "response of the window, each at reference speed: what the "
             "page costs undisturbed.  On serve_wire the wall clock."),
    EndToEnd("mix_op_p10_ms", "ms", "lower", 0.25,
             "What one operation of the workload's mix costs undisturbed: "
             "the 10th percentile latency at reference speed of each "
             "request class, weighted by the class's share of the window's "
             "operations.  The wall-clock, all-sample counterpart is "
             "1000 / req_per_s."),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "Peak resident set of the benchmark process at the end of the "
             "window (ru_maxrss)."),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: User-visible metrics this one should move (empty: tracked only).
    moves: Sequence[str]
    #: Workloads on which it should move them.
    on: Sequence[str]
    doc: str = ""


ALL = tuple(WORKLOADS)
CATALOGUE = ("browse_plain", "composed_rw", "serve_wire")

#: Issue 12's end-to-end metrics, from every sample of the window; a
#: workload without the request class reports 0.  (class, key) says where
#: ``workloads.py`` finds the timing.
USER_VISIBLE_TIMINGS = {
    "hle_page_p50_ms": ("hle", "p50_ms", ALL, "median of /hedc/hle"),
    "hle_page_p95_ms": ("hle", "p95_ms", ALL, "95th percentile of /hedc/hle"),
    "search_p50_ms": ("search", "p50_ms", CATALOGUE,
                      "median of the scanning searches (?min_rate=, ?kind=)"),
    "search_p95_ms": ("search", "p95_ms", CATALOGUE,
                      "95th percentile of the scanning searches"),
    "write_p50_ms": ("write", "p50_ms", ("composed_rw",),
                     "median of a dm.semantic write"),
    "write_p95_ms": ("write", "p95_ms", ("composed_rw",),
                     "95th percentile of a dm.semantic write"),
    "analyze_p50_ms": ("analyze", "p50_ms", ("analyze",),
                       "median of a fresh /hedc/analyze until the redirect"),
    "analyze_p95_ms": ("analyze", "p95_ms", ("analyze",),
                       "95th percentile of a fresh /hedc/analyze (imaging)"),
    "analyze_cached_p50_ms": ("analyze_cached", "p50_ms", ("analyze",),
                              "median of an exact repeat (product cache)"),
}

USER_VISIBLE = (
    Layer("req_per_s", "1/s", "higher", (), ALL,
          "correct responses and acknowledged writes per second of the "
          "window; on serve_wire the goodput at the fixed offered rate"),
) + tuple(
    Layer(name, "ms", "lower", (), on, doc)
    for name, (_cls, _key, on, doc) in USER_VISIBLE_TIMINGS.items()
) + (
    Layer("fail_share", "share", "lower", (), ALL,
          "failed or wrong / attempted; 0 on correct code (the contract "
          "admits no end-to-end metric that reads 0; the driver sees "
          "failures as failed/attempted and a non-zero exit)"),
)

#: The bounds issue 12 gave these metrics before they were demoted
#: (``fail_share``: absolute); ``run.py --agree`` holds two runs against
#: them so that the noise floor stays on record.
ISSUE_BOUNDS = {metric.name: (0.001 if metric.name == "fail_share"
                              else 0.15 if metric.name.endswith("_p95_ms")
                              else 0.10)
                for metric in USER_VISIBLE}

#: span -> (what it wraps, user-visible metrics it should move, workloads).
SPAN_EFFECTS = {
    "web.handle": ("WebServer.handle, or submit->resolve on the pool",
                   ("hle_page_p50_ms",), ALL),
    "web.queue_wait": ("admission -> dispatch start (scheduler plug point)",
                       ("hle_page_p95_ms",), ("serve_wire",)),
    "web.servlet": ("Router.dispatch: the servlet body",
                    ("hle_page_p50_ms",), ("browse_plain",)),
    "web.template": ("TemplateRegistry.render",
                     ("hle_page_p50_ms", "search_p50_ms"), ("browse_plain",)),
    "dm.session": ("SessionCache.by_cookie",
                   ("hle_page_p50_ms",), ("browse_plain",)),
    "dm.fetch_page": ("DataManager.fetch_page",
                      ("hle_page_p50_ms",), ("browse_plain", "composed_rw")),
    "dm.semantic": ("public SemanticLayer methods",
                    ("search_p50_ms", "write_p50_ms"),
                    ("browse_plain", "composed_rw")),
    "dm.naming": ("NameMapper resolve_files / resolve_from_rows / register_*",
                  ("hle_page_p50_ms", "write_p50_ms"), ("composed_rw",)),
    "dm.io": ("IoLayer execute / execute_batch / begin / commit; self time "
              "holds the retry policy", ("hle_page_p50_ms",), ("browse_plain",)),
    "metadb.sql": ("to_sql and parse as the I/O layer and the SQL servlet "
                   "reference them", ("hle_page_p50_ms",), ("browse_plain",)),
    "shard.route": ("ShardedDatabase execute / begin / commit: routing, "
                    "breaker, merge", ("hle_page_p50_ms", "search_p50_ms"),
                    ("composed_rw",)),
    "repl.route": ("ReplicaGroup execute / begin / commit: copy choice, "
                   "failover bookkeeping", ("hle_page_p50_ms",),
                   ("composed_rw",)),
    "repl.ship": ("ReplicaGroup.ship and the primary commit listener; self "
                  "time holds the follower's apply", ("write_p50_ms",),
                  ("composed_rw",)),
    "metadb.execute": ("Database execute / execute_batch / begin / commit: "
                       "locking, dispatch, stats", ("hle_page_p50_ms",),
                       ("browse_plain",)),
    "metadb.plan": ("plan_select", ("hle_page_p50_ms",), ("browse_plain",)),
    "metadb.select": ("execute_select: scan, columnar filter, gather, top-N",
                      ("search_p50_ms", "hle_page_p95_ms"), ("browse_plain",)),
    "metadb.wal": ("Journal.append_transaction, fsync included",
                   ("write_p50_ms",), ("composed_rw",)),
    "pl.frontend": ("Frontend.run: phases, estimate, commit orchestration",
                    ("analyze_p50_ms",), ("analyze",)),
    "pl.idl": ("IdlServerManager.invoke", ("analyze_p50_ms",), ("analyze",)),
    "analysis.kernel": ("imaging / lightcurve / histogram kernels",
                        ("analyze_p95_ms",), ("analyze",)),
    "filestore.io": ("StorageManager place / retrieve, IoLayer store_payload "
                     "/ read_item", ("analyze_p50_ms",), ("analyze",)),
    "fits.read": ("repro.fits read as the process layer references it",
                  ("analyze_p50_ms",), ("analyze",)),
    "dm.process": ("ProcessLayer load_raw_unit (set-up) and load_photons",
                   ("setup_s", "analyze_p50_ms"), ("analyze",)),
    "wire.rtt": ("the benchmark's own wire proxy: the charged round trip",
                 ("hle_page_p50_ms",), ("serve_wire",)),
}


def _span_layers() -> list[Layer]:
    layers = []
    for span in SPAN_NAMES:
        wraps, moves, on = SPAN_EFFECTS[span]
        layers.append(Layer(f"{span}.self_ms", "ms", "lower", moves, on,
                            f"self time per operation of: {wraps}"))
        layers.append(Layer(f"{span}.calls", "1/op", "lower", moves, on,
                            f"calls per operation of: {wraps}"))
    return layers


COUNTERS = (
    Layer("dm.io.queries_per_page", "count", "lower",
          ("hle_page_p50_ms",), ("serve_wire",),
          "IoStats.queries per HLE page (7 logical queries today)"),
    Layer("dm.io.round_trips_per_page", "count", "lower",
          ("hle_page_p50_ms",), ("serve_wire",),
          "IoStats.round_trips per HLE page (3 today; each is 8.3 ms on the wire)"),
    Layer("dm.io.edits_per_write", "count", "lower",
          ("write_p50_ms",), ("composed_rw",), "IoStats.edits per dm.semantic write"),
    Layer("dm.session.hit_ratio", "share", "higher",
          ("hle_page_p50_ms",), ALL,
          "SessionCache.hit_ratio as the program counts it (cookie look-ups "
          "are not counted today)"),
    Layer("metadb.rows_read_per_row_returned", "ratio", "lower",
          ("search_p50_ms",), ("browse_plain",),
          "DatabaseStats.rows_read per row the pages show"),
    Layer("metadb.columnar.segments_pruned_share", "share", "higher",
          ("search_p50_ms",), ("browse_plain",),
          "columnar segments skipped by zone maps / segments considered"),
    Layer("metadb.wal.fsyncs_per_write", "count", "lower",
          ("write_p50_ms",), ("composed_rw",), "WAL fsyncs per write, all copies"),
    Layer("metadb.wal.bytes_per_write", "B", "lower",
          ("write_p50_ms",), ("composed_rw",), "journal bytes per write, all copies"),
    Layer("metadb.disk_bytes_per_row", "B", "lower",
          ("write_p50_ms",), ("composed_rw",),
          "bytes under the database path after the final checkpoint per "
          "logical row"),
    Layer("shard.route.pruned_share", "share", "higher",
          ("search_p50_ms",), ("composed_rw",), "selects routed to a pruned shard set"),
    Layer("shard.route.scatter_share", "share", "lower",
          ("search_p50_ms",), ("composed_rw",), "selects scattered to every shard"),
    Layer("shard.shards_touched_per_select", "count", "lower",
          ("search_p95_ms",), ("composed_rw",), "shard reads per routed select"),
    Layer("repl.reads_follower_share", "share", "higher",
          ("hle_page_p50_ms",), ("composed_rw",), "reads served by a follower"),
    Layer("repl.ship.records_per_write", "count", "lower",
          ("write_p50_ms",), ("composed_rw",), "redo records shipped per write"),
    Layer("repl.lag_max", "count", "lower",
          ("hle_page_p50_ms",), ("composed_rw",),
          "largest follower lag (transactions) after the window"),
    Layer("repl.catchup.replay_ms_per_tx", "ms", "lower", (), ("composed_rw",),
          "rejoin by log replay after 200 missed writes, per transaction"),
    Layer("repl.catchup.resync_ms", "ms", "lower", (), ("composed_rw",),
          "one forced full re-sync of the same follower"),
    Layer("composed.read_tax_ratio", "ratio", "lower",
          ("hle_page_p50_ms",), ("composed_rw",),
          "HLE page p50 on the composed stack / on a plain Database holding "
          "the same rows, same process"),
    Layer("shard.x1_tax_ratio", "ratio", "lower",
          ("hle_page_p50_ms",), ("composed_rw",),
          "captured SELECTs on ShardedDatabase with no boundaries / bare Database"),
    Layer("repl.x1_tax_ratio", "ratio", "lower",
          ("hle_page_p50_ms",), ("composed_rw",),
          "captured SELECTs on ReplicaGroup with no followers / bare Database"),
    Layer("web.scheduler.wait_p95_ms", "ms", "lower",
          ("hle_page_p95_ms",), ("serve_wire",), "queue wait, phase A"),
    Layer("web.scheduler.late_p95_ms", "ms", "lower",
          ("hle_page_p95_ms",), ("serve_wire",),
          "how late the generator itself submitted, phase A"),
    Layer("hle_page_p99_ms", "ms", "lower", ("hle_page_p95_ms",), ("serve_wire",),
          "99th percentile of /hedc/hle"),
    Layer("cpu_ms_per_req", "ms", "lower", ("req_per_s",), ALL,
          "process CPU time of the window per operation: on serve_wire, "
          "where latency is mostly sleep, what a request costs the "
          "interpreter lock"),
    Layer("web.scheduler.overload_goodput_rps", "1/s", "higher", (),
          ("serve_wire",), "OK responses per second at 400 req/s (phase B)"),
    Layer("web.scheduler.overload_priority_p95_ms", "ms", "lower", (),
          ("serve_wire",), "analysis-class p95 under overload"),
    Layer("web.scheduler.overload_shed_share.browse", "share", "lower", (),
          ("serve_wire",), "browse requests shed under overload"),
    Layer("web.scheduler.overload_shed_share.analysis", "share", "lower", (),
          ("serve_wire",), "analysis requests shed under overload"),
    Layer("web.scheduler.overload_shed_share.bulk", "share", "lower", (),
          ("serve_wire",), "bulk requests shed under overload"),
    Layer("web.bytes_per_page", "B", "lower", (), ALL,
          "mean HLE page size; guards page identity"),
    Layer("pl.product_cache.hit_ratio", "share", "higher",
          ("analyze_cached_p50_ms",), ("analyze",), "product cache hits / look-ups"),
    Layer("pl.queries_per_analysis", "count", "lower",
          ("analyze_p50_ms",), ("analyze",), "DM queries per fresh analysis (3)"),
    Layer("pl.edits_per_analysis", "count", "lower",
          ("analyze_p50_ms",), ("analyze",), "DM edits per fresh analysis (2)"),
    Layer("filestore.bytes_written_per_analysis", "B", "lower",
          ("analyze_p50_ms",), ("analyze",), "product bytes stored per fresh analysis"),
    Layer("dm.process.load_unit_ms", "ms", "lower",
          ("setup_s",), ("analyze",), "load_raw_unit per unit"),
    Layer("dm.process.photons_per_s", "1/s", "higher",
          ("setup_s",), ("analyze",), "photons ingested per second of load_raw_unit"),
    Layer("bench.trace_overhead_share", "share", "lower", (), ALL,
          "mean operation latency traced / untraced - 1, at reference speed"),
    Layer("bench.speed_factor", "ratio", "lower", (), ALL,
          "median reading of the reference kernel in the window over its "
          "time on a calm machine: 1 in a calm spell, 1.5-1.8 while the "
          "core's sibling thread is busy"),
    Layer("bench.setup_wall_s", "s", "lower", ("setup_s",), ALL,
          "setup_s as the wall clock read it (median of the same builds)"),
)

LAYERS = tuple(_span_layers()) + COUNTERS

#: What ``--trace 1`` prints and ``BENCHMARK.json`` lists under ``per_layer``.
PER_LAYER = USER_VISIBLE + LAYERS


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
