"""Overhead guard: the product cache must be ~free on misses and ~instant
on hits.

Two budgets, measured the stable way (min-of-repeats, as in the
resilience guard — min converges to the quiet-window time):

* **miss path < 5% of an uncached analysis** — the machinery a cache
  miss adds in front of the pipeline (fingerprint, lookup, singleflight
  bookkeeping, the store after commit), measured per-component in tight
  loops against the wall-clock of one real uncached histogram run;
* **warm hit < 0.5 ms** — a repeat-identical request served from the
  cache, its visibility probe included.  Absolute, because the cold run
  it used to be a share of keeps getting cheaper (~5 ms on a two-core
  container): a fixed ~70 µs hit read 1.4-1.9 % of it and failed a 1 %
  budget with nothing slower.  Half a millisecond is ~7x that hit and a
  tenth of a cold run, so a hit that reaches the pipeline, or does the
  pipeline's database work, still fails.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from conftest import min_per_call
from repro.analysis import AnalysisProduct
from repro.pl import AnalysisRequest, Phase, ProductCache, fingerprint

MAX_MISS_OVERHEAD = 0.05
MAX_WARM_HIT_S = 0.5e-3


def _run_once(frontend, user, hle_id, params) -> float:
    request = AnalysisRequest(user, hle_id, "histogram", params)
    started = time.perf_counter()
    frontend.run(request)
    elapsed = time.perf_counter() - started
    assert request.phase is Phase.COMMITTED, request.error
    return elapsed


def test_miss_path_machinery_under_five_percent(bench_hedc, bench_user):
    event = bench_hedc.events()[0]
    params = {"n_bins": 64, "attribute": "energy"}

    # The real thing the machinery fronts: one full uncached analysis.
    analysis_s = min(
        _run_once(bench_hedc.frontend, bench_user, event["hle_id"],
                  {**params, "force": True})
        for _repeat in range(3)
    )

    # The added machinery, component by component, in tight loops.
    dm_stub = SimpleNamespace(process=SimpleNamespace(cache_epoch=0))
    cache = ProductCache(dm_stub)
    product = AnalysisProduct("histogram", dict(params))
    product.add_image(b"x" * 4096)
    key = fingerprint("histogram", event["hle_id"], params)

    fp_s = min_per_call(lambda: fingerprint("histogram", event["hle_id"], params), calls=2000)
    miss_s = min_per_call(lambda: cache.lookup(bench_user, "absent-key"), calls=2000)
    flight_s = min_per_call(lambda: cache.flight.do(key, lambda: None), calls=2000)
    store_s = min_per_call(lambda: cache.store(key, "histogram", product, 1), calls=2000)

    machinery_s = fp_s + miss_s + flight_s + store_s
    overhead = machinery_s / analysis_s
    print(f"\nanalysis {analysis_s * 1e3:.2f}ms  machinery "
          f"{machinery_s * 1e6:.2f}us (fp {fp_s * 1e6:.2f} + miss "
          f"{miss_s * 1e6:.2f} + flight {flight_s * 1e6:.2f} + store "
          f"{store_s * 1e6:.2f})  overhead {overhead * 100:+.3f}%  "
          f"(budget {MAX_MISS_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_MISS_OVERHEAD


def test_warm_hit_under_half_a_millisecond(bench_hedc, bench_user):
    event = bench_hedc.events()[0]
    params = {"n_bins": 48, "attribute": "time"}
    frontend = bench_hedc.frontend
    manager = frontend.context.idl

    # Cold: the pipeline runs (forced repeats keep the measurement off
    # the cache without polluting the warm key below).
    cold_s = min(
        _run_once(frontend, bench_user, event["hle_id"],
                  {**params, "force": True})
        for _repeat in range(3)
    )

    # Fill, then measure repeat-identical hits.
    _run_once(frontend, bench_user, event["hle_id"], dict(params))
    invocations = manager.stats()["invocations"]
    warm_s = min(
        _run_once(frontend, bench_user, event["hle_id"], dict(params))
        for _repeat in range(7)
    )
    assert manager.stats()["invocations"] == invocations, \
        "warm runs must never touch IDL"

    print(f"\ncold {cold_s * 1e3:.2f}ms  warm {warm_s * 1e6:.1f}us  "
          f"(budget {MAX_WARM_HIT_S * 1e6:.0f}us)")
    assert warm_s < MAX_WARM_HIT_S
