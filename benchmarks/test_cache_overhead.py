"""Overhead guard: the product cache must be ~free on misses and ~instant
on hits.

Two budgets, measured the stable way (min-of-repeats, as in the
resilience guard — min converges to the quiet-window time):

* **miss path < 5% of an uncached analysis** — the machinery a cache
  miss adds in front of the pipeline (fingerprint, lookup, singleflight
  bookkeeping, the store after commit), measured per-component in tight
  loops against the wall-clock of one real uncached histogram run;
* **warm hit < 1% of cold** — a repeat-identical request served from the
  cache (including its visibility probe) against the full pipeline run
  that filled it.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from conftest import min_per_call
from repro.analysis import AnalysisProduct
from repro.pl import AnalysisRequest, Phase, ProductCache, fingerprint

MAX_MISS_OVERHEAD = 0.05
MAX_WARM_FRACTION = 0.01


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


def test_warm_hit_under_one_percent_of_cold(bench_hedc, bench_user):
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

    fraction = warm_s / cold_s
    print(f"\ncold {cold_s * 1e3:.2f}ms  warm {warm_s * 1e6:.1f}us  "
          f"ratio {fraction * 100:.3f}%  (budget {MAX_WARM_FRACTION * 100:.0f}%)")
    assert fraction < MAX_WARM_FRACTION
