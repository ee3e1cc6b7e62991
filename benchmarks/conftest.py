"""Shared fixtures for the benchmark harness.

Benches that exercise the real stack (Tables 2-3, §7.2 page characteristics)
share one loaded repository; the figure/table models run on the calibrated
discrete-event simulator.  The overhead guards (``test_*_overhead.py``,
``test_template_render.py``) share one timing loop, :func:`min_per_call`.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Hedc


def min_per_call(fn, *args, calls: int, repeats: int = 9) -> float:
    """Min-of-repeats per-call seconds for ``fn(*args)`` in a tight loop:
    the minimum converges to the quiet-window time on a shared runner."""
    fn(*args)  # warm (bytecode, metric handles, plan caches)
    best = float("inf")
    for _repeat in range(repeats):
        started = time.perf_counter()
        for _call in range(calls):
            fn(*args)
        best = min(best, time.perf_counter() - started)
    return best / calls


@pytest.fixture(scope="session")
def bench_hedc(tmp_path_factory):
    """A loaded repository with a scientist account for end-to-end runs."""
    root = tmp_path_factory.mktemp("hedc-bench")
    hedc = Hedc.create(root)
    hedc.ingest_observation(duration_s=900.0, seed=31, unit_target_photons=120_000)
    hedc.register_user("bench", "bench-pw", group="scientist")
    return hedc


@pytest.fixture(scope="session")
def bench_user(bench_hedc):
    return bench_hedc.dm.users.find("bench")
