"""Analyze-path guard: a unit is inflated once, patterns are separable.

The two things a fresh analysis spent its time on, each against what it
replaced, with no recorded numbers (``min_per_call``, min-of-repeats):

* ``ProcessLayer.load_photons`` parses the unit's unpacked copy on the
  scratch disk; the first access inflates and writes it.  Warm, a
  100 000-photon unit must load at least 4x faster than cold (the copy
  dropped before every call); ~7x when it was written.
* ``back_projection`` evaluates its patterns as two small matrix
  products per step of angles; the accumulator it replaced built one
  K x P x P cosine (``tests/oracle_imaging.py``).  On a window of the
  size and image sizes the ``analyze`` workload draws, it must be at
  least 4x the chunked kernel at ``n_pixels=40`` (~9x when written) and
  not slower at the default 64, where a product of 256 angles would
  cross OpenBLAS's threading threshold and a step of 64 does not.

Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import min_per_call
from repro.analysis import back_projection
from repro.dm import DataManager
from repro.obs import Observability
from repro.rhessi import PhotonList, package_units
from tests.oracle_imaging import back_projection_chunked

MIN_WARM_SPEEDUP = 4.0
MIN_KERNEL_SPEEDUP = 4.0


def _photons(n_photons: int, duration_s: float) -> PhotonList:
    rng = np.random.default_rng(31)
    return PhotonList(np.sort(rng.uniform(0.0, duration_s, n_photons)),
                      rng.uniform(3.0, 100.0, n_photons), rng.integers(1, 10, n_photons))


def test_warm_load_photons_is_4x_the_cold_one(tmp_path):
    dm = DataManager.standalone(tmp_path / "dm", obs=Observability(name="bench"))
    (unit,) = package_units(_photons(100_000, 600.0), tmp_path / "incoming",
                            unit_target_photons=100_000)
    dm.process.load_raw_unit(unit, "main", build_views=False)
    rel_path = f"raw/{unit.unit_id}.fits.gz"

    def cold():
        dm.io.storage.drop_unpacked("main", rel_path)
        return dm.process.load_photons(unit.unit_id)

    def warm():
        return dm.process.load_photons(unit.unit_id)

    assert cold().times.tobytes() == warm().times.tobytes()
    cold_s = min_per_call(cold, calls=5)
    warm_s = min_per_call(warm, calls=20)
    unpacked = dm.describe()["unpacked"]
    assert unpacked["fallbacks"] == 0 and unpacked["hits"] >= 20 * 9
    speedup = cold_s / warm_s
    print(f"\nload_photons, 100 000 photons: cold {cold_s * 1e3:.2f}ms  warm "
          f"{warm_s * 1e3:.2f}ms  speedup {speedup:.1f}x  (floor {MIN_WARM_SPEEDUP:.0f}x)")
    assert speedup >= MIN_WARM_SPEEDUP


@pytest.mark.parametrize("n_pixels, floor", [(40, MIN_KERNEL_SPEEDUP), (64, 1.0)])
def test_separable_kernel_against_the_chunked_one(n_pixels, floor):
    window = _photons(5_000, 12.0)      # a 12-second window of the analyze workload
    separable = back_projection(window, n_pixels=n_pixels)
    chunked = back_projection_chunked(window, n_pixels=n_pixels)
    assert np.abs(separable.image - chunked.image).max() <= 1e-12
    separable_s = min_per_call(back_projection, window, n_pixels, calls=10)
    chunked_s = min_per_call(
        lambda: back_projection_chunked(window, n_pixels=n_pixels), calls=3)
    speedup = chunked_s / separable_s
    print(f"\nback_projection, n_pixels={n_pixels}: separable {separable_s * 1e3:.2f}ms  "
          f"chunked {chunked_s * 1e3:.2f}ms  speedup {speedup:.1f}x  (floor {floor:.0f}x)")
    assert speedup >= floor
