"""Tests for the analysis kernels and products."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DEFAULT_PHASE_BINS,
    AnalysisProduct,
    CostModel,
    approximation_speedup,
    back_projection,
    clean_iterations,
    histogram,
    lightcurve,
    parse_pgm,
    predict,
    render_pgm,
    render_series_pgm,
    spectrogram,
)
from repro.rhessi import PhotonList, SolarFlare, TelemetryGenerator
from repro.rhessi.telemetry import ObservationPlan

from .oracle_imaging import back_projection_chunked, back_projection_dense


@pytest.fixture(scope="module")
def flare_photons():
    plan = ObservationPlan(0.0, 240.0, background_rate=40.0)
    plan.add(SolarFlare(start=40.0, duration=120.0, goes_class="M",
                        position_arcsec=(250.0, -150.0)))
    return TelemetryGenerator(plan, seed=6).generate()


class TestLightcurve:
    def test_peak_near_flare_peak(self, flare_photons):
        curve = lightcurve(flare_photons, bin_width_s=2.0)
        peak_time, peak_rate = curve.peak()
        assert 50.0 < peak_time < 70.0  # rise is 15% of 120 s after t=40
        assert peak_rate > 500.0

    def test_band_rates_sum_to_total(self, flare_photons):
        curve = lightcurve(flare_photons, bin_width_s=4.0)
        assert np.allclose(curve.total_rate(), curve.rates.sum(axis=0))

    def test_explicit_window(self, flare_photons):
        curve = lightcurve(flare_photons, bin_width_s=4.0, start=0.0, end=40.0)
        assert curve.n_bins == 10

    def test_band_selection(self, flare_photons):
        curve = lightcurve(flare_photons, bands=[(3.0, 25.0), (25.0, 300.0)])
        assert curve.rates.shape[0] == 2
        assert curve.band_series(0).sum() > curve.band_series(1).sum()  # soft dominates

    def test_invalid_parameters(self, flare_photons):
        with pytest.raises(ValueError):
            lightcurve(flare_photons, bin_width_s=0)
        with pytest.raises(ValueError):
            lightcurve(flare_photons, start=10.0, end=5.0)


class TestImaging:
    def test_recovers_source_position(self, flare_photons):
        window = flare_photons.select_time(40.0, 160.0).select_energy(6.0, 100.0)
        image = back_projection(window, n_pixels=48, source_position=(250.0, -150.0))
        x, y = image.peak_position()
        step = image.extent_arcsec / image.n_pixels  # one pixel tolerance x2
        assert abs(x - 250.0) < 2 * step
        assert abs(y + 150.0) < 2 * step

    def test_photon_count_accounted(self, flare_photons):
        window = flare_photons.select_time(40.0, 80.0)
        image = back_projection(window, n_pixels=16)
        assert image.n_photons_used == len(window)

    def test_detector_subset(self, flare_photons):
        window = flare_photons.select_time(40.0, 60.0)
        image = back_projection(window, n_pixels=16, detectors=[1, 2, 3])
        assert image.n_photons_used == sum(
            len(window.select_detector(index)) for index in (1, 2, 3)
        )

    def test_empty_input_gives_zero_image(self):
        empty = PhotonList(np.array([]), np.array([]), np.array([]))
        image = back_projection(empty, n_pixels=8)
        assert image.n_photons_used == 0
        assert np.all(image.image == 0)

    def test_clean_sharpens_peak(self, flare_photons):
        window = flare_photons.select_time(40.0, 120.0).select_energy(6.0, 100.0)
        dirty = back_projection(window, n_pixels=32, source_position=(250.0, -150.0))
        cleaned = clean_iterations(dirty, n_iterations=24)
        assert cleaned.dynamic_range() > dirty.dynamic_range()

    def test_tiny_grid_rejected(self, flare_photons):
        with pytest.raises(ValueError):
            back_projection(flare_photons, n_pixels=2)

    def test_bad_phase_bins_rejected(self, flare_photons):
        with pytest.raises(ValueError):
            back_projection(flare_photons, n_pixels=16, n_phase_bins=0)

    def test_exact_mode_matches_dense_kernel(self, flare_photons):
        # n_phase_bins=None streams per photon with no binning: it must
        # reproduce the dense reference kernel to rounding error.
        window = flare_photons.select_time(40.0, 44.0)
        streamed = back_projection(
            window, n_pixels=24, source_position=(250.0, -150.0), n_phase_bins=None
        )
        dense = back_projection_dense(
            window, n_pixels=24, source_position=(250.0, -150.0)
        )
        assert streamed.n_photons_used == dense.n_photons_used
        np.testing.assert_allclose(streamed.image, dense.image, atol=1e-10)

    def test_binned_mode_preserves_peak_and_range(self, flare_photons):
        window = flare_photons.select_time(40.0, 160.0).select_energy(6.0, 100.0)
        binned = back_projection(
            window, n_pixels=48, source_position=(250.0, -150.0),
            n_phase_bins=DEFAULT_PHASE_BINS,
        )
        dense = back_projection_dense(
            window, n_pixels=48, source_position=(250.0, -150.0)
        )
        # Binning is second-order accurate at the source: the peak lands on
        # the same pixel and the dynamic range stays in the same regime.
        assert binned.peak_position() == dense.peak_position()
        assert binned.dynamic_range() > 0.7 * dense.dynamic_range()


def _drawn_photons(seed: int, n_photons: int) -> PhotonList:
    rng = np.random.default_rng(seed)
    return PhotonList(
        np.sort(rng.uniform(0.0, 12.0, n_photons)),
        rng.uniform(3.0, 100.0, n_photons),
        rng.integers(1, 10, n_photons),
    )


class TestSeparableKernel:
    """The kernel evaluates ``cos(a + b)`` as ``cos a·cos b − sin a·sin b``
    along the image axes; the chunked kernel it replaced (one K×P×P
    cosine) is the reference, binned and exact."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_photons=st.integers(1, 400),
        n_pixels=st.integers(4, 64),
        extent=st.floats(16.0, 8192.0),
        center=st.tuples(st.floats(-900.0, 900.0), st.floats(-900.0, 900.0)),
        source=st.none() | st.tuples(st.floats(-900.0, 900.0), st.floats(-900.0, 900.0)),
        detectors=st.none() | st.lists(st.integers(1, 9), min_size=1, max_size=9,
                                       unique=True),
        n_phase_bins=st.none() | st.sampled_from([1, 7, 64, DEFAULT_PHASE_BINS, 1000]),
    )
    def test_agrees_with_the_chunked_kernel(self, seed, n_photons, n_pixels, extent,
                                            center, source, detectors, n_phase_bins):
        photons = _drawn_photons(seed, n_photons)
        parameters = dict(
            n_pixels=n_pixels, extent_arcsec=extent, center_arcsec=center,
            source_position=source, detectors=detectors, n_phase_bins=n_phase_bins,
        )
        separable = back_projection(photons, **parameters)
        chunked = back_projection_chunked(photons, **parameters)
        assert separable.n_photons_used == chunked.n_photons_used
        # Patterns are cosines averaged over the photons: the peak is
        # at most 1, and it is 1 at the source, so this is 1e-12 of peak.
        assert np.abs(separable.image - chunked.image).max() <= 1e-12

    def test_more_angles_than_one_step_and_a_ragged_last_step(self):
        photons = _drawn_photons(3, 64 * 5 + 17)
        separable = back_projection(photons, n_pixels=20, n_phase_bins=None)
        chunked = back_projection_chunked(photons, n_pixels=20, n_phase_bins=None)
        np.testing.assert_allclose(separable.image, chunked.image, rtol=0, atol=1e-12)

    def test_rendered_images_match_on_the_bench_ranges(self, flare_photons):
        """200 seeded draws of ``bench/datagen.py``'s imaging parameters
        over 12-second windows: the PGM the archive stores is the same
        file whichever kernel made it, up to one thing.  An image about
        its own source is point-symmetric, so its brightest pixel has a
        twin that ties with it exactly; ``render_pgm`` truncates, so the
        twin a kernel's last rounding makes larger reads 255 and the
        other 254.  Nothing else may differ."""
        rng = random.Random(2003)
        identical = 0
        for _draw in range(200):
            start = rng.uniform(40.0, 148.0)
            window = flare_photons.select_time(start, start + 12.0)
            parameters = dict(n_pixels=rng.randint(12, 40),
                              extent_arcsec=rng.uniform(1024.0, 4096.0))
            reference = back_projection_chunked(window, **parameters).image
            separable = parse_pgm(render_pgm(back_projection(window, **parameters).image))
            chunked = parse_pgm(render_pgm(reference))
            differing = separable != chunked
            if not differing.any():
                identical += 1
                continue
            assert np.all(reference[differing] >= reference.max() - 1e-12)
            assert set(separable[differing]) | set(chunked[differing]) == {254, 255}
        assert identical >= 180


class TestSpectrogram:
    def test_counts_conserved(self, flare_photons):
        result = spectrogram(flare_photons, time_bin_s=4.0, n_energy_bins=24)
        in_range = flare_photons.select_energy(3.0, 20_000.0)
        assert result.counts.sum() == pytest.approx(len(in_range), rel=0.01)

    def test_normalized_in_unit_range(self, flare_photons):
        result = spectrogram(flare_photons)
        normalized = result.normalized()
        assert 0.0 <= normalized.min() and normalized.max() == pytest.approx(1.0)

    def test_band_profile_peaks_with_flare(self, flare_photons):
        result = spectrogram(flare_photons, time_bin_s=4.0)
        profile = result.band_profile(3.0, 50.0)
        peak_bin = int(np.argmax(profile))
        peak_time = result.time_edges[peak_bin]
        assert 40.0 < peak_time < 90.0

    def test_invalid_parameters(self, flare_photons):
        with pytest.raises(ValueError):
            spectrogram(flare_photons, time_bin_s=0)
        with pytest.raises(ValueError):
            spectrogram(flare_photons, n_energy_bins=1)


class TestHistogram:
    def test_energy_histogram_conserves_counts(self, flare_photons):
        result = histogram(flare_photons, "energy", n_bins=32)
        assert result.total == len(flare_photons)

    def test_detector_histogram_has_nine_bins(self, flare_photons):
        result = histogram(flare_photons, "detector")
        assert len(result.counts) == 9
        assert result.total == len(flare_photons)

    def test_time_histogram_linear_bins(self, flare_photons):
        result = histogram(flare_photons, "time", n_bins=10)
        widths = np.diff(result.edges)
        assert np.allclose(widths, widths[0])

    def test_mode_bin_is_soft_xray(self, flare_photons):
        low, _high = histogram(flare_photons, "energy", n_bins=64).mode_bin()
        assert low < 30.0  # thermal emission dominates

    def test_empty_input(self):
        empty = PhotonList(np.array([]), np.array([]), np.array([]))
        result = histogram(empty, "energy", n_bins=8)
        assert result.total == 0

    def test_unknown_attribute_rejected(self, flare_photons):
        with pytest.raises(ValueError):
            histogram(flare_photons, "color")


class TestProducts:
    def test_pgm_round_trip(self):
        array = np.arange(12, dtype=float).reshape(3, 4)
        pixels = parse_pgm(render_pgm(array))
        assert pixels.shape == (3, 4)
        assert pixels[0, 0] == 0 and pixels[-1, -1] == 255

    def test_flat_image_renders_black(self):
        pixels = parse_pgm(render_pgm(np.full((4, 4), 3.0)))
        assert np.all(pixels == 0)

    def test_series_rendering(self):
        payload = render_series_pgm(np.array([0.0, 1.0, 2.0, 4.0]), height=16)
        pixels = parse_pgm(payload)
        assert pixels.shape == (16, 4)
        # Tallest bar is the last column.
        assert pixels[:, 3].sum() > pixels[:, 1].sum()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            render_pgm(np.zeros(5))
        with pytest.raises(ValueError):
            render_series_pgm(np.array([]))
        with pytest.raises(ValueError):
            parse_pgm(b"JUNK")

    def test_bundle_writing(self, tmp_path):
        product = AnalysisProduct("imaging", {"n_pixels": 8}, summary={"peak": 1.0})
        product.add_image(render_pgm(np.eye(8)))
        product.log("step one")
        product.log("step two")
        paths = product.write_bundle(tmp_path, "ana42")
        names = sorted(path.name for path in paths)
        assert names == ["ana42.00.pgm", "ana42.log", "ana42.params.json"]
        params = json.loads((tmp_path / "ana42.params.json").read_text())
        assert params["algorithm"] == "imaging"
        assert (tmp_path / "ana42.log").read_text() == "step one\nstep two\n"


class TestCostModels:
    def test_server_three_times_slower(self):
        assert predict("imaging", 0.8, on_server=True) == pytest.approx(
            3 * predict("imaging", 0.8, on_server=False)
        )

    def test_paper_anchor_values(self):
        # Table 1 anchors: ~20 s/0.8 MB on the client, ~60 s on the server.
        assert predict("imaging", 0.8) == pytest.approx(20.0, rel=0.05)
        assert predict("imaging", 0.8, on_server=True) == pytest.approx(60.0, rel=0.05)
        assert predict("histogram", 0.3) == pytest.approx(2.5, rel=0.1)

    def test_superlinear_model_scales_superlinearly(self):
        assert predict("spectroscopy", 20.0) > 2 * predict("spectroscopy", 10.0)

    def test_approximation_speedup_at_least_reduction(self):
        assert approximation_speedup("spectroscopy", 10.0, 10.0) >= 10.0
        assert approximation_speedup("lightcurve", 10.0, 1.0) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(KeyError):
            predict("unknown", 1.0)
        with pytest.raises(ValueError):
            CostModel(1.0, 1.0).predict(-1.0)
        with pytest.raises(ValueError):
            CostModel(1.0, 1.0).predict(1.0, speed_factor=0.0)
        with pytest.raises(ValueError):
            approximation_speedup("imaging", 1.0, 0.5)
