"""Tests for the synthetic RHESSI substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rhessi import (
    Calibration,
    CalibrationHistory,
    EventDetector,
    GammaRayBurst,
    N_COLLIMATORS,
    PhotonList,
    QuietSun,
    SaaTransit,
    SolarFlare,
    TelemetryGenerator,
    band_index,
    detectors,
    merge,
    package_units,
    quiet_periods,
    standard_day_plan,
)
from repro.rhessi.telemetry import ObservationPlan


class TestInstrument:
    def test_nine_detectors(self):
        dets = detectors()
        assert len(dets) == N_COLLIMATORS == 9
        assert dets[0].name == "G1"
        assert dets[0].pitch_arcsec < dets[-1].pitch_arcsec

    def test_band_index_covers_range(self):
        assert band_index(3.0) == 0
        assert band_index(10.0) == 1
        assert band_index(19_999.0) == 8
        assert band_index(1e9) == 8  # clamps at the top band


class TestPhotonList:
    def test_sorted_on_construction(self):
        photons = PhotonList(np.array([3.0, 1.0, 2.0]), np.array([5, 6, 7]),
                             np.array([1, 2, 3]))
        assert list(photons.times) == [1.0, 2.0, 3.0]
        assert list(photons.energies) == [6.0, 7.0, 5.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhotonList(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_time_selection_half_open(self):
        photons = PhotonList(np.arange(10.0), np.ones(10), np.ones(10))
        window = photons.select_time(2.0, 5.0)
        assert list(window.times) == [2.0, 3.0, 4.0]

    @given(
        times=st.lists(st.integers(0, 12).map(float), max_size=40),
        start=st.integers(-1, 13).map(float) | st.floats(-1.0, 13.0),
        end=st.integers(-1, 13).map(float) | st.floats(-1.0, 13.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_time_selection_by_bisection_equals_the_mask(self, times, start, end):
        """Whole-second times repeat, at both edges too; whole-second
        edges hit them, and the window may be empty, inverted or all."""
        photons = PhotonList(np.array(times), np.arange(len(times)) + 3.0,
                             np.arange(len(times)) % 9 + 1)
        mask = (photons.times >= start) & (photons.times < end)
        window = photons.select_time(start, end)
        assert window.times.tolist() == photons.times[mask].tolist()
        assert window.energies.tolist() == photons.energies[mask].tolist()
        assert window.detectors.tolist() == photons.detectors[mask].tolist()

    def test_time_selection_does_not_alias_the_list(self):
        photons = PhotonList(np.arange(10.0), np.ones(10), np.ones(10))
        window = photons.select_time(0.0, 10.0)
        window.energies[:] = 7.0
        assert photons.energies.tolist() == [1.0] * 10

    def test_energy_selection(self):
        photons = PhotonList(np.arange(5.0), np.array([3.0, 10.0, 30.0, 100.0, 5000.0]),
                             np.ones(5))
        band = photons.select_energy(10.0, 100.0)
        assert len(band) == 2

    def test_detector_selection(self):
        photons = PhotonList(np.arange(6.0), np.ones(6),
                             np.array([1, 2, 1, 3, 1, 2]))
        assert len(photons.select_detector(1)) == 3

    def test_bin_counts_conserves_photons(self):
        rng = np.random.default_rng(3)
        photons = PhotonList(np.sort(rng.uniform(0, 100, 1000)), np.ones(1000),
                             np.ones(1000))
        _edges, counts = photons.bin_counts(4.0)
        assert counts.sum() == 1000

    def test_spectrum_conserves_in_range_photons(self):
        photons = PhotonList(np.arange(4.0), np.array([5.0, 50.0, 500.0, 5000.0]),
                             np.ones(4))
        _edges, counts = photons.spectrum(16)
        assert counts.sum() == 4

    def test_fits_round_trip(self):
        photons = PhotonList(
            np.linspace(0, 10, 50),
            np.random.default_rng(1).uniform(3, 100, 50).astype(np.float32),
            np.random.default_rng(2).integers(1, 10, 50).astype(np.int16),
        )
        restored = PhotonList.from_fits(photons.to_fits())
        assert np.allclose(restored.times, photons.times)
        assert np.allclose(restored.energies, photons.energies)
        assert np.array_equal(restored.detectors, photons.detectors)

    def test_validate_rejects_bad_detector(self):
        photons = PhotonList(np.array([0.0]), np.array([5.0]), np.array([12]))
        with pytest.raises(ValueError):
            photons.validate()

    def test_merge(self):
        a = PhotonList(np.array([1.0, 3.0]), np.ones(2), np.ones(2))
        b = PhotonList(np.array([2.0]), np.ones(1), np.ones(1))
        merged = merge([a, b])
        assert list(merged.times) == [1.0, 2.0, 3.0]

    def test_empty_photon_list(self):
        empty = PhotonList(np.array([]), np.array([]), np.array([]))
        assert len(empty) == 0
        assert empty.duration == 0.0
        empty.validate()


class TestPhenomena:
    def test_flare_rate_peaks_then_decays(self):
        flare = SolarFlare(start=100.0, duration=100.0, goes_class="M", peak_rate=10.0)
        t = np.linspace(0, 300, 3001)
        rate = flare.rate(t)
        assert rate[t < 100].max() == 0.0
        assert rate[t > 210].max() == pytest.approx(0.0, abs=1e-6)
        peak_time = t[np.argmax(rate)]
        assert 110 < peak_time < 120  # rise = 15% of duration

    def test_goes_class_scales_peak(self):
        small = SolarFlare(start=0, duration=100, goes_class="B", peak_rate=10.0)
        large = SolarFlare(start=0, duration=100, goes_class="X", peak_rate=10.0)
        assert large.scaled_peak_rate == 64 * small.scaled_peak_rate

    def test_unknown_goes_class_rejected(self):
        with pytest.raises(ValueError):
            SolarFlare(start=0, duration=10, goes_class="Z")

    def test_grb_spectrum_harder_than_flare(self):
        rng = np.random.default_rng(0)
        flare = SolarFlare(start=0, duration=10)
        burst = GammaRayBurst(start=0, duration=10)
        assert burst.draw_energies(rng, 4000).mean() > 3 * flare.draw_energies(rng, 4000).mean()

    def test_saa_blanks_rate(self):
        saa = SaaTransit(start=10.0, duration=5.0)
        t = np.linspace(0, 20, 21)
        assert saa.rate(t).max() == 0.0
        assert saa.blocks(t).sum() == 5

    def test_quiet_sun_is_low_and_positive(self):
        quiet = QuietSun(start=0, duration=100, level=20.0)
        rate = quiet.rate(np.linspace(0, 100, 101)[:-1])
        assert 0 < rate.min() and rate.max() < 25


class TestTelemetryGenerator:
    def test_photon_count_tracks_rate_integral(self):
        plan = ObservationPlan(0.0, 200.0, background_rate=100.0)
        photons = TelemetryGenerator(plan, seed=1).generate()
        assert len(photons) == pytest.approx(20_000, rel=0.05)

    def test_flare_region_is_denser(self, photons_small):
        # The fixture's flare fills most of the window, so the median bin
        # is already elevated; the peak must still clearly stand out.
        _edges, counts = photons_small.bin_counts(4.0)
        assert counts.max() > 3 * np.median(counts)

    def test_saa_region_is_empty(self):
        plan = ObservationPlan(0.0, 300.0, background_rate=50.0)
        plan.add(SaaTransit(start=100.0, duration=50.0))
        photons = TelemetryGenerator(plan, seed=2).generate()
        assert len(photons.select_time(101.0, 149.0)) == 0

    def test_all_detectors_hit(self, photons_small):
        assert set(np.unique(photons_small.detectors)) == set(range(1, 10))

    def test_generation_is_deterministic(self):
        plan = standard_day_plan(duration=60.0, seed=9, n_flares=1, n_bursts=0, n_saa=0)
        a = TelemetryGenerator(plan, seed=5).generate()
        b = TelemetryGenerator(plan, seed=5).generate()
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.energies, b.energies)

    def test_plan_rejects_out_of_window_phenomena(self):
        plan = ObservationPlan(0.0, 100.0)
        with pytest.raises(ValueError):
            plan.add(SolarFlare(start=90.0, duration=20.0))

    def test_standard_day_plan_fits_any_duration(self):
        for duration in (120.0, 333.0, 3600.0):
            plan = standard_day_plan(duration=duration, seed=1)
            for phenomenon in plan.phenomena:
                assert phenomenon.end <= plan.end


class TestPackaging:
    def test_units_partition_photons_completely(self, photons_small, tmp_path):
        units = package_units(photons_small, tmp_path, unit_target_photons=5000)
        assert sum(unit.n_photons for unit in units) == len(photons_small)
        assert len(units) == int(np.ceil(len(photons_small) / 5000))

    def test_units_are_time_ordered_and_disjoint(self, photons_small, tmp_path):
        units = package_units(photons_small, tmp_path, unit_target_photons=5000)
        for previous, current in zip(units, units[1:]):
            assert previous.end <= current.start + 1e-6

    def test_unit_files_decode_back(self, photons_small, tmp_path):
        from repro.fits import read

        units = package_units(photons_small, tmp_path, unit_target_photons=100_000)
        restored = PhotonList.from_fits(read(units[0].path))
        assert len(restored) == units[0].n_photons

    def test_empty_photons_yield_no_units(self, tmp_path):
        empty = PhotonList(np.array([]), np.array([]), np.array([]))
        assert package_units(empty, tmp_path) == []

    def test_unit_header_carries_calibration_version(self, photons_small, tmp_path):
        from repro.fits import read

        units = package_units(photons_small, tmp_path, unit_target_photons=100_000,
                              calibration_version=3)
        header = read(units[0].path).primary.header
        assert header["CALVER"] == 3


class TestDetection:
    def test_detects_flare_and_burst_and_gap(self, photons_mixed):
        events = EventDetector().detect(photons_mixed)
        kinds = {event.kind for event in events}
        assert "flare" in kinds
        assert "gamma_ray_burst" in kinds
        assert "data_gap" in kinds

    def test_detection_windows_cover_true_events(self, photons_mixed):
        events = [e for e in EventDetector().detect(photons_mixed) if e.kind != "data_gap"]
        # The mixed plan has flares at known slots; every detection must
        # contain its peak and have positive significance.
        for event in events:
            assert event.start <= event.peak_time <= event.end
            assert event.significance > 5.0
            assert event.total_counts > 0

    def test_quiet_stream_has_no_detections(self):
        plan = ObservationPlan(0.0, 400.0, background_rate=50.0)
        photons = TelemetryGenerator(plan, seed=8).generate()
        events = EventDetector().detect(photons)
        assert [event for event in events if event.kind != "data_gap"] == []

    def test_empty_stream(self):
        empty = PhotonList(np.array([]), np.array([]), np.array([]))
        assert EventDetector().detect(empty) == []

    def test_quiet_periods_between_events(self, photons_mixed):
        detector = EventDetector()
        events = detector.detect(photons_mixed)
        periods = quiet_periods(photons_mixed, events, min_duration_s=30.0)
        assert periods
        for period in periods:
            for event in events:
                if event.kind == "data_gap":
                    continue
                # No overlap with detected events.
                assert period.end <= event.start or period.start >= event.end

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EventDetector(bin_width_s=0)
        with pytest.raises(ValueError):
            EventDetector(threshold_sigma=-1)


class TestCalibration:
    def test_identity_calibration_is_noop(self, photons_small):
        calibrated = Calibration.identity().apply(photons_small)
        assert np.allclose(calibrated.energies, photons_small.energies)

    def test_gain_scales_energy(self, photons_small):
        calibration = Calibration(2, gains=(1.1,) * 9, offsets=(0.0,) * 9)
        calibrated = calibration.apply(photons_small)
        assert np.allclose(calibrated.energies, photons_small.energies * 1.1, rtol=1e-5)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Calibration(2, gains=(1.0,) * 3, offsets=(0.0,) * 3)
        with pytest.raises(ValueError):
            Calibration(2, gains=(0.0,) * 9, offsets=(0.0,) * 9)

    def test_composed_correction_equals_direct(self, photons_small):
        v2 = Calibration(2, gains=(1.05,) * 9, offsets=(0.3,) * 9)
        v3 = Calibration(3, gains=(0.98,) * 9, offsets=(-0.1,) * 9)
        direct = v3.apply(photons_small)
        via_v2 = v3.compose_correction(v2).apply(v2.apply(photons_small))
        assert np.allclose(direct.energies, via_v2.energies, rtol=1e-5)

    def test_history_versions_and_lineage(self, photons_small):
        history = CalibrationHistory()
        assert history.current_version == 1
        history.publish((1.02,) * 9, (0.5,) * 9, note="drift fix")
        assert history.current_version == 2
        corrected, record = history.recalibrate(photons_small, "unit-x", from_version=1)
        assert record.from_version == 1 and record.to_version == 2
        assert record.n_photons == len(photons_small)
        assert history.records == [record]
        assert not np.allclose(corrected.energies, photons_small.energies)

    def test_unknown_version_rejected(self):
        with pytest.raises(KeyError):
            CalibrationHistory().get(99)

    @given(gain=st.floats(min_value=0.5, max_value=2.0),
           offset=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_correction_round_trip_property(self, gain, offset):
        """Correcting v1->v2 then v2->v1 recovers the original energies."""
        base = PhotonList(
            np.arange(20.0),
            np.linspace(5, 500, 20).astype(np.float32),
            np.tile(np.arange(1, 5), 5).astype(np.int16),
        )
        v1 = Calibration.identity()
        v2 = Calibration(2, gains=(gain,) * 9, offsets=(offset,) * 9)
        forward = v2.compose_correction(v1).apply(base)
        backward = v1.compose_correction(v2).apply(forward)
        assert np.allclose(backward.energies, base.energies, rtol=1e-4, atol=1e-3)
