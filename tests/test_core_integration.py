"""Integration tests across tiers, driven through the Hedc facade."""

import threading

import pytest

from repro import Hedc
from repro.pl import Phase


class TestIngestAndBrowse:
    def test_ingest_report(self, populated_hedc):
        events = populated_hedc.events()
        assert events
        assert all(event["public"] for event in events)

    def test_standard_catalog_populated_at_load(self, populated_hedc):
        members = populated_hedc.catalog_events("standard")
        assert len(members) == len(populated_hedc.events())

    def test_events_filtered_by_kind(self, populated_hedc):
        flares = populated_hedc.events(kind="flare")
        assert flares
        assert all(event["kind"] == "flare" for event in flares)

    def test_catalog_array_over_events(self, populated_hedc):
        array = populated_hedc.catalog_array(["start_time", "peak_rate"])
        assert len(array) == len(populated_hedc.events())


class TestAnalyzeAndShare:
    def test_full_collaboration_flow(self, tmp_path):
        """Scientist analyzes, publishes; colleague reuses (§3.5)."""
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        alice = hedc.register_user("alice", "a-pw")
        bob = hedc.register_user("bob", "b-pw")
        event = hedc.events()[0]

        request = hedc.analyze(alice, event["hle_id"], "lightcurve", publish=True)
        assert request.phase is Phase.COMMITTED

        # Bob finds the published analysis instead of recomputing.
        existing = hedc.dm.semantic.find_existing_analysis(
            bob, event["hle_id"], "lightcurve"
        )
        assert existing is not None
        assert existing["ana_id"] == request.ana_id

        # The extended catalog now references the event.
        extended = hedc.catalog_events("extended")
        assert event["hle_id"] in {member["hle_id"] for member in extended}

    def test_estimate_then_analyze(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        event = hedc.events()[0]
        request = hedc.analyze(user, event["hle_id"], "histogram", estimate=True)
        assert request.plan is not None
        assert request.phase is Phase.COMMITTED

    def test_login_round_trip(self, populated_hedc):
        user = populated_hedc.login("reader", "reader-pw")
        assert user.login == "reader"


class TestWebIntegration:
    def test_thin_client_browse_sequence(self, populated_hedc):
        client = populated_hedc.thin_client()
        assert client.login("reader", "reader-pw")
        event = populated_hedc.events()[0]
        result = client.browse_hle(event["hle_id"])
        assert result.page_bytes > 0
        assert result.n_requests >= 1


class TestSynopticIntegration:
    def test_context_search_around_event(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        hedc.enable_synoptic(mission_end_s=600.0)
        event = hedc.events()[0]
        outcome = hedc.synoptic_context(event["hle_id"], margin_s=120.0)
        assert outcome.total_records > 0

    def test_synoptic_requires_enable(self, populated_hedc):
        with pytest.raises(RuntimeError):
            populated_hedc.synoptic_context(1)


class TestScaling:
    def test_add_dm_node_shares_database(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        node = hedc.add_dm_node()
        assert node.node_name == "dm1"
        # The new node sees the same data through the shared resource tier.
        events_via_node = node.semantic.find_hles(None)
        assert len(events_via_node) == len(hedc.events())

    def test_a_shut_down_hedc_leaves_no_thread_behind(self, tmp_path):
        before = set(threading.enumerate())
        hedc = Hedc.create(tmp_path / "h")
        hedc.add_dm_node()
        # Shut down as a benchmark deployment closes one.
        hedc.web.shutdown()
        hedc.idl.stop_all()
        hedc.frontend.close()
        left = [thread.name for thread in threading.enumerate()
                if thread not in before and thread.is_alive()]
        assert left == []

    def test_stats_aggregates_all_tiers(self, populated_hedc):
        stats = populated_hedc.stats()
        assert {"dm", "frontend", "idl", "web"} <= set(stats)


class TestChangeAbsorption:
    """The paper's headline: the system absorbs change (§3.1)."""

    def test_recalibration_end_to_end(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        from repro.metadb import Select

        unit = hedc.dm.io.execute(Select("raw_units"))[0]
        hedc.dm.process.publish_calibration((1.03,) * 9, (0.1,) * 9, note="v2")
        new_unit_id = hedc.dm.process.recalibrate_unit(unit["unit_id"], "main")
        assert new_unit_id != unit["unit_id"]
        # Old and new photon lists differ only in energies.
        old = hedc.dm.process.load_photons(unit["unit_id"])
        new = hedc.dm.process.load_photons(new_unit_id)
        import numpy as np

        assert np.allclose(old.times, new.times)
        assert not np.allclose(old.energies, new.energies)

    def test_archive_relocation_transparent_to_clients(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        event = hedc.events()[0]
        from repro.filestore import DiskArchive

        cold = DiskArchive("cold", tmp_path / "cold")
        hedc.dm.io.storage.register(cold)
        hedc.dm.io.names.register_archive("cold", str(cold.root))
        hedc.dm.process.relocate_archive("main", "cold")
        # Analyses keep working: data reachable through updated mapping.
        request = hedc.analyze(user, event["hle_id"], "histogram")
        assert request.phase is Phase.COMMITTED, request.error

    def test_new_analysis_type_via_strategy(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        hedc.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
        user = hedc.register_user("u", "pw")
        from repro.analysis import AnalysisProduct, render_series_pgm
        from repro.pl import AnalysisStrategy
        import numpy as np

        class HardnessStrategy(AnalysisStrategy):
            algorithm = "hardness"

            def execute(self, request, context):
                hle = context.fetch_hle(request.user, request.hle_id)
                request.hle_row = hle
                photons = context.load_photons_for(hle)
                context.check_existing(request.user, request.hle_id, self.algorithm)
                hard = photons.select_energy(25.0, 20_000.0)
                soft = photons.select_energy(3.0, 25.0)
                return len(hard) / max(len(soft), 1)

            def deliver(self, request, context):
                product = AnalysisProduct(self.algorithm, {})
                product.add_image(render_series_pgm(np.array([request.raw_result, 1.0])))
                product.summary = {"hardness": request.raw_result}
                return product

        hedc.frontend.register_strategy(HardnessStrategy())
        event = hedc.events()[0]
        request = hedc.analyze(user, event["hle_id"], "hardness")
        assert request.phase is Phase.COMMITTED, request.error
        stored = hedc.dm.semantic.get_analysis(user, request.ana_id)
        assert stored["algorithm"] == "hardness"
