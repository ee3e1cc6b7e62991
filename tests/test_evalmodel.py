"""Tests for the calibrated performance models: the *shapes* of
Figures 4-5 and Table 1 must match the paper."""

import pytest

from repro.evalmodel import (
    HISTOGRAM,
    HISTOGRAM_CONFIGS,
    IMAGING,
    IMAGING_CONFIGS,
    figure4_series,
    figure5_series,
    print_figure4,
    print_figure5,
    print_table1,
    simulate_browsing,
    simulate_processing,
    table1_histogram,
    table1_imaging,
)


@pytest.fixture(scope="module")
def fig4():
    return figure4_series()


@pytest.fixture(scope="module")
def fig5():
    return figure5_series()


@pytest.fixture(scope="module")
def imaging_rows():
    return table1_imaging()


@pytest.fixture(scope="module")
def histogram_rows():
    return table1_histogram()


#: The exact text of the two browsing tables.  The model draws no random
#: numbers, so any change to the simulation that moves a figure shows
#: here, not only one that leaves the paper's tolerances.
_FIGURE4_TEXT = (
    "Figure 4 - browse throughput vs clients (single middle-tier server)\n"
    " clients    req/s   db q/s   resp s   cpu%    db%\n"
    "      16     16.6    115.9     0.97    100     96\n"
    "      32      8.7     60.9     3.67    100     50\n"
    "      48      5.9     41.4     8.12     99     34\n"
    "      64      4.5     31.4    14.30     99     25\n"
    "      80      3.7     25.6    22.23     99     20\n"
    "      96      3.0     21.1    31.88     98     17"
)
_FIGURE5_TEXT = (
    "Figure 5 - browse throughput vs middle-tier servers (96 clients)\n"
    " nodes    req/s   db q/s   resp s    db%\n"
    "     1      3.0     21.1    31.88     17\n"
    "     2     11.8     82.4     8.10     67\n"
    "     3     17.1    119.8     5.60     99\n"
    "     5     17.1    120.0     5.60    100"
)


class TestBrowsingGolden:
    def test_figure4_prints_the_pinned_table(self, fig4):
        assert print_figure4(fig4) == _FIGURE4_TEXT

    def test_figure5_prints_the_pinned_table(self, fig5):
        assert print_figure5(fig5) == _FIGURE5_TEXT


class TestFigure4:
    def test_peak_at_16_clients(self, fig4):
        """~16 clients saturate a single web server (paper §7.3)."""
        peak = fig4[0]
        assert peak.n_clients == 16
        assert 14.0 <= peak.throughput_rps <= 18.0
        # The peak is DB-bound: ~120 queries/s.
        assert peak.db_queries_per_s == pytest.approx(120.0, rel=0.1)

    def test_throughput_degrades_monotonically(self, fig4):
        throughputs = [result.throughput_rps for result in fig4]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_96_clients_drop_to_about_3(self, fig4):
        """"the overall throughput drops to around 3 requests per second
        at 96 clients" (§7.3)."""
        assert fig4[-1].n_clients == 96
        assert 2.4 <= fig4[-1].throughput_rps <= 3.6

    def test_degradation_caused_by_app_logic_not_db(self, fig4):
        """§7.3: "the database is not the reason for the slowdown"."""
        overloaded = fig4[-1]
        assert overloaded.middle_tier_utilization > 0.9
        assert overloaded.db_utilization < 0.5

    def test_response_time_grows_with_clients(self, fig4):
        responses = [result.avg_response_s for result in fig4]
        assert responses == sorted(responses)

    def test_printer_emits_all_rows(self, fig4):
        text = print_figure4(fig4)
        for result in fig4:
            assert str(result.n_clients) in text


class TestFigure5:
    def test_scaling_from_3_to_ceiling(self, fig5):
        """§7.3: 3 req/s at one node rising to ~18 at five nodes."""
        assert fig5[0].n_middle_tier == 1
        assert 2.4 <= fig5[0].throughput_rps <= 3.6
        assert fig5[-1].n_middle_tier == 5
        assert 15.5 <= fig5[-1].throughput_rps <= 19.0

    def test_throughput_monotone_in_nodes(self, fig5):
        throughputs = [result.throughput_rps for result in fig5]
        assert throughputs == sorted(throughputs)

    def test_five_nodes_hit_db_peak(self, fig5):
        """"These 18 requests result in around 120 HEDC database queries,
        the peak performance of the database" (§7.3)."""
        assert fig5[-1].db_queries_per_s == pytest.approx(120.0, rel=0.08)
        assert fig5[-1].db_utilization > 0.9

    def test_two_nodes_roughly_quadruple_one(self, fig5):
        # Adding a node relieves per-node session load superlinearly.
        assert fig5[1].throughput_rps > 2.5 * fig5[0].throughput_rps

    def test_printer(self, fig5):
        assert "Figure 5" in print_figure5(fig5)


_PAPER_IMAGING = {"S/1": 6027.0, "S/2": 3117.0, "C/1": 2059.0, "S+C/2+1": 1380.0}
_PAPER_HISTOGRAM = {
    "S/1": 960.0, "S/2": 655.0, "C/1": 841.0, "C/cached/1": 821.0, "S+C/2+1": 438.0,
}


def _by_key(rows):
    return {f"{row.label}/{row.concurrency}": row for row in rows}


class TestTable1Imaging:
    def test_durations_within_15_percent_of_paper(self, imaging_rows):
        rows = _by_key(imaging_rows)
        for key, paper_value in _PAPER_IMAGING.items():
            assert rows[key].overall_duration_s == pytest.approx(paper_value, rel=0.15), key

    def test_config_ordering_matches_paper(self, imaging_rows):
        rows = _by_key(imaging_rows)
        assert (
            rows["S/1"].overall_duration_s
            > rows["S/2"].overall_duration_s
            > rows["C/1"].overall_duration_s
            > rows["S+C/2+1"].overall_duration_s
        )

    def test_turnover_inverse_of_duration(self, imaging_rows):
        rows = _by_key(imaging_rows)
        assert rows["S+C/2+1"].turnover_gb_per_day > 4 * rows["S/1"].turnover_gb_per_day

    def test_single_server_uses_half_the_cpus(self, imaging_rows):
        """Table 1: S/1 shows ~50% usr CPU on the 2-CPU server."""
        rows = _by_key(imaging_rows)
        assert rows["S/1"].usr_cpu_server_pct == pytest.approx(50.0, abs=5.0)
        assert rows["S/2"].usr_cpu_server_pct > 90.0

    def test_client_cpu_saturated_for_imaging(self, imaging_rows):
        """§8.4: long CPU-bound analyses keep the client CPU busy."""
        rows = _by_key(imaging_rows)
        assert rows["C/1"].usr_cpu_client_pct > 80.0

    def test_accounting_matches_table2(self, imaging_rows):
        for row in imaging_rows:
            assert row.queries == 300
            assert row.edits == 200


class TestTable1Histogram:
    def test_durations_within_15_percent_of_paper(self, histogram_rows):
        rows = _by_key(histogram_rows)
        for key, paper_value in _PAPER_HISTOGRAM.items():
            assert rows[key].overall_duration_s == pytest.approx(paper_value, rel=0.15), key

    def test_config_ordering_matches_paper(self, histogram_rows):
        """S1 > C > C/cached > S2 > S+C (Table 1 right)."""
        rows = _by_key(histogram_rows)
        assert rows["S/1"].overall_duration_s > rows["C/1"].overall_duration_s
        assert rows["C/1"].overall_duration_s >= rows["C/cached/1"].overall_duration_s
        assert rows["C/cached/1"].overall_duration_s > rows["S/2"].overall_duration_s
        assert rows["S/2"].overall_duration_s > rows["S+C/2+1"].overall_duration_s

    def test_caching_saves_little(self, histogram_rows):
        """§8.3: "even for the data intensive histogram test, the cost of
        data movement are relatively small"."""
        rows = _by_key(histogram_rows)
        saving = 1.0 - rows["C/cached/1"].overall_duration_s / rows["C/1"].overall_duration_s
        assert 0.0 <= saving < 0.10

    def test_client_cpu_not_saturated_for_short_analyses(self, histogram_rows):
        """§8.4: "jobs are not scheduled timely to available resources
        (Table 1, right: the client CPU is not saturated)"."""
        rows = _by_key(histogram_rows)
        assert rows["C/1"].usr_cpu_client_pct < 60.0
        assert rows["S+C/2+1"].usr_cpu_client_pct < 60.0

    def test_sojourn_smallest_for_combined_config(self, histogram_rows):
        rows = _by_key(histogram_rows)
        assert rows["S+C/2+1"].avg_sojourn_s == min(
            row.avg_sojourn_s for row in histogram_rows
        )

    def test_accounting_matches_table3(self, histogram_rows):
        for row in histogram_rows:
            assert row.queries == 450
            assert row.edits == 300

    def test_printer(self, histogram_rows):
        text = print_table1(histogram_rows)
        assert "histogram" in text and "C/cached" in text


class TestModelInvariants:
    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            simulate_browsing(0)
        from repro.evalmodel import Configuration

        with pytest.raises(ValueError):
            simulate_processing(IMAGING, Configuration("none", 0, 0))

    def test_browsing_deterministic(self):
        a = simulate_browsing(32, duration_s=150.0)
        b = simulate_browsing(32, duration_s=150.0)
        assert a.throughput_rps == b.throughput_rps

    def test_all_configs_complete_all_requests(self, imaging_rows, histogram_rows):
        for row in imaging_rows:
            assert row.overall_duration_s > 0
        for row in histogram_rows:
            assert row.overall_duration_s > 0

    def test_a_browse_page_is_one_trip_batched_and_the_papers_seven_unbatched(self):
        """The usage drift check predicts a browse page from these: the
        paper's seven logical queries, riding in one round trip batched
        (`DataManager.fetch_page` makes one)."""
        from repro.evalmodel import calibration

        assert calibration.PAGE_ROUND_TRIPS_BATCHED == 1
        assert calibration.QUERIES_PER_REQUEST == 7
