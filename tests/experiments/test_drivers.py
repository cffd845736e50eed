"""Per-figure experiment drivers (fast smoke-level parameterizations)."""

import pytest

from repro.crypto.bignum import backend
from repro.experiments.cdr_error import record_error_samples
from repro.experiments.congestion import run_congestion_point
from repro.experiments.intermittent import (
    intermittent_sweep,
    intermittent_timeseries,
)
from repro.experiments.latency import negotiation_rounds, rtt_comparison
from repro.experiments.overall import (
    gap_cdf_series,
    overall_dataset,
    table2_summary,
)
from repro.experiments.plan_sweep import plan_sweep
from repro.experiments.poc_cost import (
    measure_live_poc_costs,
    message_sizes,
    modelled_poc_costs,
    modelled_verifier_throughput_per_hour,
)
from repro.experiments.report import (
    cdf_points,
    cdf_summary,
    percentile,
    render_table,
)


class TestCongestionDriver:
    def test_gap_grows_with_background(self):
        calm = run_congestion_point(
            "webcam-udp", 0.0, seeds=(1,), cycle_duration=20.0
        )
        busy = run_congestion_point(
            "webcam-udp", 160e6, seeds=(1,), cycle_duration=20.0
        )
        assert busy.record_gap_mb_per_hr > calm.record_gap_mb_per_hr
        assert busy.legacy_gap_ratio > calm.legacy_gap_ratio

    def test_optimal_flat_under_congestion(self):
        busy = run_congestion_point(
            "webcam-udp", 160e6, seeds=(1, 2), cycle_duration=20.0
        )
        assert busy.tlc_optimal_gap_ratio < busy.legacy_gap_ratio


class TestIntermittentDriver:
    def test_timeseries_has_samples_and_outages(self):
        trace = intermittent_timeseries(duration=60.0, seed=3)
        assert len(trace.samples) == 60
        assert trace.total_outage_time > 0
        assert trace.final_gap_mb >= 0

    def test_gap_accumulates_monotonically(self):
        trace = intermittent_timeseries(duration=60.0, seed=3)
        gaps = [s.cumulative_gap_mb for s in trace.samples]
        assert all(b >= a - 0.2 for a, b in zip(gaps, gaps[1:]))

    def test_sweep_gap_grows_with_eta(self):
        points = intermittent_sweep(
            etas=(0.05, 0.15), seeds=(1, 2), cycle_duration=40.0
        )
        assert points[1].legacy_gap_ratio > points[0].legacy_gap_ratio
        assert (
            points[1].tlc_optimal_gap_ratio < points[1].legacy_gap_ratio
        )


class TestOverallDriver:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return overall_dataset(
            apps=("webcam-udp", "vridge"),
            conditions=((0.0, 0.0), (160e6, 0.05)),
            seeds=(1,),
            cycle_duration=20.0,
        )

    def test_dataset_shape(self, outcomes):
        assert len(outcomes) == 4

    def test_table2_ordering(self, outcomes):
        rows = table2_summary(outcomes)
        for row in rows:
            assert (
                row.tlc_optimal_gap_mb_per_hr
                < row.legacy_gap_mb_per_hr
            )
            assert row.optimal_reduction > 0.3

    def test_cdf_series_keys(self, outcomes):
        series = gap_cdf_series(outcomes, "vridge")
        assert set(series) == {"legacy", "tlc-random", "tlc-optimal"}
        assert all(len(v) == 2 for v in series.values())


class TestPlanSweepDriver:
    def test_reduction_shrinks_with_c(self):
        results = plan_sweep(
            c_values=(0.0, 1.0),
            seeds=(1, 2),
            backgrounds_bps=(120e6,),
            cycle_duration=20.0,
        )
        assert results[0].mean_reduction > results[1].mean_reduction
        # c=1: TLC equals honest legacy, so the reduction vanishes.
        assert abs(results[1].mean_reduction) < 0.02


class TestLatencyDriver:
    def test_tlc_adds_no_rtt(self):
        measurements = rtt_comparison(devices=("EL20",), probes=30)
        m = measurements[0]
        assert m.samples > 0
        assert abs(m.overhead_ms) < 1.0

    def test_devices_have_distinct_rtts(self):
        measurements = rtt_comparison(
            devices=("EL20", "Pixel2XL"), probes=30
        )
        assert (
            measurements[0].rtt_ms_without_tlc
            < measurements[1].rtt_ms_without_tlc
        )

    def test_optimal_one_round_random_more(self):
        rows = negotiation_rounds(
            apps=("webcam-udp",), seeds=tuple(range(1, 9)),
            cycle_duration=15.0,
        )
        row = rows[0]
        assert row.optimal_rounds_mean == 1.0
        assert 1.5 < row.random_rounds_mean < 6.0


class TestPocCostDriver:
    def test_message_sizes_match_paper(self):
        sizes = message_sizes()
        assert sizes["lte-cdr"] == 34
        assert sizes["tlc-cdr"] == 199
        assert sizes["tlc-cda"] == 398
        assert sizes["tlc-poc"] == 796
        assert sizes["total-signaling"] == 1393

    def test_modelled_costs_track_paper_means(self):
        costs = {
            c.device: c for c in modelled_poc_costs(samples=400, seed=5)
        }
        # Paper: 65.8 / 105.5 / 93.7 ms negotiation means.
        assert costs["EL20"].negotiation_mean_ms == pytest.approx(
            65.8, rel=0.15
        )
        assert costs["Pixel2XL"].negotiation_mean_ms == pytest.approx(
            105.5, rel=0.15
        )
        assert costs["S7Edge"].negotiation_mean_ms == pytest.approx(
            93.7, rel=0.15
        )
        # Paper: 23.2 / 75.6 / 58.3 / 15.7 ms verification means.
        assert costs["Z840"].verification_mean_ms == pytest.approx(
            15.7, rel=0.15
        )

    def test_modelled_throughput_near_230k(self):
        assert modelled_verifier_throughput_per_hour(
            "Z840"
        ) == pytest.approx(230_000, rel=0.05)

    def test_live_negotiation_and_verification(self):
        measured = measure_live_poc_costs(iterations=3)
        assert measured.poc_bytes == 796
        assert measured.backend == backend()
        assert measured.verification_ms_mean > 0
        assert measured.verifications_per_hour > 100_000


class TestCdrErrorDriver:
    def test_errors_in_paper_ballpark(self):
        samples = record_error_samples(
            seeds=tuple(range(1, 9)), cycle_duration=30.0, app="webcam-udp"
        )
        assert 0.001 < samples.operator_mean < 0.08
        assert 0.001 < samples.edge_mean < 0.06
        assert samples.operator_percentile(95) < 0.20


class TestReportHelpers:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_percentile_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_cdf_summary_text(self):
        text = cdf_summary("gap", [1.0, 2.0, 3.0], unit="MB")
        assert "n=3" in text
        assert "mean=2.000MB" in text

    def test_cdf_points_are_monotone(self):
        points = cdf_points([5.0, 1.0, 3.0, 2.0], steps=10)
        values = [v for v, _ in points]
        assert values == sorted(values)
        assert points[0][1] == 0.0
        assert points[-1][1] == 1.0
