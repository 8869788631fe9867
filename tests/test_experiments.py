"""Smoke + shape tests for the experiment drivers (small inputs).

The full-size regenerations live in ``benchmarks/``; here we verify the
drivers run end-to-end, produce well-formed rows, and keep the paper's
qualitative orderings even at reduced scale.
"""

import pytest

from repro.experiments import (
    fig6_performance,
    fig7_latency,
    fig8_scalability,
    fig9_backpressure,
    run,
    tab3_area,
)

SMALL = 5000
WORKLOADS = ["hmmer", "swaptions"]
PARSEC_SUBSET = ["blackscholes", "swaptions"]


class TestFig6:
    def test_rows_and_formatting(self):
        rows = run("fig6", dynamic_instructions=SMALL,
                   workloads=WORKLOADS)
        assert len(rows) == 2
        for row in rows:
            assert row.meek >= 0.99
            assert row.lockstep > 1.0
            assert row.nzdc is None or row.nzdc > 1.0
        text = fig6_performance.format_results(rows)
        assert "hmmer" in text and "MEEK" in text

    def test_nzdc_failures_respected(self):
        rows = run("fig6", dynamic_instructions=SMALL,
                   workloads=["gcc"])
        assert rows[0].nzdc is None

    def test_ordering_meek_best(self):
        rows = run("fig6", dynamic_instructions=SMALL,
                   workloads=["hmmer"])
        row = rows[0]
        assert row.meek < row.lockstep < row.nzdc


class TestFig7:
    def test_campaign_produces_latencies(self):
        rows = run("fig7", dynamic_instructions=SMALL,
                   runs_per_workload=2,
                   injection_rate=0.05,
                   workloads=PARSEC_SUBSET)
        assert sum(r.injections for r in rows) > 0
        agg = fig7_latency.aggregate(rows)
        assert agg["detection_rate"] > 0.3
        for row in rows:
            for latency in row.latencies_ns:
                assert latency >= 0.0

    def test_histogram_normalized(self):
        rows = run("fig7", dynamic_instructions=SMALL,
                   runs_per_workload=1,
                   injection_rate=0.05,
                   workloads=["dedup"])
        bins = fig7_latency.histogram(rows)
        if bins:
            assert sum(d for _, d in bins) == pytest.approx(1.0)

    def test_formatting(self):
        rows = run("fig7", dynamic_instructions=SMALL,
                   runs_per_workload=1,
                   injection_rate=0.05,
                   workloads=["dedup"])
        text = fig7_latency.format_results(rows)
        assert "aggregate" in text


class TestFig8:
    def test_scaling_direction(self):
        rows = run("fig8", dynamic_instructions=SMALL,
                   core_counts=(2, 6),
                   workloads=PARSEC_SUBSET)
        for row in rows:
            assert row.slowdowns[2] >= row.slowdowns[6] - 0.01
        means = fig8_scalability.geomeans(rows, (2, 6))
        assert means[2] >= means[6]

    def test_formatting(self):
        rows = run("fig8", dynamic_instructions=SMALL,
                   core_counts=(2, 4),
                   workloads=["swaptions"])
        text = fig8_scalability.format_results(rows, (2, 4))
        assert "2-core" in text


class TestFig9:
    def test_axi_worse_than_f2(self):
        rows = run("fig9", dynamic_instructions=SMALL,
                   workloads=PARSEC_SUBSET)
        means = fig9_backpressure.geomeans(rows)
        assert means["axi"] > means["f2"]

    def test_fraction_fields_nonnegative(self):
        rows = run("fig9", dynamic_instructions=SMALL,
                   workloads=["dedup"])
        for row in rows:
            assert row.collecting_fraction >= 0
            assert row.forwarding_fraction >= 0
            assert row.little_core_fraction >= 0


class TestFig10:
    def test_swaptions_benefits_most(self):
        rows = run("fig10", dynamic_instructions=SMALL,
                   workloads=PARSEC_SUBSET)
        by_name = {r.name: r for r in rows}
        assert by_name["swaptions"].improvement > \
            by_name["blackscholes"].improvement - 0.5

    def test_optimized_never_slower(self):
        rows = run("fig10", dynamic_instructions=SMALL,
                   workloads=PARSEC_SUBSET)
        for row in rows:
            assert row.optimized_ipc >= row.default_ipc * 0.99


class TestTab3:
    def test_report_keys(self):
        report = run("tab3")
        assert report["overhead_fraction"] == pytest.approx(0.258, abs=0.005)
        assert report["dsn18"]["little_count"] == 12

    def test_formatting(self):
        text = tab3_area.format_results(run("tab3"))
        assert "25.8%" in text
        assert "Cortex-A57" in text
