"""Fig. 10: little-core performance/area, optimized vs default Rocket.

Paper: widening the bottlenecked components (8-unroll divider, 3-stage
pipelined FPU) improves the little core's performance/area by 15.2%
geomean on PARSEC, with the biggest wins on division-heavy workloads.
"""

from repro.experiments import fig10_perf_area, run

DYNAMIC_INSTRUCTIONS = 12_000


def test_fig10_perf_area(once):
    rows = once(run, "fig10",
                dynamic_instructions=DYNAMIC_INSTRUCTIONS)
    print()
    print(fig10_perf_area.format_results(rows))

    improvement = fig10_perf_area.geomean_improvement(rows)
    # Geomean improvement in the paper's 15.2% ballpark.
    assert 0.05 < improvement < 0.40
    by_name = {r.name: r for r in rows}
    # The divider-bound workload benefits the most.
    assert by_name["swaptions"].improvement == max(r.improvement
                                                   for r in rows)
    # The optimized core is never slower in raw IPC.
    for row in rows:
        assert row.optimized_ipc >= row.default_ipc * 0.999
