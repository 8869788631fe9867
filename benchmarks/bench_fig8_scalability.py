"""Fig. 8: slowdown vs little-core count on PARSEC.

Paper: 2 cores 54.9% geomean slowdown, 4 cores 4.4%, 6 cores 0.3%
(every workload under 1%); superlinear decline with core count.
"""

from repro.experiments import fig8_scalability, run

DYNAMIC_INSTRUCTIONS = 12_000


def test_fig8_scalability(once):
    rows = once(run, "fig8",
                dynamic_instructions=DYNAMIC_INSTRUCTIONS)
    print()
    print(fig8_scalability.format_results(rows))

    means = fig8_scalability.geomeans(rows)
    # Two little cores cannot keep up; the overhead is tens of percent.
    assert means[2] > 1.20
    # Four bring it to a few percent.
    assert means[4] < 1.10
    # Six make it essentially vanish.
    assert means[6] < 1.02
    # Monotone improvement for every workload (small tolerance: a
    # larger NoC grid slightly lengthens routes, so saturated-free
    # workloads can wiggle by a fraction of a percent).
    for row in rows:
        assert row.slowdowns[2] >= row.slowdowns[4] - 0.005
        assert row.slowdowns[4] >= row.slowdowns[6] - 0.005
    # Overhead declines faster than linearly in core count.
    overhead2 = means[2] - 1.0
    overhead4 = means[4] - 1.0
    assert overhead4 < overhead2 / 2.0
