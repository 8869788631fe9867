"""Fig. 9: backpressure decomposition — AXI-Interconnect vs F2 (PARSEC,
4 little cores).

Paper: the full-featured AXI interconnect adds 16.7% geomean overhead
(the 128-bit one-packet-per-cycle bus is the system bottleneck); F2
cuts data collection + forwarding below 5%, leaving MEEK
computation-bound.
"""

from repro.experiments import fig9_backpressure, run

DYNAMIC_INSTRUCTIONS = 12_000


def test_fig9_backpressure(once):
    rows = once(run, "fig9",
                dynamic_instructions=DYNAMIC_INSTRUCTIONS)
    print()
    print(fig9_backpressure.format_results(rows))

    means = fig9_backpressure.geomeans(rows)
    # The AXI baseline is markedly worse than F2.
    assert means["axi"] > means["f2"] + 0.05
    # With F2, collection+forwarding overhead stays below 5%.
    f2_forwarding = fig9_backpressure.forwarding_overhead(rows, "f2")
    assert f2_forwarding < 0.05
    # With AXI, it is the dominant overhead (double-digit percent).
    axi_forwarding = fig9_backpressure.forwarding_overhead(rows, "axi")
    assert axi_forwarding > 0.08
    # F2 shifts the system to computation-bound: forwarding stalls are
    # small relative to little-core stalls wherever any stalls exist.
    for row in rows:
        if row.fabric == "f2":
            assert row.forwarding_fraction < 0.02
