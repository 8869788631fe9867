"""Fig. 6: MEEK vs EA-LockStep vs Nzdc slowdowns on SPEC06 + PARSEC.

Paper: MEEK geomean 1.4% (SPEC) / 4.4% (PARSEC); EA-LockStep 48.7% /
31.2%; Nzdc 94.2% / 60.2%; swaptions is MEEK's 22% outlier; Nzdc has
no result for gcc/omnetpp/xalancbmk/freqmine.
"""

from repro.experiments import fig6_performance, run

DYNAMIC_INSTRUCTIONS = 15_000


def test_fig6_performance(once):
    rows = once(run, "fig6",
                dynamic_instructions=DYNAMIC_INSTRUCTIONS)
    print()
    print(fig6_performance.format_results(rows))

    means = fig6_performance.geomeans(rows)
    for suite in ("spec06", "parsec"):
        # Ordering: MEEK < EA-LockStep < Nzdc, as in the paper.
        assert means[suite]["meek"] < means[suite]["lockstep"]
        assert means[suite]["lockstep"] < means[suite]["nzdc"]
        # MEEK stays within single-digit-percent overheads.
        assert means[suite]["meek"] < 1.10

    by_name = {r.name: r for r in rows}
    # swaptions is the outlier, well above the PARSEC geomean.
    assert by_name["swaptions"].meek > means["parsec"]["meek"]
    # The Nzdc compile failures carry no result (footnote 6).
    for name in ("gcc", "omnetpp", "xalancbmk", "freqmine"):
        assert by_name[name].nzdc is None
