"""Ablations over MEEK's design parameters (context for the paper's
Sec. V-D analysis).

Checks that each design choice behaves as the paper's reasoning
predicts: shrinking the LSL multiplies checkpoints and collecting
stalls; the 5000-instruction timeout caps segment length for
compute-heavy code; shallow DC-Buffers convert RCP bursts into commit
stalls even behind F2.
"""

from repro.experiments import ablations, run

DYNAMIC_INSTRUCTIONS = 10_000


def sweep(once, parameter):
    """The rows of one sweep out of the ablations campaign."""
    rows = once(run, "ablations", dynamic_instructions=DYNAMIC_INSTRUCTIONS)
    return [r for r in rows if r.parameter == parameter]


def test_ablation_lsl_size(once):
    rows = sweep(once, "lsl_kb")
    print()
    print(ablations.format_results(rows))
    by_size = {r.value: r for r in rows}
    # Smaller logs close segments earlier...
    assert by_size[1].segments > by_size[4].segments
    # ...which multiplies DEU collecting stalls.
    assert by_size[1].collecting_stalls > by_size[4].collecting_stalls
    # Past the evaluated 4 KB point, extra capacity buys little.
    gain_to_4 = by_size[1].slowdown - by_size[4].slowdown
    gain_past_4 = by_size[4].slowdown - by_size[8].slowdown
    assert gain_past_4 <= max(gain_to_4, 0.002)


def test_ablation_timeout(once):
    rows = sweep(once, "timeout")
    print()
    print(ablations.format_results(rows))
    by_timeout = {r.value: r for r in rows}
    # Shorter timeouts mean more, shorter segments.
    assert by_timeout[500].segments > by_timeout[5000].segments
    # The paper's 5000-instruction choice costs essentially nothing
    # vs an unbounded checkpoint.
    assert abs(by_timeout[5000].slowdown
               - by_timeout[20000].slowdown) < 0.03


def test_ablation_dc_buffer_depth(once):
    rows = sweep(once, "dc_depth")
    print()
    print(ablations.format_results(rows))
    by_depth = {r.value: r for r in rows}
    # Shallow buffers stall the commit stage on RCP bursts.
    assert by_depth[2].forwarding_stalls > by_depth[64].forwarding_stalls
    # Depth never makes things slower.
    assert by_depth[64].slowdown <= by_depth[2].slowdown + 1e-6
