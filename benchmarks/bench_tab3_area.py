"""Table III: hardware overhead of MEEK (TSMC 28nm figures).

Paper: BOOM 2.811 mm2; optimized Rocket 0.092 mm2 (vs default 0.078);
DEU 0.071 + F2 0.051 = 0.122 mm2 big-core wrapper (4.3% of BOOM);
little wrapper 0.059 mm2/core; total overhead 25.8% with 4 cores, vs
the DSN'18 24% estimate built on twelve little cores.
"""

import pytest

from repro.common.config import default_meek_config
from repro.experiments import run, tab3_area

def test_tab3_area(once):
    report = once(run, "tab3")
    print()
    print(tab3_area.format_results(report))

    assert report["big_core_mm2"] == pytest.approx(2.811, abs=0.01)
    assert report["little_core_mm2"] == pytest.approx(0.092, abs=0.002)
    assert report["default_rocket_mm2"] == pytest.approx(0.078, abs=0.002)
    assert report["deu_mm2"] == pytest.approx(0.071)
    assert report["f2_mm2"] == pytest.approx(0.051)
    assert report["big_wrapper_mm2"] == pytest.approx(0.122)
    assert report["overhead_fraction"] == pytest.approx(0.258, abs=0.005)
    # The DEU + F2 wrapper is ~4.3% of the BOOM.
    assert (report["big_wrapper_mm2"] / report["big_core_mm2"]
            == pytest.approx(0.043, abs=0.002))
    # Equivalent-area lockstep: the interpolated core pair matches the
    # MEEK budget.
    pair = 2 * report["lockstep_core_mm2"]
    assert pair == pytest.approx(report["total_mm2"], rel=0.02)


def test_tab3_scaling_with_core_count(once):
    """Overhead scales with little-core count (the Sec. V-F point: the
    DSN'18 budget buys only a third of the little cores in RTL)."""
    report12 = tab3_area.compute_report(
        default_meek_config(num_little_cores=12))
    report4 = tab3_area.compute_report(
        default_meek_config(num_little_cores=4))
    assert report12["overhead_fraction"] > 3 * report4["overhead_fraction"] * 0.8
    once(lambda: None)
