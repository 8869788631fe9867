"""Table III: hardware overhead of MEEK vs the DSN'18 estimate.

Paper figures at TSMC 28nm: BOOM 2.811 mm²; optimized Rocket
0.092 mm² each (excluding L1 D$); DEU 0.071 mm²; F2 0.051 mm²
(together the 0.122 mm² big-core wrapper, 4.3% of BOOM); per-little
wrapper 0.059 mm²; total overhead with four little cores 0.726 mm² =
25.8%.  The DSN'18 comparison column: a Cortex-A57 (3.905 mm² scaled
to 28nm) with twelve 0.078 mm² Rockets, 24% claimed overhead.
"""

from repro.analysis.area import (
    DSN18_COMPARISON,
    boom_area_mm2,
    lockstep_scale_factor,
    meek_area_report,
    rocket_area_mm2,
)
from repro.analysis.report import format_table
from repro.campaign import CampaignPoint
from repro.common.config import (
    default_meek_config,
    default_rocket_config,
)
from repro.experiments.common import metrics_by_id, spec_of


def compute_report(meek_config=None):
    """Compute the Table III rows from the area model (direct path;
    also the body of the ``tab3`` campaign task)."""
    config = meek_config if meek_config is not None else default_meek_config()
    report = meek_area_report(config)
    report["default_rocket_mm2"] = rocket_area_mm2(default_rocket_config())
    report["lockstep_scale_factor"] = lockstep_scale_factor(config)
    report["lockstep_core_mm2"] = boom_area_mm2(
        config.big_core.scaled(report["lockstep_scale_factor"]))
    report["dsn18"] = dict(DSN18_COMPARISON)
    return report


def points(dynamic_instructions=None):
    """Table III as one analysis point.  The area model simulates
    nothing, so ``dynamic_instructions`` is accepted (every figure
    takes it) and ignored."""
    return spec_of("tab3", [CampaignPoint(task="tab3")])


def reduce(spec, result):
    """The report of the single point."""
    [report] = metrics_by_id(spec, result).values()
    return report


def format_results(report):
    dsn18 = report["dsn18"]
    rows = [
        ["Big core", "BOOM", 1, report["big_core_mm2"],
         dsn18["big_core"], 1, dsn18["big_area_mm2_at_28nm"]],
        ["Little core", "Rocket(opt)", report["little_count"],
         report["little_core_mm2"], dsn18["little_core"],
         dsn18["little_count"], dsn18["little_area_mm2_at_28nm"]],
        ["Wrapper (big)", "DEU+F2", 1, report["big_wrapper_mm2"],
         "-", "-", "-"],
        ["Wrapper (little)", "LSL+MSU", report["little_count"],
         report["little_wrapper_mm2"], "-", "-", "-"],
        ["Overhead", "", "", f"{report['overhead_fraction']:.1%}",
         "", "", f"{dsn18['overhead']:.0%}"],
    ]
    return format_table(
        ["component", "impl", "count", "mm2 (ours)", "impl (DSN'18)",
         "count'", "mm2 @28nm"],
        rows,
        title="Table III — hardware overhead (28nm)")
