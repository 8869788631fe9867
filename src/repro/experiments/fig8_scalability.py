"""Fig. 8: slowdown vs number of little cores (PARSEC).

Paper: 2 cores — 54.9% geomean slowdown; 4 cores — 4.4%; 6 cores —
0.3% (every workload under 1%); the decline is superlinear in the core
count.
"""

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.analysis.stats import geomean
from repro.campaign import CampaignPoint
from repro.experiments.common import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    metrics_by_id,
    sibling_id,
    spec_of,
)
from repro.workloads.profiles import PARSEC_ORDER

DEFAULT_CORE_COUNTS = (2, 4, 6)


@dataclass
class Fig8Row:
    name: str
    slowdowns: dict = field(default_factory=dict)  # core count -> slowdown


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS,
           core_counts=DEFAULT_CORE_COUNTS, seed=0, workloads=None):
    """A vanilla baseline plus one MEEK point per core count, per
    workload."""
    if workloads is None:
        workloads = PARSEC_ORDER
    grid = []
    for name in workloads:
        grid.append(CampaignPoint(
            task="vanilla", workload=name,
            instructions=dynamic_instructions, seed=seed))
        for cores in core_counts:
            grid.append(CampaignPoint(
                task="meek", workload=name,
                instructions=dynamic_instructions, seed=seed,
                params={"cores": cores}))
    return spec_of("fig8", grid)


def reduce(spec, result):
    """One row per workload: core count -> slowdown."""
    metrics = metrics_by_id(spec, result)
    rows = {}
    for point in spec.points:
        if point.task != "meek":
            continue
        base = metrics[sibling_id(point, "vanilla")]["cycles"]
        row = rows.setdefault(point.workload, Fig8Row(name=point.workload))
        row.slowdowns[point.params["cores"]] = (
            metrics[point.point_id]["cycles"] / base)
    return list(rows.values())


def geomeans(rows, core_counts=DEFAULT_CORE_COUNTS):
    return {cores: geomean(r.slowdowns[cores] for r in rows)
            for cores in core_counts}


def is_superlinear_decline(rows, core_counts=DEFAULT_CORE_COUNTS):
    """The paper's qualitative claim: overhead (slowdown - 1) drops by
    a growing factor as cores are added."""
    means = geomeans(rows, core_counts)
    overheads = [max(1e-9, means[c] - 1.0) for c in sorted(core_counts)]
    ratios = [overheads[i] / overheads[i + 1]
              for i in range(len(overheads) - 1)]
    return all(ratios[i + 1] >= ratios[i] * 0.5 for i in
               range(len(ratios) - 1)) and all(r > 1.0 for r in ratios)


def format_results(rows, core_counts=DEFAULT_CORE_COUNTS):
    table_rows = [[r.name] + [r.slowdowns[c] for c in core_counts]
                  for r in rows]
    means = geomeans(rows, core_counts)
    table_rows.append(["geomean"] + [means[c] for c in core_counts])
    return format_table(
        ["workload"] + [f"{c}-core" for c in core_counts],
        table_rows,
        title="Fig. 8 — slowdown vs little-core count (PARSEC)")
