"""Fig. 10: little-core performance/area — optimized vs default Rocket.

Sec. III-C / V-D: instead of scaling the little-core count, the paper
widens the bottlenecked components (8-unroll divider, 3-stage pipelined
FPU).  Four optimized cores match six default cores on the verification
job; normalized by area (the optimized core is 0.092 mm² vs 0.078 mm²)
the performance/area improves by 15.2% geomean on PARSEC.

Performance here is the little core's throughput running each
workload's instruction stream (the verification job is re-executing
exactly that stream), measured in instructions per little-core cycle.
"""

from dataclasses import dataclass

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


@dataclass
class Fig10Row:
    name: str
    optimized_ipc: float
    default_ipc: float
    optimized_perf_area: float
    default_perf_area: float

    @property
    def improvement(self):
        """Relative perf/area gain of the optimized core."""
        return self.optimized_perf_area / self.default_perf_area - 1.0


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS, seed=0,
           workloads=None):
    """The optimized and the default little core on each workload."""
    if workloads is None:
        workloads = PARSEC_ORDER
    # A deployed checker core is core + wrapper (LSL + MSU); the
    # little_ipc task includes the wrapper in its area denominator for
    # both configurations.
    return spec_of("fig10", [
        CampaignPoint(task="little_ipc", workload=name,
                      instructions=dynamic_instructions, seed=seed,
                      params={"core": kind})
        for name in workloads
        for kind in ("optimized", "default")
    ])


def reduce(spec, result):
    """One row per workload."""
    metrics = metrics_by_id(spec, result)
    rows = []
    for point in spec.points:
        if point.params["core"] != "optimized":
            continue
        opt = metrics[point.point_id]
        dfl = metrics[sibling_id(point, "little_ipc", core="default")]
        rows.append(Fig10Row(
            name=point.workload,
            optimized_ipc=opt["ipc"],
            default_ipc=dfl["ipc"],
            optimized_perf_area=opt["perf_per_mm2"],
            default_perf_area=dfl["perf_per_mm2"],
        ))
    return rows


def geomean_improvement(rows):
    return geomean(1.0 + r.improvement for r in rows) - 1.0


def format_results(rows):
    table_rows = [[r.name, r.optimized_ipc, r.default_ipc,
                   r.optimized_perf_area, r.default_perf_area,
                   f"{r.improvement:+.1%}"] for r in rows]
    table_rows.append(["geomean", "", "", "", "",
                       f"{geomean_improvement(rows):+.1%}"])
    return format_table(
        ["workload", "opt IPC", "def IPC", "opt perf/mm2", "def perf/mm2",
         "improvement"],
        table_rows,
        title="Fig. 10 — little-core performance/area (PARSEC)")
