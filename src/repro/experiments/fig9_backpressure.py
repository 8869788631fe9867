"""Fig. 9: backpressure decomposition — AXI-Interconnect vs F2.

The paper's first implementation used a full-featured AXI interconnect
and measured a 16.7% geomean overhead on PARSEC with 4 little cores —
the 128-bit single-packet-per-cycle bus in the slow clock domain is the
system bottleneck.  Replacing it with F2 (256-bit, two packets/cycle,
multicast) cuts data collection + forwarding to under 5% and shifts
MEEK to being computation-bound (checker-limited).

The decomposition splits each configuration's slowdown into the three
commit-gating sources the controller tracks: data collecting (DEU PRF
reads at RCPs), data forwarding (DC-Buffer/fabric backpressure), and
little-core availability.
"""

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.analysis.stats import geomean
from repro.campaign import CampaignPoint
from repro.core.controller import StallReason
from repro.experiments.common import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    metrics_by_id,
    sibling_id,
    spec_of,
)
from repro.workloads.profiles import PARSEC_ORDER

FABRICS = ("f2", "axi")


@dataclass
class Fig9Row:
    name: str
    fabric: str
    slowdown: float
    collecting_fraction: float
    forwarding_fraction: float
    little_core_fraction: float


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS, seed=0,
           workloads=None, fabrics=FABRICS):
    """A vanilla baseline plus one MEEK point per fabric, per
    workload."""
    if workloads is None:
        workloads = PARSEC_ORDER
    grid = []
    for name in workloads:
        grid.append(CampaignPoint(
            task="vanilla", workload=name,
            instructions=dynamic_instructions, seed=seed))
        for fabric in fabrics:
            grid.append(CampaignPoint(
                task="meek", workload=name,
                instructions=dynamic_instructions, seed=seed,
                params={"fabric": fabric}))
    return spec_of("fig9", grid)


def reduce(spec, result):
    """One row per (workload, fabric)."""
    metrics = metrics_by_id(spec, result)
    rows = []
    for point in spec.points:
        if point.task != "meek":
            continue
        base = metrics[sibling_id(point, "vanilla")]["cycles"]
        meek = metrics[point.point_id]
        stalls = meek["stall_cycles"]
        rows.append(Fig9Row(
            name=point.workload,
            fabric=point.params["fabric"],
            slowdown=meek["cycles"] / base,
            collecting_fraction=(
                stalls[StallReason.COLLECTING.value] / base),
            forwarding_fraction=(
                stalls[StallReason.FORWARDING.value] / base),
            little_core_fraction=(
                stalls[StallReason.LITTLE_CORE.value] / base),
        ))
    return rows


def geomeans(rows, fabrics=FABRICS):
    return {fabric: geomean(r.slowdown for r in rows if r.fabric == fabric)
            for fabric in fabrics}


def forwarding_overhead(rows, fabric):
    """Geomean of (1 + collection/forwarding stall fraction) - 1: the
    paper's "data collection and forwarding" overhead component."""
    stalls = [1.0 + r.collecting_fraction + r.forwarding_fraction
              for r in rows if r.fabric == fabric]
    return geomean(stalls) - 1.0


def format_results(rows):
    table_rows = [[r.name, r.fabric, r.slowdown, r.collecting_fraction,
                   r.forwarding_fraction, r.little_core_fraction]
                  for r in rows]
    for fabric, value in geomeans(rows).items():
        table_rows.append([f"geomean({fabric})", fabric, value,
                           "", "", ""])
    return format_table(
        ["workload", "fabric", "slowdown", "collect", "forward",
         "little-core"],
        table_rows,
        title="Fig. 9 — backpressure decomposition (4 little cores)")
