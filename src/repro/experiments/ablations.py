"""Ablations over MEEK's design parameters (Sec. V-D context).

Three sweeps over MEEK's sizing choices:

* **LSL capacity** — the 4 KB log (256 run-time records) balances
  segment length against checker memory: smaller logs close segments
  earlier, multiplying RCP traffic and DEU collecting stalls.
* **Checkpoint instruction timeout** — the 5000-instruction maximum
  bounds detection latency for compute-heavy code with little memory
  traffic.
* **DC-Buffer depth** — buffers must absorb an RCP's multi-flit status
  burst or the commit stage stalls even behind F2.
"""

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.campaign import CampaignPoint
from repro.experiments.common import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    metrics_by_id,
    sibling_id,
    spec_of,
)

DEFAULT_WORKLOAD = "dedup"
LSL_SIZES_KB = (1, 2, 4, 8)
TIMEOUTS = (500, 2000, 5000, 20000)
BUFFER_DEPTHS = (2, 4, 16, 64)

#: (swept parameter, workload, values); the parameter doubles as the
#: ``meek`` campaign-task config key.
SWEEPS = (
    ("lsl_kb", DEFAULT_WORKLOAD, LSL_SIZES_KB),
    ("timeout", "hmmer", TIMEOUTS),
    ("dc_depth", DEFAULT_WORKLOAD, BUFFER_DEPTHS),
)


@dataclass
class AblationRow:
    parameter: str
    value: object
    slowdown: float
    segments: int
    collecting_stalls: float
    forwarding_stalls: float


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS, seed=0):
    """All three sweeps as one campaign: per sweep, a vanilla baseline
    plus a MEEK point per swept value."""
    grid = []
    for parameter, workload, values in SWEEPS:
        grid.append(CampaignPoint(task="vanilla", workload=workload,
                                  instructions=dynamic_instructions,
                                  seed=seed))
        grid.extend(CampaignPoint(task="meek", workload=workload,
                                  instructions=dynamic_instructions,
                                  seed=seed, params={parameter: value})
                    for value in values)
    return spec_of("ablations", grid)


def reduce(spec, result):
    """One row per swept (parameter, value), in sweep order."""
    metrics = metrics_by_id(spec, result)
    rows = []
    for point in spec.points:
        if point.task != "meek":
            continue
        [(parameter, value)] = point.params.items()
        meek = metrics[point.point_id]
        rows.append(AblationRow(
            parameter=parameter,
            value=value,
            slowdown=(meek["cycles"]
                      / metrics[sibling_id(point, "vanilla")]["cycles"]),
            segments=meek["segments"],
            collecting_stalls=meek["stall_cycles"]["data_collecting"],
            forwarding_stalls=meek["stall_cycles"]["data_forwarding"],
        ))
    return rows


def format_results(rows):
    return format_table(
        ["parameter", "value", "slowdown", "segments", "collect", "forward"],
        [[r.parameter, r.value, r.slowdown, r.segments,
          r.collecting_stalls, r.forwarding_stalls] for r in rows],
        title="Ablations — LSL size / checkpoint timeout / DC-Buffer depth")
