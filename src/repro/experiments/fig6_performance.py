"""Fig. 6: slowdown of MEEK vs EA-LockStep vs Nzdc on SPEC06 + PARSEC.

Paper headline numbers (geomean slowdown over the vanilla big core):

=============  ======  ===========  =====
suite          MEEK    EA-LockStep  Nzdc
=============  ======  ===========  =====
SPECint 2006   1.4%    48.7%        94.2%
PARSEC 3.0     4.4%    31.2%        60.2%
=============  ======  ===========  =====

plus the swaptions outlier at 22% for MEEK.  Nzdc has no bar for gcc,
omnetpp, xalancbmk and freqmine (compilation failures, footnote 6).
"""

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import format_table
from repro.analysis.stats import geomean
from repro.campaign import CampaignPoint
from repro.experiments.common import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    metrics_by_id,
    sibling_id,
    spec_of,
)
from repro.workloads.profiles import PARSEC_ORDER, SPEC_ORDER, get_profile

#: Footnote 6 of the paper: "For Nzdc, compilation fails in gcc,
#: omnetpp, xalancbmk, and freqmine."  We reproduce the evaluation
#: protocol, including which workloads the baseline covers.
NZDC_COMPILE_FAILURES = frozenset({"gcc", "omnetpp", "xalancbmk",
                                   "freqmine"})


@dataclass
class Fig6Row:
    name: str
    suite: str
    meek: float
    lockstep: float
    nzdc: Optional[float]  # None when the baseline fails to compile


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS, seed=0,
           workloads=None):
    """The Fig. 6 campaign: vanilla, MEEK, EA-LockStep and (where it
    compiles) Nzdc on each workload."""
    if workloads is None:
        workloads = SPEC_ORDER + PARSEC_ORDER
    return spec_of("fig6", [
        CampaignPoint(task=task, workload=name,
                      instructions=dynamic_instructions, seed=seed)
        for name in workloads
        for task in ("vanilla", "meek", "lockstep", "nzdc")
        if task != "nzdc" or name not in NZDC_COMPILE_FAILURES])


def reduce(spec, result):
    """One slowdown row per workload."""
    metrics = metrics_by_id(spec, result)
    rows = []
    for point in spec.points:
        if point.task != "vanilla":
            continue
        base = metrics[point.point_id]["cycles"]

        def slowdown(task):
            return metrics[sibling_id(point, task)]["cycles"] / base

        rows.append(Fig6Row(
            name=point.workload,
            suite=get_profile(point.workload).suite,
            meek=slowdown("meek"),
            lockstep=slowdown("lockstep"),
            nzdc=(None if point.workload in NZDC_COMPILE_FAILURES
                  else slowdown("nzdc")),
        ))
    return rows


def geomeans(rows):
    """Per-suite geomean slowdowns, Nzdc over its compiling subset."""
    result = {}
    for suite in ("spec06", "parsec"):
        suite_rows = [r for r in rows if r.suite == suite]
        if not suite_rows:
            continue
        result[suite] = {
            "meek": geomean(r.meek for r in suite_rows),
            "lockstep": geomean(r.lockstep for r in suite_rows),
            "nzdc": geomean(r.nzdc for r in suite_rows
                            if r.nzdc is not None),
        }
    return result


def format_results(rows):
    """Render the Fig. 6 table (plus geomean rows)."""
    table_rows = []
    for row in rows:
        table_rows.append([row.name, row.suite, row.meek, row.lockstep,
                           row.nzdc if row.nzdc is not None else "fail"])
    for suite, values in geomeans(rows).items():
        table_rows.append([f"geomean({suite})", suite, values["meek"],
                           values["lockstep"], values["nzdc"]])
    return format_table(
        ["benchmark", "suite", "MEEK", "EA-LockStep", "Nzdc"],
        table_rows,
        title="Fig. 6 — slowdown vs vanilla big core")
