"""Fig. 7: detection-latency distribution under fault injection.

The paper injects 5,000–10,000 single-bit faults per PARSEC workload
into the data forwarded through F2 (memory-operation addresses/data and
architectural register data), without disturbing the big core, and
plots the density of injection-to-detection latencies.  Headline
claims: average below 1 µs, worst case 2.7 µs (ferret), and 3 µs
covering > 99.9% of the > 100,000 total samples.

The model reproduces the same campaign at reduced sample counts (each
run is a fresh system with a differently-seeded injector; detection
happens through the genuine log/ERCP comparison machinery).
"""

from dataclasses import dataclass, field

from repro.analysis.report import format_table, render_histogram
from repro.analysis.stats import coverage_within, density_histogram, mean
from repro.campaign import CampaignPoint
from repro.experiments.common import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    metrics_by_id,
    spec_of,
)
from repro.workloads.profiles import PARSEC_ORDER

#: Fig. 7's x-axis runs to 3000 ns in 200 ns bins.
BIN_WIDTH_NS = 200.0
MAX_LATENCY_NS = 3000.0


@dataclass
class Fig7Row:
    name: str
    injections: int
    detected: int
    latencies_ns: list = field(default_factory=list)

    @property
    def mean_ns(self):
        return mean(self.latencies_ns) if self.latencies_ns else 0.0

    @property
    def worst_ns(self):
        return max(self.latencies_ns) if self.latencies_ns else 0.0

    @property
    def detection_rate(self):
        if not self.injections:
            return 0.0
        return self.detected / self.injections


def points(dynamic_instructions=DEFAULT_DYNAMIC_INSTRUCTIONS,
           runs_per_workload=3, injection_rate=0.008, seed=0,
           workloads=None):
    """The fault-injection campaign: one point per (workload, trial).

    Each point has its own injector stream (the historical
    ``{seed}/{name}/{trial}`` key), so the grid shards freely across
    workers and batches into lockstep lanes with bit-identical rows.
    """
    if workloads is None:
        workloads = PARSEC_ORDER
    return spec_of("fig7", [
        CampaignPoint(task="inject", workload=name,
                      instructions=dynamic_instructions, seed=seed,
                      params={"rate": injection_rate, "trial": trial,
                              "rng_key": f"{seed}/{name}/{trial}"})
        for name in workloads
        for trial in range(runs_per_workload)
    ])


def reduce(spec, result):
    """One row per workload, pooling its trials."""
    metrics = metrics_by_id(spec, result)
    rows = {}
    for point in spec.points:
        m = metrics[point.point_id]
        row = rows.setdefault(point.workload, Fig7Row(
            name=point.workload, injections=0, detected=0))
        row.injections += m["injections"]
        row.detected += m["detected"]
        row.latencies_ns.extend(m["latencies_ns"])
    return list(rows.values())


def aggregate(rows):
    """The cross-workload Sec. V-B claims."""
    all_latencies = [lat for row in rows for lat in row.latencies_ns]
    injections = sum(row.injections for row in rows)
    detected = sum(row.detected for row in rows)
    return {
        "total_injections": injections,
        "total_detected": detected,
        "detection_rate": detected / injections if injections else 0.0,
        "mean_ns": mean(all_latencies) if all_latencies else 0.0,
        "worst_ns": max(all_latencies) if all_latencies else 0.0,
        "coverage_within_3us": coverage_within(all_latencies,
                                               MAX_LATENCY_NS),
    }


def histogram(rows, bin_width=BIN_WIDTH_NS, max_value=MAX_LATENCY_NS):
    """The Fig. 7 density bins over all workloads."""
    all_latencies = [lat for row in rows for lat in row.latencies_ns]
    return density_histogram(all_latencies, bin_width, max_value=max_value)


def format_results(rows):
    table = format_table(
        ["workload", "injections", "detected", "mean(ns)", "worst(ns)"],
        [[r.name, r.injections, r.detected, r.mean_ns, r.worst_ns]
         for r in rows],
        title="Fig. 7 — detection latency (4 little cores)",
        float_format="{:.0f}")
    agg = aggregate(rows)
    summary = (f"\naggregate: {agg['total_injections']} injections, "
               f"{agg['detection_rate']:.1%} detected, "
               f"mean {agg['mean_ns']:.0f} ns, "
               f"worst {agg['worst_ns']:.0f} ns, "
               f"<=3us coverage {agg['coverage_within_3us']:.3%}\n")
    return table + summary + "\n" + render_histogram(histogram(rows))
