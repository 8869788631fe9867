"""Metric definitions and how each is computed from what a run saw.

End-to-end metrics are host-time figures from the untraced run.
Per-layer metrics come from the traced run: layer shares of time are
fractions (of worker busy time, of master campaign time, or of the
time to first row), call counts are per finished point, and the
simulated statistics (which repeat exactly for a seed and are guarded
by the row digests) ride along.  ``BENCHMARK.json`` lists the same
names; ``perfbench/tests`` checks that the two agree.
"""

import statistics

from perfbench.calc import (busiest_source_share, self_times,
                            source_busy_min, tail_percentile)

#: (name, unit, better, bound).  Host-time bounds are wide because a
#: small shared VM drifts: the same MEEK point took 0.28 s to 0.54 s
#: over a few minutes on the 2-vCPU box the benchmark was tuned on.
END_TO_END = [
    ("points_per_s", "1/s", "higher", 0.25),
    ("sim_instrs_per_s", "instr/s", "higher", 0.25),
    ("first_row_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

STALL_REASONS = ("data_collecting", "data_forwarding", "little_core")

#: (name, unit, better)
PER_LAYER = [
    ("bigcore.run_self_frac", "frac", "lower"),
    ("perf.batch.run_self_frac", "frac", "lower"),
    ("perf.batch.lanes", "lanes", "higher"),
    ("perf.batch.evicted_frac", "frac", "lower"),
    ("perf.batch.occupancy", "frac", "higher"),
    ("campaign.tasks.scalar_points", "1/pt", "lower"),
    ("campaign.tasks.scalar_frac", "frac", "lower"),
    ("core.controller.fast_commit_calls", "1/pt", "lower"),
    ("core.controller.fast_commit_self_frac", "frac", "lower"),
    ("core.checker.advance_calls", "1/pt", "lower"),
    ("core.checker.advance_self_frac", "frac", "lower"),
    ("core.segmemo.hit_frac", "frac", "higher"),
    ("core.segmemo.advance_frac", "frac", "lower"),
    ("fabric.send_calls", "1/pt", "lower"),
    ("fabric.send_frac", "frac", "lower"),
    ("fabric.dcbuffer.push_calls", "1/pt", "lower"),
    ("fabric.dcbuffer.push_frac", "frac", "lower"),
    ("core.lsl.record_delivery_frac", "frac", "lower"),
    ("core.faults.inject_calls", "1/pt", "lower"),
    ("core.faults.inject_frac", "frac", "lower"),
    ("core.faults.injected_frac", "frac", "higher"),
] + [
    (f"core.controller.stall_cpi.{reason}", "cyc/instr", "lower")
    for reason in STALL_REASONS
] + [
    ("workloads.generate_frac", "frac", "lower"),
    ("campaign.tasks.program_cache_hit_frac", "frac", "higher"),
    ("perf.cache.compile_calls", "1/pt", "lower"),
    ("perf.cache.compile_frac", "frac", "lower"),
    ("core.system.attach_frac", "frac", "lower"),
    ("core.system.finish_frac", "frac", "lower"),
    ("campaign.results.append_frac", "frac", "lower"),
    ("obs.live.point_frac", "frac", "lower"),
    ("analysis.coverage.save_frac", "frac", "lower"),
    ("campaign.transport.rows_busiest_source_frac", "frac", "lower"),
    ("campaign.transport.source_busy_frac_min", "frac", "higher"),
    ("serve.client.submit_frac", "frac", "lower"),
    ("serve.queue_wait_frac", "frac", "lower"),
    ("campaign.remote.first_lease_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("sim_ipc", "instr/cyc", "higher"),
    ("detected_frac", "frac", "higher"),
    ("detect_latency_p50_ns", "sim-ns", "lower"),
    ("detect_latency_p95_ns", "sim-ns", "lower"),
    ("detect_latency_n", "count", "higher"),
]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def rows_of(runs):
    return [row for run in runs for row in run.rows]


def throughput(runs):
    """``(points_per_s, sim_instrs_per_s, points)``: medians over the
    run's campaigns of each campaign's rate from its start to its last
    row, in nominal-host seconds.  The median keeps a burst of host
    interference during one campaign from moving the run's figure."""
    points, rates, instr_rates = 0, [], []
    for run in runs:
        rows = [row for row in run.rows if row["ok"]]
        wall = (run.last_row - run.start) / run.slowness
        points += len(rows)
        rates.append(_ratio(len(rows), wall))
        instr_rates.append(_ratio(
            sum(row["metrics"]["instructions"] for row in rows), wall))
    if not runs:
        return 0.0, 0.0, 0
    return statistics.median(rates), statistics.median(instr_rates), points


def simulated(prefix):
    """Simulated statistics of a fixed campaign set (exact per seed)."""
    metrics = [row["metrics"] for row in rows_of(prefix) if row["ok"]]
    instructions = sum(m["instructions"] for m in metrics)
    cycles = sum(m["cycles"] for m in metrics)
    injections = sum(m.get("injections", 0) for m in metrics)
    detected = sum(m.get("detected", 0) for m in metrics)
    latencies = [lat for m in metrics for lat in m.get("latencies_ns", ())]
    p50 = tail_percentile(latencies, 0.50)
    p95 = tail_percentile(latencies, 0.95)
    out = {
        "sim_ipc": _ratio(instructions, cycles),
        "injections": injections,
        "detected_frac": _ratio(detected, injections),
        "detect_latency_p50_ns": p50[0] or 0.0,
        "detect_latency_p95_ns": p95[0] or 0.0,
        "detect_latency_n": len(latencies),
        "detect_latency_p95_beyond": p95[1],
        "detect_latency_p95_reportable": p95[2],
    }
    for reason in STALL_REASONS:
        stalls = sum(m["stall_cycles"].get(reason, 0) for m in metrics)
        out[f"core.controller.stall_cpi.{reason}"] = _ratio(stalls,
                                                            instructions)
    return out


def _span_totals(procs):
    """Per span name, summed over processes: self, total, calls."""
    totals = {}
    counters = {}
    for proc in procs:
        names = proc["names"]
        self_s, total_s, calls = self_times(proc["name"], proc["parent"],
                                            proc["start"], proc["end"],
                                            len(names))
        for i, name in enumerate(names):
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += float(self_s[i])
            entry[1] += float(total_s[i])
            entry[2] += int(calls[i])
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return totals, counters


def _first_lease_s(procs):
    """Summed wait from each master campaign start to its first
    granted runner lease."""
    waited = 0.0
    for proc in procs:
        names = proc["names"]
        if "campaign.remote.lease" not in names:
            continue
        campaign_id = names.index("campaign.executor.run_campaign")
        lease_id = names.index("campaign.remote.lease")
        leases = sorted(proc["start"][proc["name"] == lease_id])
        for start, end in zip(proc["start"][proc["name"] == campaign_id],
                              proc["end"][proc["name"] == campaign_id]):
            granted = [t for t in leases if start <= t <= end]
            if granted:
                waited += granted[0] - start
    return waited


def layer_metrics(procs, traced_runs, untraced_runs, sources, sim):
    """Every :data:`PER_LAYER` metric from spans and rows."""
    totals, counters = _span_totals(procs)

    def self_s(*names):
        return sum(totals.get(n, (0.0, 0.0, 0))[0] for n in names)

    def total_s(*names):
        return sum(totals.get(n, (0.0, 0.0, 0))[1] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0.0, 0.0, 0))[2] for n in names)

    busy = total_s("campaign.work.evaluate_units")
    master = total_s("campaign.executor.run_campaign")
    points = len(rows_of(traced_runs))
    first_rows = sum(run.first_row_s for run in traced_runs)
    pps_traced = throughput(traced_runs)[0]
    pps_untraced = throughput(untraced_runs)[0]

    def per_point(*names):
        return _ratio(calls(*names), points)

    def share(*names):
        return _ratio(self_s(*names), busy)

    out = {
        "bigcore.run_self_frac": share("bigcore.run"),
        "perf.batch.run_self_frac": share("perf.batch.run_batch"),
        "perf.batch.lanes": _ratio(counters.get("perf.batch.lanes", 0),
                                   counters.get("perf.batch.runs", 0)),
        "perf.batch.evicted_frac": _ratio(
            counters.get("perf.batch.evicted", 0),
            counters.get("perf.batch.lanes", 0)),
        "perf.batch.occupancy": _ratio(
            counters.get("perf.batch.occupancy_x_instructions", 0.0),
            counters.get("perf.batch.instructions", 0)),
        "campaign.tasks.scalar_points": per_point(
            "campaign.tasks.run_inject_point"),
        "campaign.tasks.scalar_frac": _ratio(
            total_s("campaign.tasks.run_inject_point"), busy),
        "core.controller.fast_commit_calls": per_point(
            "core.controller.fast_commit"),
        "core.controller.fast_commit_self_frac": share(
            "core.controller.fast_commit"),
        "core.checker.advance_calls": per_point("core.checker.advance"),
        "core.checker.advance_self_frac": share("core.checker.advance"),
        "core.segmemo.hit_frac": _ratio(
            counters.get("core.segmemo.hits", 0),
            counters.get("core.segmemo.advances", 0)),
        "core.segmemo.advance_frac": share("core.segmemo.memo_advance",
                                           "core.segmemo.follow_advance"),
        "fabric.send_calls": per_point("fabric.send", "fabric.send_runtime"),
        "fabric.send_frac": share("fabric.send", "fabric.send_runtime"),
        "fabric.dcbuffer.push_calls": per_point("fabric.dcbuffer.push"),
        "fabric.dcbuffer.push_frac": share("fabric.dcbuffer.push"),
        "core.lsl.record_delivery_frac": share("core.lsl.record_delivery"),
        "core.faults.inject_calls": per_point("core.faults.inject"),
        "core.faults.inject_frac": share("core.faults.inject"),
        "core.faults.injected_frac": _ratio(
            counters.get("core.faults.injected", 0),
            calls("core.faults.inject")),
        "workloads.generate_frac": _ratio(
            total_s("workloads.generate_program"), busy),
        "campaign.tasks.program_cache_hit_frac": 1.0 - _ratio(
            calls("workloads.generate_program"),
            calls("campaign.tasks.build_program"))
        if calls("campaign.tasks.build_program") else 0.0,
        "perf.cache.compile_calls": per_point("perf.cache.cached_compile"),
        "perf.cache.compile_frac": _ratio(
            total_s("perf.cache.cached_compile"), busy),
        "core.system.attach_frac": _ratio(total_s("core.system.attach"),
                                          busy),
        "core.system.finish_frac": _ratio(total_s("core.system.finish"),
                                          busy),
        "campaign.results.append_frac": _ratio(
            total_s("campaign.results.append"), master),
        "obs.live.point_frac": _ratio(total_s("obs.live.point"), master),
        "analysis.coverage.save_frac": _ratio(
            total_s("analysis.coverage.save_coverage"), master),
        "campaign.transport.rows_busiest_source_frac": statistics.fmean(
            busiest_source_share(run.rows) for run in untraced_runs),
        "campaign.transport.source_busy_frac_min": statistics.fmean(
            source_busy_min(run.rows, sources, run.end - run.start)
            for run in untraced_runs),
        "serve.client.submit_frac": _ratio(total_s("serve.client.submit"),
                                           first_rows),
        "serve.queue_wait_frac": _ratio(
            sum(run.queue_wait for run in traced_runs), first_rows),
        "campaign.remote.first_lease_frac": _ratio(_first_lease_s(procs),
                                                   first_rows),
        "trace.overhead_frac": 1.0 - _ratio(pps_traced, pps_untraced),
    }
    for name, *_ in PER_LAYER:
        if name in sim:
            out[name] = sim[name]
    path = {
        "commit_hook_calls": calls("core.controller.commit_hook"),
        "fast_commit_calls": calls("core.controller.fast_commit"),
        "batch_lanes": counters.get("perf.batch.lanes", 0),
        "busy_s": busy,
    }
    return out, path
