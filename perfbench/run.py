"""Campaign benchmark: end-to-end points/s and per-layer attribution.

    python3 perfbench/run.py --workload inject-sparse --seed 1 \\
        --seconds 10 --trace 0

Runs one named workload (``perfbench/workloads.py``) closed loop from
this process for at least ``--seconds`` seconds, checks every stored
row and ``coverage.json`` against the serial unbatched reference
(``perfbench/reference.py``), and prints every metric with its unit
and sample count.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` — with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see ``README.md``).  The exit status is 0
only when every row matched.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: Set-up samples per run; setup_s reports their median.
SETUP_SAMPLES = 5
#: Campaigns an untraced run measures at least, so that its medians
#: have a middle value.
MIN_CAMPAIGNS = 3
#: Seconds after start by which measuring stops, whatever is running,
#: so the run always exits inside its 180-second budget.
MEASURE_DEADLINE_S = 120.0
#: Where runs keep their scratch files (inside the checkout).
SCRATCH = os.path.join(ROOT, ".perfbench_runs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env(workdir):
    """Clear every ``REPRO_*`` knob, give the run a private stepper
    cache and serve state dir, and make ``src`` importable."""
    from perfbench.tracing import TRACE_ENV
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.pop(TRACE_ENV, None)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["REPRO_SERVE_DIR"] = os.path.join(workdir, "serve-default")
    os.environ["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"),
                                                ROOT])
    return dict(os.environ)


def fleet_jobs():
    """Shards or runners per workload: at most ``nproc``, at most 2."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return nproc, max(1, min(2, nproc))


def measure(fleet, specs, seconds, min_campaigns, deadline, workdir):
    """Closed loop: run campaign after campaign, cycling through the
    distinct specs, until ``seconds`` are up and ``min_campaigns`` ran."""
    from perfbench.calc import host_slowness
    runs = []
    begin = time.perf_counter()
    before = host_slowness()
    while True:
        k = len(runs) % len(specs)
        store = os.path.join(workdir, f"run{len(runs)}.jsonl")
        run = fleet.run(k, specs[k], store, deadline)
        after = host_slowness()
        run.slowness, before = (before + after) / 2, after
        runs.append(run)
        now = time.perf_counter()
        if run.error or now > deadline:
            break
        if now - begin >= seconds and len(runs) >= min_campaigns:
            break
    return runs


def open_fleet(workload, workdir, env, jobs):
    from perfbench.fleet import PoolFleet, ServeFleet
    if workload.fleet == "pool":
        return PoolFleet(jobs)
    fleet = ServeFleet(workdir, env, jobs)
    fleet.start()
    return fleet


def measure_setup(workload, workdir, env, jobs):
    """``SETUP_SAMPLES`` cold set-ups, in plain host seconds: set-up is
    import and process start-up bound, which the CPU calibration does
    not track.  For serve the last fleet stays up for measuring
    (``None`` for pool, which builds its own)."""
    from perfbench.fleet import ServeFleet, probe_pool_setup
    samples = []
    fleet = None
    for i in range(SETUP_SAMPLES):
        if workload.fleet == "pool":
            samples.append(probe_pool_setup(jobs, env))
            continue
        fleet = ServeFleet(os.path.join(workdir, f"setup{i}"), env, jobs)
        try:
            samples.append(fleet.start())
        except RuntimeError:
            fleet.close()
            raise
        if i < SETUP_SAMPLES - 1:
            fleet.close()
    return samples, fleet


def verify(runs, specs, references):
    """``(attempted, failed, problems)``: a point fails when it errored,
    is missing, or its row digest differs from the reference; a
    ``coverage.json`` that differs is a problem of its campaign."""
    from perfbench.calc import bytes_digest, row_digest
    attempted = failed = 0
    problems = []
    for i, run in enumerate(runs):
        reference = references[run.k]
        attempted += len(specs[run.k].points)
        digests = {row["point_id"]: row_digest(row)
                   for row in run.rows if row["ok"]}
        for point, expected in zip(specs[run.k].points,
                                   reference["points"]):
            if expected is None or digests.get(point.point_id) != expected:
                failed += 1
        if bytes_digest(run.coverage) != reference["coverage"]:
            problems.append(f"campaign run {i}: coverage.json digest "
                            f"differs from the reference")
        if run.error:
            problems.append(f"campaign run {i}: {run.error}")
    return attempted, failed, problems


def _fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose "
              f"from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="r", dir=SCRATCH)
    try:
        return _run(args, WORKLOADS[args.workload], workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir, started):
    import numpy

    from perfbench import reference, report
    from perfbench.fleet import peak_rss_mb, probe_pool_setup
    from perfbench.tracing import UNTRACEABLE

    env = hermetic_env(workdir)
    nproc, jobs = fleet_jobs()
    specs = [workload.build(args.seed, k) for k in range(workload.distinct)]
    deadline = started + MEASURE_DEADLINE_S
    print(f"perfbench: {workload.name} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace} — {workload.why}")
    print(f"env: nproc {nproc}, {jobs} shards/runners, python "
          f"{platform.python_version()}, numpy {numpy.__version__}")
    # Warm the private stepper cache before anything is timed.
    probe_pool_setup(jobs, env)

    setups = []
    if args.trace:
        fleet = open_fleet(workload, os.path.join(workdir, "a"), env, jobs)
    else:
        setups, fleet = measure_setup(workload, workdir, env, jobs)
        fleet = fleet or open_fleet(workload, workdir, env, jobs)
    try:
        runs = measure(fleet, specs, args.seconds,
                       max(MIN_CAMPAIGNS, workload.distinct), deadline,
                       os.path.join(workdir, "stores-a"))
        pids = fleet.pids()
        rss = peak_rss_mb(pids)
    finally:
        fleet.close()
    traced_runs, procs = [], []
    if args.trace:
        traced_runs, procs = _traced_phase(args, workload, specs, workdir,
                                           env, jobs, deadline)

    references, source = reference.load_or_compute(
        workload.name, args.seed, specs, workdir, jobs)
    attempted, failed, problems = verify(runs + traced_runs, specs,
                                         references)
    sim = report.simulated(runs[:workload.distinct])
    pps, ips, points = report.throughput(runs)
    first_rows = [run.first_row_s for run in runs]
    print(f"reference: {source} ({len(references)} campaigns, serial "
          f"batch=1 path)")
    print(f"points_per_s          {_fmt(pps)} 1/s  (median of "
          f"{len(runs)} campaigns, n={points} points)")
    print(f"sim_instrs_per_s      {_fmt(ips)} instr/s  (median of "
          f"{len(runs)} campaigns, n={points} points)")
    print("  per campaign 1/s:    " + ", ".join(
        _fmt(report.throughput([run])[0]) for run in runs))
    print("  host slowness:       " + ", ".join(
        _fmt(run.slowness) for run in runs))
    print(f"first_row_s           {_fmt(statistics.median(first_rows))} s  "
          f"(median, n={len(first_rows)} campaigns)")
    if setups:
        print(f"setup_s               {_fmt(statistics.median(setups))} s  "
              f"(median, n={len(setups)}: "
              f"{', '.join(_fmt(s) for s in setups)})")
    print(f"peak_rss_mb           {_fmt(rss)} MB  (max of {len(pids)} "
          f"processes)")
    print(f"failed_frac           {_fmt(failed / max(1, attempted))}  "
          f"({failed} of {attempted} points)")
    print(f"sim_ipc               {_fmt(sim['sim_ipc'])} instr/cyc  "
          f"(first {workload.distinct} campaigns)")
    if sim["injections"]:
        print(f"detected_frac         {_fmt(sim['detected_frac'])}  "
              f"(n={sim['injections']} injections)")
        print(f"detect_latency_p50_ns {_fmt(sim['detect_latency_p50_ns'])} "
              f"sim-ns  (n={sim['detect_latency_n']})")
        rule = ("" if sim["detect_latency_p95_reportable"]
                else "; fewer than 10, below the reporting rule")
        print(f"detect_latency_p95_ns {_fmt(sim['detect_latency_p95_ns'])} "
              f"sim-ns  (n={sim['detect_latency_n']}, "
              f"{sim['detect_latency_p95_beyond']} beyond{rule})")
    else:
        print("detected_frac, detect_latency_p50_ns, detect_latency_p95_ns:"
              " n/a (no injections in this workload)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics, path = report.layer_metrics(procs, traced_runs, runs,
                                             jobs, sim)
        batched = specs[0].points[0].task == "inject"
        for problem in _path_problems(path, batched):
            print(f"CHECK FAILED: {problem}")
            problems.append(problem)
        print(f"per-layer: traced phase {len(traced_runs)} campaigns, "
              f"{len(report.rows_of(traced_runs))} points, spans from "
              f"{len(procs)} processes; untraced phase {len(runs)} "
              f"campaigns")
        print("not traceable from outside: " + "; ".join(UNTRACEABLE))
        units = {name: unit for name, unit, _ in report.PER_LAYER}
        for name, unit in units.items():
            print(f"{name:44s} {_fmt(metrics[name])} {unit}")
    else:
        metrics = {"points_per_s": pps, "sim_instrs_per_s": ips,
                   "first_row_s": statistics.median(first_rows),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss}
        units = {name: unit for name, unit, *_ in report.END_TO_END}
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


def _traced_phase(args, workload, specs, workdir, env, jobs, deadline):
    """The traced measurement: wrappers in this process (inherited by
    forked shards) and, through ``boot.py``, in serve and runners."""
    from perfbench.tracing import TRACE_ENV, Tracer, load_spans

    trace_dir = os.path.join(workdir, "spans")
    os.makedirs(trace_dir)
    tracer = Tracer(trace_dir).install()
    env = dict(env, **{TRACE_ENV: trace_dir})
    try:
        fleet = open_fleet(workload, os.path.join(workdir, "b"), env, jobs)
        try:
            runs = measure(fleet, specs, args.seconds, 1, deadline,
                           os.path.join(workdir, "stores-b"))
        finally:
            fleet.close()
        tracer.flush()
    finally:
        tracer.uninstall()
    return runs, load_spans(trace_dir)


def _path_problems(path, batched):
    """A wrapper must not change which path runs: the fused commit
    path must stay selected, and inject campaigns must batch."""
    problems = []
    if path["busy_s"] <= 0:
        problems.append("traced run recorded no worker time")
    if path["commit_hook_calls"]:
        problems.append(f"classic commit_hook ran "
                        f"{path['commit_hook_calls']} times: the fused "
                        f"fast_commit path was not selected")
    if not path["fast_commit_calls"]:
        problems.append("fast_commit never ran")
    if batched and not path["batch_lanes"]:
        problems.append("the batch kernel never ran")
    return problems


if __name__ == "__main__":
    sys.exit(main())
