"""Command-line interface.

Usage (``python -m repro ...``)::

    python -m repro run swaptions --instructions 20000 --cores 4
    python -m repro inject ferret --trials 3 --cores 6 --jobs 2
    python -m repro figure fig6 --jobs 4
    python -m repro figure tab3
    python -m repro campaign --workloads dedup,ferret --seeds 0,1 \\
        --cores 2,4 --jobs 4 --out results.jsonl
    python -m repro campaign --spec campaign.json --resume --out results.jsonl
    python -m repro difftest --programs 50 --seed 7 --jobs 4 --shrink
    python -m repro difftest --self-check
    python -m repro bench --check
    python -m repro bench --trend
    python -m repro watch results.jsonl
    python -m repro inject ferret --fault-model burst:width=3 \\
        --fault-targets all --out inj.jsonl
    python -m repro coverage inj.jsonl
    python -m repro batch commands.txt
    python -m repro batch commands.txt --jobs 4
    python -m repro events summarize events.jsonl --top 5
    python -m repro campaign --spec c.json --runners 7100 --min-runners 2
    python -m repro runner --connect host:7100 --name rack2
    python -m repro serve --jobs 4 --runners 7100
    python -m repro submit --workloads dedup --seeds 0,1 --priority 5
    python -m repro queue
    python -m repro cancel 3 --pause
    python -m repro list

``run`` executes one workload under MEEK and reports slowdown and
segment statistics; ``inject`` runs a fault campaign; ``figure``
regenerates one of the paper's tables/figures; ``campaign`` executes a
declarative grid (from flags or a JSON spec) through the sharded
campaign engine; ``difftest`` fuzzes every execution model against the
golden ISA semantics (``--self-check`` injects a known fault and proves
the harness detects and shrinks it); ``bench`` measures simulation
throughput per system, writes ``BENCH_perf.json``, and with ``--check``
fails on regressions against the committed baseline; ``batch`` runs a
file (or stdin) of repro commands in **one** warm interpreter — shared
stepper caches and one persistent worker pool across all of them;
``list`` shows the available workloads.

Execution flags are declared once (``_EXEC_FLAGS``) and mean the same
on every command that takes them:

    ===================== ============================================
    ``--jobs N``          worker shards (default ``$REPRO_JOBS`` or 1);
                          any count gives bit-identical results
    ``--out FILE``        append per-point JSONL rows here
    ``--resume``          skip points already OK in ``--out``
    ``--status FILE``     live status snapshot (default
                          ``<out>.status.json``)
    ``--events FILE``     structured JSONL event log, all processes
    ``--progress``        force the stderr progress line
    ``--batch N|auto``    lockstep batch width cap for inject points
    ``--point-timeout S`` per-point wall-clock budget
    ``--runners``,        distribute chunks to remote ``repro runner``
    ``--min-runners``,    processes (see *Distributed campaigns*)
    ``--runner-wait``,
    ``--lease-timeout``
    ===================== ============================================

``inject``, ``figure``, ``campaign`` and ``difftest`` take every one:
each builds its spec and hands it to one runner, :func:`_run_spec`
(``difftest --self-check`` runs no campaign and refuses all but
``--events``).  ``serve`` takes ``--jobs``, ``--events``, ``--runners``
and ``--lease-timeout`` for the runs it serves.  ``submit`` takes
``--jobs``, ``--point-timeout`` and ``--progress`` and forwards only
what the master's ``submit`` request accepts: the master owns the
event log and the runner port, and picks the store unless ``submit
--out`` names one.

Warm path: compiled steppers are memoized on disk under
``~/.cache/repro`` (``$REPRO_CACHE_DIR`` overrides,
``REPRO_NO_DISK_CACHE=1`` disables), so every invocation after the
first starts warm; the grid-shaped commands (``inject``,
``campaign``, ``difftest``, ``figure``) additionally stream through
the persistent in-process worker pool of :mod:`repro.perf.service`,
while ``run`` — one simulation — relies on the disk cache alone.

Observability: a campaign with ``--out`` publishes an atomically
updated ``<out>.status.json`` snapshot (``--status`` overrides the
location) that ``repro watch`` tails live — incremental
detection-latency percentiles, throughput, per-shard health, ETA;
``watch --once`` prints a single snapshot for scripts and CI.
``--events FILE`` (or ``$REPRO_EVENTS``) turns on the structured
JSONL event log across every process of the run.  ``repro bench``
appends each run to ``benchmarks/BENCH_history.jsonl``; ``repro
bench --trend`` renders the per-metric trajectory.

Serving: ``repro serve`` starts the long-lived campaign master (see
:mod:`repro.serve`) — one warm worker pool shared by every submitter.
``repro submit`` sends a campaign grid over the master's local socket
(``--priority`` orders the queue, ``--detach`` just enqueues),
``repro queue`` lists runs, ``repro cancel RID`` cancels (or
``--pause`` / ``--requeue``) one, and ``repro watch RID`` follows a
run by id — live over the socket while the master is up, falling back
to the run's status snapshot / store on disk once it is not.

Distributed campaigns: ``--runners [HOST:]PORT`` on ``campaign``,
``inject``, ``figure``, ``difftest`` or ``serve`` opens a TCP runner
port; ``repro runner --connect HOST:PORT`` processes on other machines
register, lease chunks, and stream rows back — any mixture of remote
runners and local shards (``--jobs``) is bit-identical to a serial
run.  The runner port is unauthenticated: bind it only on trusted
networks.
``repro events summarize FILE`` renders an event log's per-phase
wall-time breakdown after the fact.
"""

import argparse
import sys

from repro.common.errors import ConfigError
from repro.experiments import FIGURES

_FABRICS = ("f2", "axi", "ideal")


def _csv(cast):
    """argparse type: comma-separated list of ``cast`` values."""
    def parse(text):
        return [cast(part) for part in text.split(",") if part]
    return parse


def _cmd_list(_args):
    from repro.analysis.report import format_table
    from repro.workloads import all_profiles

    rows = [[p.name, p.suite, f"{p.mix.memory_fraction:.2f}",
             f"{p.mix.fp_fraction:.2f}", p.working_set_kb,
             p.body_instructions]
            for p in all_profiles()]
    print(format_table(
        ["workload", "suite", "mem frac", "fp frac", "ws (KB)", "body"],
        rows, title="Available workloads"))
    return 0


def _cmd_run(args):
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem, run_vanilla, slowdown
    from repro.workloads import generate_program, get_profile

    program = generate_program(get_profile(args.workload),
                               dynamic_instructions=args.instructions,
                               seed=args.seed)
    vanilla = run_vanilla(program)
    config = default_meek_config(num_little_cores=args.cores,
                                 fabric_kind=args.fabric)
    result = MeekSystem(config).run(program)
    stats = result.controller.stats()
    print(f"workload        : {args.workload}")
    print(f"instructions    : {result.instructions}")
    print(f"vanilla IPC     : {vanilla.ipc:.2f}")
    print(f"slowdown        : {slowdown(result, vanilla):.3f}x "
          f"({args.cores} little cores, {args.fabric})")
    print(f"segments        : {stats['segments']} "
          f"(mean {stats['mean_segment_instrs']:.0f} instrs)")
    print(f"end reasons     : {stats['end_reasons']}")
    print(f"stall cycles    : {stats['stall_cycles']}")
    print(f"all verified    : {result.all_segments_verified}")
    return 0 if result.all_segments_verified else 1


def _progress(spec, args):
    """A stderr progress reporter when interactive (or forced)."""
    from repro.campaign import ProgressReporter
    if getattr(args, "progress", False) or sys.stderr.isatty():
        return ProgressReporter(total=len(spec.points), label=spec.name)
    return None


def _events(args):
    """Install the JSONL event log when ``--events`` was given (before
    any workers fork, so they inherit the sink)."""
    if args.events:
        from repro.obs.events import install_event_log
        install_event_log(args.events)


def _fault_params(args, prog):
    """Validated ``fault_model``/``fault_targets`` point params from the
    CLI flags — only the flags actually given land in the params, so
    default invocations keep their historical point ids and RNG keys.
    ``None`` after printing the error."""
    from repro.core.faults import parse_fault_model, parse_fault_targets

    params = {}
    try:
        if args.fault_model:
            params["fault_model"] = parse_fault_model(args.fault_model).spec
        if args.fault_targets:
            parse_fault_targets(args.fault_targets)
            params["fault_targets"] = args.fault_targets
    except ConfigError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return None
    return params


def _run_spec(spec, args, prog):
    """Run ``spec`` under the execution flags in ``args`` — the one
    path every campaign-shaped command (``inject``, ``figure``,
    ``campaign``, ``difftest``) takes to the engine.  Returns the
    :class:`~repro.campaign.CampaignResult`, or ``None`` after printing
    a usage error."""
    from repro.campaign import ResultStore, default_jobs
    from repro.obs.live import attach_live
    from repro.perf.service import get_service

    _events(args)
    if args.resume and args.out is None:
        print(f"{prog}: --resume needs --out FILE to resume from",
              file=sys.stderr)
        return None

    hub = listener = None
    if args.runners is not None:
        from repro.campaign.remote import (RunnerHub, parse_address,
                                           serve_runners)

        if parse_address(str(args.runners))[0] != "tcp":
            print(f"{prog}: --runners takes [HOST:]PORT", file=sys.stderr)
            return None
        hub = RunnerHub(lease_timeout_s=args.lease_timeout)
        try:
            listener = serve_runners(hub, args.runners)
        except OSError as exc:
            print(f"{prog}: cannot bind runner port "
                  f"{args.runners}: {exc}", file=sys.stderr)
            return None
        print(f"{prog}: accepting runners on {listener.address} "
              f"('repro runner --connect {listener.address}')",
              file=sys.stderr, flush=True)
        active = hub.wait_for(args.min_runners, timeout_s=args.runner_wait)
        if active < args.min_runners:
            print(f"{prog}: only {active} of {args.min_runners} "
                  f"runner(s) registered within {args.runner_wait:.0f}s",
                  file=sys.stderr)
            hub.close()
            listener.stop()
            return None

    # --jobs >= 2 alongside --runners is mixed mode: the service pool's
    # shards steal units from the same scheduler as the remote fleet.
    try:
        with ResultStore(path=args.out) as store:
            live = attach_live(spec, jobs=default_jobs(args.jobs),
                               store=store, status_path=args.status)
            return get_service().run_campaign(
                spec, jobs=args.jobs, store=store,
                resume_from=args.out if args.resume else None,
                progress=_progress(spec, args),
                point_timeout_s=args.point_timeout, live=live,
                batch=args.batch, hub=hub)
    finally:
        if listener is not None:
            hub.close()  # runners hear `bye` before the port closes
            listener.stop()


def _cmd_inject(args):
    from repro.analysis.coverage import CoverageMap, format_coverage
    from repro.campaign import CampaignPoint, CampaignSpec

    fault_params = _fault_params(args, "inject")
    if fault_params is None:
        return 2
    points = [
        CampaignPoint(
            task="inject", workload=args.workload,
            instructions=args.instructions, seed=args.seed,
            params={"rate": args.rate, "trial": trial,
                    "cores": args.cores, "fabric": args.fabric,
                    **fault_params,
                    "rng_key": f"cli/{args.workload}/{args.seed}/{trial}"})
        for trial in range(args.trials)
    ]
    spec = CampaignSpec(name=f"inject-{args.workload}", points=points)
    result = _run_spec(spec, args, "inject")
    if result is None:
        return 2
    for failure in result.failed:
        print(f"trial failed    : {failure.point_id}: "
              f"{(failure.error or '').splitlines()[0]}")
    injected = sum(r.metrics["injections"] for r in result.ok)
    detected = sum(r.metrics["detected"] for r in result.ok)
    latencies = [lat for r in result.ok for lat in r.metrics["latencies_ns"]]
    print(f"injections      : {injected}")
    if injected:
        print(f"detected        : {detected} ({detected / injected:.0%})")
    else:
        print("detected        : 0 (no injections)")
    if latencies:
        print(f"mean latency    : {sum(latencies) / len(latencies):.0f} ns")
        print(f"worst latency   : {max(latencies):.0f} ns")
    coverage = CoverageMap()
    for r in result.ok:
        coverage.merge_cells((r.metrics or {}).get("coverage"))
    if coverage:
        print(format_coverage(coverage, title="detection coverage"))
    return 0 if result.all_ok else 1


def _cmd_coverage(args):
    import os

    from repro.analysis.coverage import (COVERAGE_SUFFIX,
                                         coverage_from_store,
                                         coverage_path_for, format_coverage,
                                         load_coverage)

    path = args.path
    source = path
    coverage = None
    if os.path.isdir(path):
        candidates = [os.path.join(path, name)
                      for name in os.listdir(path)
                      if name.endswith(COVERAGE_SUFFIX)]
        if not candidates:
            print(f"coverage: no *{COVERAGE_SUFFIX} in {path}",
                  file=sys.stderr)
            return 2
        source = max(candidates, key=os.path.getmtime)
        coverage = load_coverage(source)
    elif path.endswith(".json") and os.path.exists(path):
        coverage = load_coverage(path)
    else:
        sibling = coverage_path_for(path)
        if os.path.exists(sibling):
            source = sibling
            coverage = load_coverage(sibling)
        elif os.path.exists(path):
            # A bare result store with no persisted sibling: replay
            # its rows (same commutative fold, identical output).
            coverage = coverage_from_store(path)
    if coverage is None:
        print(f"coverage: no coverage map at {path}", file=sys.stderr)
        return 2
    print(format_coverage(coverage, title=f"coverage — {source}"))
    # An empty map exits nonzero so CI catches a campaign that
    # silently injected nothing.
    return 0 if coverage else 1


def _resolve_campaign_spec(args, prog="campaign"):
    """Build a :class:`CampaignSpec` from ``--spec`` or the grid flags
    (shared by ``campaign`` and ``submit``); ``None`` after printing
    the error."""
    from repro.campaign import CampaignSpec

    if args.spec is not None:
        try:
            return CampaignSpec.from_file(args.spec)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"{prog}: bad spec {args.spec}: {exc}", file=sys.stderr)
            return None
    if args.workloads:
        for fabric in args.fabric:
            if fabric not in _FABRICS:
                print(f"{prog}: unknown fabric {fabric!r} "
                      f"(choose from {', '.join(_FABRICS)})",
                      file=sys.stderr)
                return None
        configs = [{"cores": cores, "fabric": fabric}
                   for cores in args.cores for fabric in args.fabric]
        injection = None
        if args.task == "inject":
            fault_params = _fault_params(args, prog)
            if fault_params is None:
                return None
            injection = {"rate": args.rate, **fault_params}
        elif args.fault_model or args.fault_targets:
            print(f"{prog}: --fault-model/--fault-targets need "
                  f"--task inject", file=sys.stderr)
            return None
        try:
            return CampaignSpec.grid(
                args.name, workloads=args.workloads,
                seeds=tuple(args.seeds), instructions=args.instructions,
                configs=configs, injection=injection, trials=args.trials,
                task=args.task)
        except ConfigError as exc:
            print(f"{prog}: bad grid: {exc}", file=sys.stderr)
            return None
    print(f"{prog}: provide --spec FILE or --workloads LIST",
          file=sys.stderr)
    return None


def _cmd_campaign(args):
    from repro.campaign import format_summary

    spec = _resolve_campaign_spec(args)
    if spec is None:
        return 2
    result = _run_spec(spec, args, "campaign")
    if result is None:
        return 2
    print(format_summary(spec, result.results,
                         corrupt_rows_skipped=result.corrupt_rows_skipped))
    return 0 if result.all_ok else 1


def _difftest_point(args, index, extra=None):
    from repro.campaign import CampaignPoint
    from repro.difftest.harness import DEFAULT_MAX_INSTRUCTIONS

    # One effective cap everywhere: the campaign task treats 0 as "use
    # the default", so the shrink predicates (which pass the raw value)
    # must see the same substitution or they would cap at 0 and never
    # reproduce anything.
    if not args.instructions or args.instructions <= 0:
        args.instructions = DEFAULT_MAX_INSTRUCTIONS
    params = {"index": index}
    if extra:
        params.update(extra)
    return CampaignPoint(task="difftest", workload="fuzz",
                         instructions=args.instructions, seed=args.seed,
                         params=params)


def _difftest_artifact(kind, mismatches, shrunk, small):
    """Regression-artifact payload for one minimized reproducer."""
    return {
        "kind": kind,
        "mismatches": mismatches,
        "original_instructions": shrunk.original_instructions,
        "shrunk_instructions": shrunk.instructions,
        "source": small.lines,
        "data": {f"{addr:#x}": value
                 for addr, value in sorted(small.data_words.items())},
    }


def _difftest_self_check(args):
    """Inject a known fault into forwarded data and prove the harness
    detects the divergence and shrinks it to a tiny reproducer."""
    from repro.campaign import evaluate_point
    from repro.difftest import (diff_program, fuzz_program_for_point,
                                shrink_fuzz_program, write_artifact)
    from repro.perf.service import get_service

    # The shrink predicate re-runs the full 5-way harness per ddmin
    # candidate; warming the service first means every candidate's
    # executors step through already-compiled makers.
    get_service().warm()
    point = _difftest_point(args, 0, {"fault_rate": 1.0,
                                      "fault_targets": "pc"})
    metrics = evaluate_point(point)
    print("self-check      : fault injection armed (rate 1.0, "
          "target srcp.pc)")
    print(f"injections      : {metrics['injections']} "
          f"({metrics['detected']} detected)")
    if not metrics["divergent"]:
        print("self-check      : FAILED — no divergence reported")
        return 1
    print(f"divergence      : {metrics['mismatches'][0]}")

    fuzz = fuzz_program_for_point(point)
    fault_key = f"{point.rng_key()}/fault"

    def predicate(program):
        report = diff_program(program, max_instructions=args.instructions,
                              fault_rate=1.0, fault_key=fault_key,
                              fault_targets="pc")
        return any(m.startswith("meek-replay") for m in report.mismatches)

    shrunk, small = shrink_fuzz_program(fuzz, predicate)
    path = write_artifact(
        args.artifacts, point.point_id,
        _difftest_artifact("self-check", metrics["mismatches"], shrunk,
                           small))
    print(f"shrunk          : {shrunk.original_instructions} -> "
          f"{shrunk.instructions} instructions")
    print(f"artifact        : {path}")

    # Every non-default fault model must also surface as a meek-replay
    # divergence through the same machinery (no shrink — the flow above
    # already proved minimization; this proves model breadth).
    for model_spec in ("burst:width=3", "correlated:span=2",
                       "stuckat:bit=20,value=1"):
        point = _difftest_point(args, 0, {"fault_rate": 1.0,
                                          "fault_targets": "pc",
                                          "fault_model": model_spec})
        metrics = evaluate_point(point)
        verdict = "divergence detected" if metrics["divergent"] else "FAILED"
        print(f"model check     : {model_spec} -> "
              f"{metrics['injections']} injection(s), {verdict}")
        if not metrics["divergent"]:
            return 1
    return 0


def _cmd_difftest(args):
    from repro.campaign import CampaignSpec
    from repro.difftest import (diff_program, fuzz_program_for_point,
                                shrink_fuzz_program, write_artifact)
    from repro.perf.service import get_service

    if args.self_check:
        # The self-check runs no campaign: an execution flag would be
        # silently ignored, so refuse it (``--events`` still logs).
        given = [flag for flag, kwargs in _EXEC_FLAGS.items()
                 if flag != "--events"
                 and getattr(args, flag[2:].replace("-", "_"))
                 != kwargs.get("default", False)]
        if given:
            print(f"difftest: --self-check does not take "
                  f"{', '.join(given)}", file=sys.stderr)
            return 2
        _events(args)
        return _difftest_self_check(args)

    points = [_difftest_point(args, i) for i in range(args.programs)]
    spec = CampaignSpec(name=f"difftest-seed{args.seed}", points=points)
    result = _run_spec(spec, args, "difftest")
    if result is None:
        return 2

    for failure in result.failed:
        print(f"point failed    : {failure.point_id}: "
              f"{(failure.error or 'error').splitlines()[-1][:70]}")
    divergent = [(point, r)
                 for point, r in zip(spec.points, result.results)
                 if r.ok and r.metrics.get("divergent")]
    for point, r in divergent:
        mismatches = r.metrics.get("mismatches", [])
        first = mismatches[0] if mismatches else "(no detail)"
        print(f"DIVERGENCE      : {point.point_id}: {first}")
        if not args.shrink:
            continue
        # Every ddmin candidate re-runs the harness in-process; warm
        # once so they all step through already-compiled makers.
        get_service().warm()
        fuzz = fuzz_program_for_point(point)

        def predicate(program):
            return diff_program(
                program, max_instructions=args.instructions).divergent

        shrunk, small = shrink_fuzz_program(fuzz, predicate)
        path = write_artifact(
            args.artifacts, point.point_id,
            _difftest_artifact("fuzz-divergence", mismatches, shrunk,
                               small))
        print(f"  shrunk        : {shrunk.original_instructions} -> "
              f"{shrunk.instructions} instructions ({path})")

    total = sum(r.metrics.get("instructions", 0) for r in result.ok)
    print(f"programs        : {len(points)}")
    print(f"instructions    : {total}")
    print(f"divergent       : {len(divergent)}")
    print(f"failed          : {len(result.failed)}")
    return 0 if not divergent and result.all_ok else 1


def _cmd_bench(args):
    from repro.perf.bench import format_bench, run_bench
    from repro.perf.regress import (check_regression, format_check,
                                    load_baseline, write_result)

    if args.trend:
        from repro.perf.history import (format_trend,
                                        format_trend_violations,
                                        load_history, trend_violations)
        records = load_history(args.history)
        print(format_trend(records, last=args.trend_last))
        violations = trend_violations(records,
                                      window=args.trend_window,
                                      tolerance=args.trend_tolerance)
        print(format_trend_violations(violations,
                                      window=args.trend_window,
                                      tolerance=args.trend_tolerance))
        return 1 if violations else 0

    figures = () if args.skip_figures else tuple(args.figures)
    result = run_bench(
        workloads=tuple(args.workloads), instructions=args.instructions,
        seed=args.seed, cores=args.cores, repeat=args.repeat,
        figures=figures, figure_instructions=args.figure_instructions,
        kernels=not args.skip_kernels,
        warm_start=not args.skip_warm_start,
        campaign=not args.skip_campaign, campaign_jobs=args.campaign_jobs,
        batch_kernel=not args.skip_batch_kernel,
        log=lambda msg: print(msg, file=sys.stderr))
    print(format_bench(result))

    status = 0
    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"bench: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        base_config = baseline.get("config", {})
        base_workloads = set(baseline.get("workloads", {}))
        if (base_config.get("instructions") != args.instructions
                or not base_workloads.issubset(result["workloads"])):
            print("bench: note: run config differs from the baseline "
                  f"(baseline: {sorted(base_workloads)} at "
                  f"{base_config.get('instructions')} instrs); floors "
                  "assume the baseline config, expect false regressions",
                  file=sys.stderr)
        violations = check_regression(result, baseline,
                                      tolerance=args.tolerance,
                                      kernel_tolerance=args.kernel_tolerance)
        print(format_check(violations, args.baseline))
        if violations:
            status = 1
    if args.out:
        import os.path
        same_file = (args.check
                     and os.path.realpath(args.out)
                     == os.path.realpath(args.baseline))
        if same_file:
            # --check treats the baseline as read-only: writing the
            # fresh numbers over it would ratchet the floor down by
            # the tolerance on every run (and lock in any regression
            # that just failed).  Updating the baseline is an explicit
            # act: run without --check, or point --out elsewhere.
            print(f"bench: --check leaves the baseline {args.out} "
                  "untouched (rerun without --check to update it)",
                  file=sys.stderr)
        else:
            write_result(result, args.out)
            print(f"bench written : {args.out}")
    if args.history:
        from repro.perf.history import append_history
        record = append_history(result, path=args.history)
        if record is not None:
            print(f"bench history : {args.history} "
                  f"(sha {record['git_sha'] or 'unknown'}, "
                  f"{len(record['metrics'])} metrics)")
    return status


def _cmd_watch(args):
    from repro.obs.watch import watch

    return watch(args.path, interval_s=args.interval, once=args.once,
                 max_wait_s=args.wait, socket_path=args.socket,
                 state_dir=args.state_dir)


def _cmd_serve(args):
    """Run (or stop) the campaign master daemon."""
    import os
    import signal

    from repro.serve.client import ServeClient, ServeError, find_socket
    from repro.serve.master import Master

    if args.stop:
        sock = find_socket(args.socket, args.state_dir)
        try:
            with ServeClient(sock, timeout=10.0) as client:
                result = client.shutdown()
        except (OSError, ServeError) as exc:
            print(f"serve: cannot stop master at {sock}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"serve: shutdown requested (master pid {result['pid']})")
        return 0

    _events(args)
    master = Master(state_dir=args.state_dir, socket_path=args.socket,
                    jobs=args.jobs, runners=args.runners,
                    lease_timeout_s=args.lease_timeout)
    try:
        recovered = master.start()
    except (OSError, RuntimeError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    for record in recovered:
        print(f"serve: recovered run {record.rid} ({record.name}) "
              f"-> requeued", file=sys.stderr)
    print(f"serve: master pid {os.getpid()} listening on "
          f"{master.socket_path}")
    if master.runner_server is not None:
        address = master.runner_server.address
        print(f"serve: accepting runners on {address} "
              f"('repro runner --connect {address}')")
    print(f"serve: state dir {master.state_dir}", flush=True)

    def _request_stop(signum, frame):
        master.request_shutdown()

    for name in ("SIGTERM", "SIGINT"):
        if hasattr(signal, name):
            signal.signal(getattr(signal, name), _request_stop)
    master.serve_forever()
    print("serve: stopped")
    return 0


def _cmd_submit(args):
    """Submit a campaign to the master and (unless detached) stream
    its rows back, finishing with the same summary ``campaign``
    prints."""
    import os

    from repro.campaign import PointResult, ResultStore, format_summary
    from repro.serve.client import ServeClient, ServeError, find_socket

    spec = _resolve_campaign_spec(args, prog="submit")
    if spec is None:
        return 2
    sock = find_socket(args.socket, args.state_dir)
    out = os.path.abspath(args.out) if args.out else None
    try:
        client = ServeClient(sock)
    except OSError as exc:
        print(f"submit: no master at {sock} ({exc}); start one with "
              f"'repro serve'", file=sys.stderr)
        return 2
    with client:
        try:
            submitted = client.submit(
                spec.to_dict(), priority=args.priority,
                stream=not args.detach, jobs=args.jobs,
                point_timeout_s=args.point_timeout, out=out)
        except ServeError as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        rid = submitted["rid"]
        print(f"submitted run {rid}: {spec.name} "
              f"({submitted['points']} points, priority "
              f"{submitted['priority']}) -> {submitted['store']}",
              flush=True)
        if args.detach:
            return 0
        progress = _progress(spec, args)
        final = None
        try:
            for event in client.events(rid=rid):
                if event["event"] == "point" and progress is not None:
                    progress(PointResult.from_row(event["row"]))
                elif (event["event"] == "state"
                      and event["state"] != "running"):
                    final = event
        except ServeError as exc:
            print(f"submit: lost the master mid-run ({exc}); the run "
                  f"continues — 'repro watch {rid}' to reattach",
                  file=sys.stderr)
            return 2
    state = final["state"] if final else "unknown"
    stored = (ResultStore.load(submitted["store"])
              if os.path.exists(submitted["store"]) else {})
    results = [stored[p.point_id] for p in spec.points
               if p.point_id in stored]
    print(format_summary(spec, results))
    if state == "done":
        return 1 if (final or {}).get("failed") else 0
    print(f"submit: run {rid} ended {state}", file=sys.stderr)
    return 2


def _cmd_queue(args):
    """Show the master's run queue and pool health."""
    from repro.analysis.report import format_table
    from repro.serve.client import ServeClient, ServeError, find_socket

    sock = find_socket(args.socket, args.state_dir)
    try:
        with ServeClient(sock, timeout=10.0) as client:
            hello = client.hello()
            runs = client.queue()
    except (OSError, ServeError) as exc:
        print(f"queue: no master at {sock} ({exc})", file=sys.stderr)
        return 2
    rows = [[run["rid"], run["state"], run["priority"], run["name"],
             f"{run['completed']}/{run['points_total']}",
             run["failed"] or ""]
            for run in runs]
    print(format_table(
        ["rid", "state", "pri", "name", "points", "failed"], rows,
        title=f"serve queue — master pid {hello['pid']}, "
              f"{len(runs)} run(s)"))
    pool = hello.get("pool")
    if pool:
        print(f"pool      : {pool['jobs']} shard(s), "
              f"{'healthy' if pool['healthy'] else 'DEGRADED'}")
    return 0


def _cmd_cancel(args):
    """Cancel (or pause/requeue) a run on the master."""
    from repro.serve.client import ServeClient, ServeError, find_socket

    method = ("requeue" if args.requeue
              else "pause" if args.pause else "cancel")
    sock = find_socket(args.socket, args.state_dir)
    try:
        with ServeClient(sock, timeout=10.0) as client:
            result = client.request(method, rid=args.rid)
    except (OSError, ServeError) as exc:
        print(f"{method}: {exc}", file=sys.stderr)
        return 2
    if result.get("interrupt"):
        print(f"run {args.rid}: {result['interrupt']} requested "
              f"(currently {result['state']}; stops at the next "
              f"point boundary)")
    else:
        print(f"run {args.rid}: {result['state']}")
    return 0


#: Commands a batch script cannot run, and why.
_NOT_IN_BATCH = {
    "batch": "nested batch is not allowed",
    "serve": "it blocks forever; start the master outside the batch",
    "runner": "it blocks forever; start it outside the batch",
}


def _script_lines(text):
    """Parse a batch script: yield ``(lineno, argv, error)`` for every
    line that is not blank or a ``#`` comment.  ``argv`` has a pasted
    ``repro`` prefix stripped; a line that cannot run yields ``None``
    and the reason instead."""
    import shlex

    for lineno, line in enumerate(text.splitlines(), 1):
        command = line.strip()
        if not command or command.startswith("#"):
            continue
        try:
            argv = shlex.split(command)
        except ValueError as exc:  # e.g. unbalanced quotes
            yield lineno, None, str(exc)
            continue
        if argv and argv[0] == "repro":  # tolerate pasted shell lines
            argv = argv[1:]
        if not argv:
            continue
        if argv[0] in _NOT_IN_BATCH:
            yield (lineno, None, f"{argv[0]} cannot run inside a batch "
                                 f"({_NOT_IN_BATCH[argv[0]]})")
        else:
            yield lineno, argv, None


def run_line(argv):
    """Run one ``repro`` command line in this process; its exit status.

    An argparse rejection returns argparse's code, and any other
    exception prints to stderr and returns 1: a failing line is that
    line's failure, never its caller's.  ``batch`` runs every script
    line through here, serially or inside the ``cli`` campaign task.
    """
    try:
        parsed = build_parser().parse_args(argv)
        return _HANDLERS[parsed.command](parsed)
    except SystemExit as exc:  # argparse rejected the line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 — see the docstring
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _batch_fanout(args, text):
    """``batch --jobs N``: fan independent script lines across shards.

    Each runnable line becomes one campaign point of the ``cli`` task
    (see :mod:`repro.campaign.tasks`) and the whole script runs through
    the ordinary campaign transport layer — the same warm worker pool,
    chunk scheduler, and determinism bookkeeping as any grid.  Captured
    stdout/stderr replay in line order afterwards, so the transcript
    reads as if the script ran serially.  Lines run concurrently and
    must therefore be independent (no line reading another's output
    file mid-script); every line always runs (``--keep-going``
    semantics), because there is no serial "first failure" to stop at.
    """
    import shlex

    from repro.campaign import CampaignPoint, CampaignSpec
    from repro.perf.service import get_service

    commands = []
    failures = 0
    for lineno, argv, error in _script_lines(text):
        if argv is None:
            print(f"batch: line {lineno}: {error}", file=sys.stderr)
            failures += 1
        else:
            commands.append((lineno, shlex.join(argv)))
    if commands:
        points = [CampaignPoint(task="cli", workload="batch",
                                params={"command": command, "line": lineno})
                  for lineno, command in commands]
        spec = CampaignSpec(name="batch", points=points)
        result = get_service().run_campaign(spec, jobs=args.jobs,
                                            progress=_progress(spec, args))
        for (lineno, command), point in zip(commands, result.results):
            print(f"batch line {lineno:<4}: {command}", file=sys.stderr)
            if point.ok:
                metrics = point.metrics or {}
                sys.stderr.write(metrics.get("stderr") or "")
                sys.stdout.write(metrics.get("stdout") or "")
                status = metrics.get("status", 0)
            else:
                print(f"batch: line {lineno}: "
                      f"{(point.error or 'error').splitlines()[-1]}",
                      file=sys.stderr)
                status = 1
            if status:
                failures += 1
                print(f"batch: line {lineno} exited {status}",
                      file=sys.stderr)
    print(f"batch           : {len(commands)} command(s), "
          f"{failures} failed")
    return 1 if failures else 0


def _cmd_batch(args):
    """Run a script of repro commands inside one warm interpreter.

    Amortizes interpreter startup, maker compilation, and worker-pool
    forking across every command: the service is warmed once, and all
    grid-shaped commands stream through the same persistent pool.
    With ``--jobs N`` the (independent) lines themselves fan out
    across the pool via the campaign transport layer — see
    :func:`_batch_fanout`.
    """
    import shlex

    from repro.perf.service import get_service

    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"batch: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2

    if args.jobs is not None and args.jobs > 1:
        return _batch_fanout(args, text)

    get_service().warm()
    ran = 0
    failures = 0
    for lineno, argv, error in _script_lines(text):
        if argv is None:
            print(f"batch: line {lineno}: {error}", file=sys.stderr)
        else:
            ran += 1
            print(f"batch line {lineno:<4}: {shlex.join(argv)}",
                  file=sys.stderr)
            status = run_line(argv)
            if not status:
                continue
            print(f"batch: line {lineno} exited {status}", file=sys.stderr)
        failures += 1
        if not args.keep_going:
            break
    print(f"batch           : {ran} command(s), {failures} failed")
    return 1 if failures else 0


def _cmd_runner(args):
    """Run a remote campaign evaluator against a master's runner port."""
    from repro.campaign.remote import run_runner

    _events(args)

    def status(message):
        print(f"runner: {message}", file=sys.stderr, flush=True)

    try:
        chunks = run_runner(args.connect, name=args.name,
                            poll_s=args.poll,
                            reconnect=not args.no_reconnect,
                            retry_s=args.retry,
                            max_chunks=args.max_chunks,
                            idle_exit_s=args.idle_exit,
                            heartbeat_s=args.heartbeat,
                            on_status=status)
    except KeyboardInterrupt:
        print("runner: interrupted", file=sys.stderr)
        return 0
    except (OSError, ConnectionError) as exc:
        print(f"runner: {exc}", file=sys.stderr)
        return 2
    print(f"runner: done ({chunks} chunk(s) evaluated)", file=sys.stderr)
    return 0


def _cmd_events(args):
    """Analyze a structured JSONL event log (``events summarize``)."""
    from repro.obs.summarize import format_events_summary, summarize_path

    summary = summarize_path(args.path)
    if summary is None:
        print(f"events: no events in {args.path}", file=sys.stderr)
        return 2
    print(format_events_summary(summary, top=args.top, source=args.path))
    return 0


def _cmd_figure(args):
    from repro.experiments import figure
    from repro.experiments.common import PointsFailed

    module = figure(args.name)
    spec = module.points(dynamic_instructions=args.instructions)
    result = _run_spec(spec, args, "figure")
    if result is None:
        return 2
    try:
        rows = module.reduce(spec, result)
    except PointsFailed as exc:
        print(f"figure: {exc}", file=sys.stderr)
        return 1
    print(module.format_results(rows))
    return 0


#: The execution flags, declared once: flag -> ``add_argument`` keyword
#: arguments.  ``inject``, ``figure``, ``campaign`` and ``difftest``
#: take them all; ``submit`` and ``serve`` take subsets (see the module
#: docstring).
_EXEC_FLAGS = {
    "--jobs": dict(type=int, default=None,
                   help="worker shards (default $REPRO_JOBS or 1)"),
    "--out": dict(default=None,
                  help="append per-point JSONL rows here (injection runs "
                       "also persist <out>.coverage.json)"),
    "--resume": dict(action="store_true",
                     help="skip points already OK in --out"),
    "--status": dict(default=None,
                     help="publish the live status snapshot here "
                          "(default: <out>.status.json when --out is "
                          "given)"),
    "--events": dict(default=None,
                     help="append structured JSONL events here (sets "
                          "$REPRO_EVENTS for all workers)"),
    "--progress": dict(action="store_true",
                       help="force the stderr progress line"),
    "--batch": dict(default=None,
                    help="lockstep batch width cap for compatible inject "
                         "points (units are sized to the fleet under "
                         "it): N, 'auto' (the default: kernel-chosen "
                         "cap), or 1 to force scalar evaluation; rows "
                         "are bit-identical either way"),
    "--point-timeout": dict(type=float, default=None,
                            help="per-point wall-clock budget (s)"),
    "--runners": dict(default=None, metavar="[HOST:]PORT",
                      help="accept remote 'repro runner' processes on "
                           "this TCP port and distribute chunks to them "
                           "(0 picks a free port; trusted networks only "
                           "— no authentication); with --jobs >= 2 a "
                           "local pool works the same queue"),
    "--min-runners": dict(type=int, default=1,
                          help="runners to wait for before starting "
                               "(with --runners)"),
    "--runner-wait": dict(type=float, default=60.0,
                          help="seconds to wait for --min-runners before "
                               "giving up"),
    "--lease-timeout": dict(type=float, default=60.0,
                            help="seconds without a row or heartbeat "
                                 "before a runner's lease expires and its "
                                 "chunk requeues (scaled up automatically "
                                 "by the per-unit evaluation budget)"),
}


def _add_exec_args(parser, flags=tuple(_EXEC_FLAGS)):
    """Add the execution flags ``flags`` (default: all of them)."""
    for flag in flags:
        parser.add_argument(flag, **_EXEC_FLAGS[flag])


def _add_fault_args(parser):
    """The fault-model flags of ``inject`` and the campaign grid."""
    parser.add_argument("--fault-model", default=None,
                        help="fault model: single (default), "
                             "burst:width=K, correlated:span=N, "
                             "stuckat[:bit=B,value=V] (grids: needs "
                             "--task inject)")
    parser.add_argument("--fault-targets", default=None,
                        help="injection targets: groups (runtime, "
                             "status, dcbuf, fabric, all) or exact "
                             "structures (runtime.addr, fabric.status, "
                             "...) (grids: needs --task inject)")


def _add_grid_args(parser):
    """The campaign-grid flags shared by ``campaign`` and ``submit``
    (everything :func:`_resolve_campaign_spec` consumes)."""
    parser.add_argument("--spec", default=None,
                        help="JSON spec file (points or grid shorthand); "
                             "overrides grid flags")
    parser.add_argument("--name", default="cli")
    parser.add_argument("--task", choices=("meek", "inject"),
                        default="meek")
    parser.add_argument("--workloads", type=_csv(str), default=[])
    parser.add_argument("--seeds", type=_csv(int), default=[0])
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--cores", type=_csv(int), default=[4])
    parser.add_argument("--fabric", type=_csv(str), default=["f2"])
    parser.add_argument("--trials", type=int, default=3,
                        help="fault-injection trials per cell")
    parser.add_argument("--rate", type=float, default=0.008)
    _add_fault_args(parser)


def _add_serve_client_args(parser, what="talking to the master"):
    """The master-discovery flags every serve thin client takes."""
    parser.add_argument("--socket", default=None,
                        help=f"master socket for {what} (default: "
                             "$REPRO_SERVE_SOCKET, the state dir's "
                             "contact file, or its serve.sock)")
    parser.add_argument("--state-dir", default=None,
                        help="serve state directory (default "
                             "$REPRO_SERVE_DIR or ~/.cache/repro/serve)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MEEK (DAC'25) reproduction: heterogeneous parallel "
                    "error detection, cycle-level model")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run_parser = sub.add_parser("run", help="run one workload under MEEK")
    run_parser.add_argument("workload")
    run_parser.add_argument("--instructions", type=int, default=20_000)
    run_parser.add_argument("--cores", type=int, default=4)
    run_parser.add_argument("--fabric", choices=_FABRICS, default="f2")
    run_parser.add_argument("--seed", type=int, default=0)

    inject_parser = sub.add_parser("inject", help="fault campaign")
    inject_parser.add_argument("workload")
    inject_parser.add_argument("--instructions", type=int, default=15_000)
    inject_parser.add_argument("--trials", type=int, default=2)
    inject_parser.add_argument("--rate", type=float, default=0.008)
    inject_parser.add_argument("--seed", type=int, default=0)
    inject_parser.add_argument("--cores", type=int, default=4)
    inject_parser.add_argument("--fabric", choices=_FABRICS, default="f2")
    _add_fault_args(inject_parser)
    _add_exec_args(inject_parser)

    figure_parser = sub.add_parser("figure",
                                   help="regenerate a paper table/figure")
    figure_parser.add_argument("name", choices=FIGURES)
    figure_parser.add_argument("--instructions", type=int, default=10_000)
    _add_exec_args(figure_parser)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a declarative grid through the sharded campaign engine")
    _add_grid_args(campaign_parser)
    _add_exec_args(campaign_parser)

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark the simulation kernel and check for regressions")
    bench_parser.add_argument("--workloads", type=_csv(str),
                              default=["swaptions", "mcf", "streamcluster"])
    bench_parser.add_argument("--instructions", type=int, default=20_000)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--cores", type=int, default=4)
    bench_parser.add_argument("--repeat", type=int, default=3,
                              help="samples per measurement (best is kept)")
    bench_parser.add_argument("--figures", type=_csv(str), default=["fig7"],
                              help="figure drivers to time")
    bench_parser.add_argument("--figure-instructions", type=int,
                              default=2_000)
    bench_parser.add_argument("--skip-figures", action="store_true")
    bench_parser.add_argument("--skip-kernels", action="store_true",
                              help="skip the fast-vs-slow kernel A/B")
    bench_parser.add_argument("--skip-warm-start", action="store_true",
                              help="skip the cold/warm CLI and batch "
                                   "subprocess measurements")
    bench_parser.add_argument("--skip-campaign", action="store_true",
                              help="skip the ephemeral-vs-persistent "
                                   "worker-pool measurement")
    bench_parser.add_argument("--campaign-jobs", type=int, default=2,
                              help="shards for the campaign-pool bench")
    bench_parser.add_argument("--skip-batch-kernel", action="store_true",
                              help="skip the lockstep-batch vs scalar "
                                   "campaign measurement")
    bench_parser.add_argument("--out", default="BENCH_perf.json",
                              help="write the result JSON here ('' skips)")
    bench_parser.add_argument("--baseline", default="BENCH_perf.json",
                              help="committed baseline for --check")
    bench_parser.add_argument("--check", action="store_true",
                              help="fail (exit 1) on regression vs the "
                                   "baseline")
    bench_parser.add_argument("--tolerance", type=float, default=0.5,
                              help="allowed fractional throughput drop")
    bench_parser.add_argument("--kernel-tolerance", type=float, default=0.5,
                              help="allowed fractional kernel-speedup drop")
    bench_parser.add_argument("--history",
                              default="benchmarks/BENCH_history.jsonl",
                              help="append each run (with git SHA) to this "
                                   "JSONL trend history ('' skips)")
    bench_parser.add_argument("--trend", action="store_true",
                              help="render the recorded per-metric "
                                   "trajectory and exit (no benchmark "
                                   "run); exits 1 when a metric's "
                                   "fitted slope regressed")
    bench_parser.add_argument("--trend-last", type=int, default=20,
                              help="history entries shown per metric "
                                   "with --trend")
    bench_parser.add_argument("--trend-window", type=int, default=6,
                              help="trailing runs the --trend slope "
                                   "check fits a line over")
    bench_parser.add_argument("--trend-tolerance", type=float,
                              default=0.15,
                              help="allowed fitted fractional decline "
                                   "over the --trend window before the "
                                   "slope check fails (exit 1)")

    difftest_parser = sub.add_parser(
        "difftest",
        help="differential fuzzing of every core model against the "
             "golden ISA semantics")
    difftest_parser.add_argument("--programs", type=int, default=50,
                                 help="number of fuzz programs")
    difftest_parser.add_argument("--seed", type=int, default=0)
    difftest_parser.add_argument("--shrink", action="store_true",
                                 help="minimize divergent programs and "
                                      "write regression artifacts")
    difftest_parser.add_argument("--self-check", action="store_true",
                                 help="inject a known fault and prove the "
                                      "harness detects and shrinks it")
    difftest_parser.add_argument("--instructions", type=int, default=10_000,
                                 help="per-executor committed-instruction "
                                      "cap")
    difftest_parser.add_argument("--artifacts",
                                 default="artifacts/difftest",
                                 help="regression-artifact directory")
    _add_exec_args(difftest_parser)

    watch_parser = sub.add_parser(
        "watch",
        help="tail a running campaign's live status (or summarize a "
             "finished result store)")
    watch_parser.add_argument("path",
                              help="status snapshot (*.status.json), "
                                   "result store (results.jsonl), a "
                                   "directory containing snapshots, or a "
                                   "serve run id (digits)")
    watch_parser.add_argument("--interval", type=float, default=1.0,
                              help="refresh interval in seconds")
    watch_parser.add_argument("--once", action="store_true",
                              help="print a single snapshot and exit "
                                   "(scripting/CI mode)")
    watch_parser.add_argument("--wait", type=float, default=10.0,
                              help="seconds to wait for the snapshot to "
                                   "appear before giving up")
    _add_serve_client_args(watch_parser, "watching a run id")

    coverage_parser = sub.add_parser(
        "coverage",
        help="render a campaign's per-structure detection-coverage map")
    coverage_parser.add_argument(
        "path",
        help="coverage map (*.coverage.json), result store "
             "(its persisted sibling map, else replayed from rows), "
             "or a directory containing maps")

    batch_parser = sub.add_parser(
        "batch",
        help="run a file of repro commands in one warm process "
             "(shared stepper cache + persistent worker pool)")
    batch_parser.add_argument("file",
                              help="command file, one repro invocation "
                                   "per line ('-' reads stdin; '#' "
                                   "comments)")
    batch_parser.add_argument("--keep-going", action="store_true",
                              help="continue past failing commands")
    batch_parser.add_argument("--jobs", type=int, default=None,
                              help="fan the (independent) script lines "
                                   "across N worker shards through the "
                                   "campaign transport layer; output "
                                   "replays in line order, every line "
                                   "runs (--keep-going semantics)")

    runner_parser = sub.add_parser(
        "runner",
        help="remote campaign evaluator: connect to a master's runner "
             "port, lease chunks, stream result rows back")
    runner_parser.add_argument("--connect", required=True,
                               metavar="HOST:PORT",
                               help="master runner address (HOST:PORT, a "
                                    "bare port on localhost, or a Unix "
                                    "socket path)")
    runner_parser.add_argument("--name", default=None,
                               help="worker name reported in result rows "
                                    "and runner status (default "
                                    "runner-<id>)")
    runner_parser.add_argument("--poll", type=float, default=0.5,
                               help="longest the master holds an empty "
                                    "lease (seconds)")
    runner_parser.add_argument("--retry", type=float, default=30.0,
                               help="seconds of continuous connection "
                                    "failure before giving up")
    runner_parser.add_argument("--no-reconnect", action="store_true",
                               help="exit on the first lost connection "
                                    "instead of retrying")
    runner_parser.add_argument("--max-chunks", type=int, default=None,
                               help="exit after evaluating this many "
                                    "chunks (tests/drills)")
    runner_parser.add_argument("--idle-exit", type=float, default=None,
                               help="exit after this many seconds without "
                                    "a lease grant")
    runner_parser.add_argument("--heartbeat", type=float, default=10.0,
                               help="seconds between lease-renewal "
                                    "heartbeats while a chunk evaluates "
                                    "(0 disables)")
    runner_parser.add_argument("--events", default=None,
                               help="append structured JSONL events here "
                                    "(sets $REPRO_EVENTS)")

    events_parser = sub.add_parser(
        "events", help="analyze a structured JSONL event log")
    events_sub = events_parser.add_subparsers(dest="action", required=True)
    summarize_parser = events_sub.add_parser(
        "summarize",
        help="per-phase wall-time breakdown with campaign/shard/chunk "
             "rollups and the slowest points")
    summarize_parser.add_argument("path", help="event-log file (JSONL)")
    summarize_parser.add_argument("--top", type=int, default=10,
                                  help="slowest points to list")

    serve_parser = sub.add_parser(
        "serve",
        help="run the campaign master daemon (one warm worker pool "
             "shared by every submitter)")
    serve_parser.add_argument("--stop", action="store_true",
                              help="ask a running master to shut down "
                                   "gracefully and exit")
    _add_exec_args(serve_parser,
                   ("--jobs", "--events", "--runners", "--lease-timeout"))
    _add_serve_client_args(serve_parser, "this master")

    submit_parser = sub.add_parser(
        "submit",
        help="submit a campaign grid to the serve master and stream "
             "its rows back")
    _add_grid_args(submit_parser)
    _add_exec_args(submit_parser,
                   ("--jobs", "--point-timeout", "--progress"))
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="queue priority (higher runs first; "
                                    "ties in submission order)")
    submit_parser.add_argument("--out", default=None,
                               help="result store path (default: the "
                                    "master's runs/<rid>.results.jsonl)")
    submit_parser.add_argument("--detach", action="store_true",
                               help="just enqueue and print the rid; "
                                    "don't stream results")
    _add_serve_client_args(submit_parser)

    queue_parser = sub.add_parser(
        "queue", help="show the serve master's run queue")
    _add_serve_client_args(queue_parser)

    cancel_parser = sub.add_parser(
        "cancel",
        help="cancel a serve run (or --pause / --requeue it)")
    cancel_parser.add_argument("rid", type=int, help="run id")
    group = cancel_parser.add_mutually_exclusive_group()
    group.add_argument("--pause", action="store_true",
                       help="stop after the current point but keep the "
                            "run resumable")
    group.add_argument("--requeue", action="store_true",
                       help="put a paused/cancelled/failed run back on "
                            "the queue (resumes from its store)")
    _add_serve_client_args(cancel_parser)
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "inject": _cmd_inject,
    "figure": _cmd_figure,
    "campaign": _cmd_campaign,
    "difftest": _cmd_difftest,
    "bench": _cmd_bench,
    "batch": _cmd_batch,
    "watch": _cmd_watch,
    "coverage": _cmd_coverage,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "queue": _cmd_queue,
    "cancel": _cmd_cancel,
    "runner": _cmd_runner,
    "events": _cmd_events,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
