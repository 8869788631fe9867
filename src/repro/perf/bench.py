"""The ``repro bench`` suite.

Measures wall-clock simulation throughput — instructions per second —
for every execution system (golden ISA model, vanilla big core, MEEK
system, Nzdc baseline, standalone little core), the wall time of one
figure driver, and the fast-vs-slow kernel speedup measured in-process
(the machine-independent number the regression harness locks in).

Warm-path metrics (schema 2) cover the execution service:

* **warm_start** — full ``repro run`` CLI wall, cold (empty stepper
  disk cache) vs warm (cache populated by the cold run), measured in
  real subprocesses;
* **batch** — the same commands as individual CLI invocations vs one
  ``repro batch`` process (shared interpreter, caches, and pool);
* **campaign** — back-to-back campaigns through per-campaign ephemeral
  worker pools vs one persistent pre-warmed pool.

Batched-kernel metrics (schema 3):

* **batch_kernel** — campaign points/s through the lockstep batch
  kernel (:mod:`repro.perf.batch`) vs the scalar per-point campaign
  loop it replaced (program rebuilt per point, no segment memo), on a
  fig7-style inject grid.  Ratios take the *median* rep per side —
  the two sides run interleaved, and best-of would reward whichever
  side caught the quietest scheduler moment.

The absolute walls are machine-dependent; the speedup *ratios* are the
regression-stable numbers :mod:`repro.perf.regress` puts floors under.

The result is a plain dict, written to ``BENCH_perf.json`` by the CLI;
:mod:`repro.perf.regress` compares it against the committed baseline.
Every measured simulation is deterministic — only the wall clock
varies between runs, which is why each sample takes the best of
``repeat`` runs.
"""

import os
import subprocess
import sys
import tempfile
import time

BENCH_SCHEMA = 3

#: Default workloads: one FP-heavy PARSEC profile, one pointer-chasing
#: SPECint profile, one streaming profile — the three memory behaviours
#: that stress different parts of the timing model.
DEFAULT_WORKLOADS = ("swaptions", "mcf", "streamcluster")

DEFAULT_FIGURES = ("fig7",)


def _best(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


def _throughput(instructions, wall_s):
    return instructions / wall_s if wall_s > 0 else 0.0


def _bench_workload(name, instructions, seed, cores, repeat):
    from repro.baselines.nzdc import run_nzdc
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem, run_vanilla, slowdown
    from repro.difftest.golden import run_golden
    from repro.littlecore.core import LittleCore
    from repro.workloads import generate_program, get_profile

    program = generate_program(get_profile(name),
                               dynamic_instructions=instructions, seed=seed)
    systems = {}

    wall, golden = _best(lambda: run_golden(program), repeat)
    systems["golden"] = {
        "wall_s": wall,
        "instructions": golden.instructions,
        "instrs_per_s": _throughput(golden.instructions, wall),
    }

    wall, vanilla = _best(lambda: run_vanilla(program), repeat)
    systems["vanilla"] = {
        "wall_s": wall,
        "instructions": vanilla.instructions,
        "instrs_per_s": _throughput(vanilla.instructions, wall),
        "ipc": vanilla.ipc,
    }

    config = default_meek_config(num_little_cores=cores)
    wall, meek = _best(lambda: MeekSystem(config).run(program), repeat)
    systems["meek"] = {
        "wall_s": wall,
        "instructions": meek.instructions,
        "instrs_per_s": _throughput(meek.instructions, wall),
        "slowdown": slowdown(meek, vanilla),
        "all_verified": meek.all_segments_verified,
    }

    wall, nzdc = _best(lambda: run_nzdc(program), repeat)
    nzdc_result = nzdc[0]
    systems["nzdc"] = {
        "wall_s": wall,
        "instructions": nzdc_result.instructions,
        "instrs_per_s": _throughput(nzdc_result.instructions, wall),
    }

    wall, little = _best(lambda: LittleCore().run(program), repeat)
    systems["littlecore"] = {
        "wall_s": wall,
        "instructions": little.instructions,
        "instrs_per_s": _throughput(little.instructions, wall),
    }
    return systems


def _bench_kernels(workload, instructions, seed, cores, repeat):
    """Fast-vs-slow kernel speedup, measured in one process.

    This ratio is (nearly) machine-independent, which makes it the
    robust metric for CI: a change that quietly loses the decoded-
    kernel speedup shows up here no matter how slow the runner is.
    """
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem, run_vanilla
    from repro.workloads import generate_program, get_profile

    program = generate_program(get_profile(workload),
                               dynamic_instructions=instructions, seed=seed)
    config = default_meek_config(num_little_cores=cores)
    previous = os.environ.get("REPRO_SLOW_KERNEL")
    try:
        os.environ["REPRO_SLOW_KERNEL"] = "0"
        fast_vanilla, _ = _best(lambda: run_vanilla(program), repeat)
        fast_meek, fast_result = _best(
            lambda: MeekSystem(config).run(program), repeat)
        os.environ["REPRO_SLOW_KERNEL"] = "1"
        slow_vanilla, _ = _best(lambda: run_vanilla(program), repeat)
        slow_meek, slow_result = _best(
            lambda: MeekSystem(config).run(program), repeat)
    finally:
        if previous is None:
            os.environ.pop("REPRO_SLOW_KERNEL", None)
        else:
            os.environ["REPRO_SLOW_KERNEL"] = previous
    if (fast_result.cycles != slow_result.cycles
            or fast_result.instructions != slow_result.instructions):
        raise AssertionError(
            "fast/slow kernels disagree on cycles — equivalence broken")
    return {
        "workload": workload,
        "instructions": instructions,
        "fast_vanilla_s": fast_vanilla,
        "slow_vanilla_s": slow_vanilla,
        "vanilla_speedup": slow_vanilla / fast_vanilla,
        "fast_meek_s": fast_meek,
        "slow_meek_s": slow_meek,
        "meek_speedup": slow_meek / fast_meek,
    }


def _cli_env(cache_dir):
    """Environment for a ``python -m repro`` child: importable package
    plus an isolated stepper disk cache."""
    import repro
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_NO_DISK_CACHE", None)
    return env


def _timed_cli(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro"] + argv, env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"bench CLI child failed: repro {' '.join(argv)} "
                           f"-> exit {proc.returncode}")
    return wall


def _bench_warm_start(workload, instructions, repeat):
    """Cold-vs-warm ``repro run`` wall through real subprocesses.

    Cold = first invocation against an empty stepper disk cache (pays
    source assembly + compile + cache write); warm = best of ``repeat``
    further invocations against the cache the cold run left behind.
    """
    argv = ["run", workload, "--instructions", str(instructions)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
        env = _cli_env(cache)
        cold = _timed_cli(argv, env)
        warm = min(_timed_cli(argv, env) for _ in range(max(1, repeat)))
    return {
        "workload": workload,
        "instructions": instructions,
        "cold_wall_s": cold,
        "warm_wall_s": warm,
        "warm_speedup": cold / warm if warm > 0 else 0.0,
    }


def _bench_batch(workload, instructions, commands=4):
    """N individual CLI invocations vs one ``repro batch`` process."""
    lines = [f"run {workload} --instructions {instructions} --seed {seed}"
             for seed in range(commands)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-batch-") as work:
        env = _cli_env(os.path.join(work, "cache"))
        script = os.path.join(work, "commands.txt")
        with open(script, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        # One throwaway run warms the disk cache so both sides measure
        # steady state rather than the one-off compile.
        _timed_cli(["run", workload, "--instructions", str(instructions)],
                   env)
        individual = sum(_timed_cli(line.split(), env) for line in lines)
        batch = _timed_cli(["batch", script], env)
    return {
        "workload": workload,
        "instructions": instructions,
        "commands": commands,
        "individual_wall_s": individual,
        "batch_wall_s": batch,
        "batch_speedup": individual / batch if batch > 0 else 0.0,
    }


def _bench_campaign(workload, instructions, seed, jobs=2, campaigns=4,
                    points=12):
    """Back-to-back campaigns: ephemeral pools vs one persistent pool.

    The ephemeral side forks and tears down a worker pool per campaign
    (the classic behaviour); the persistent side streams every
    campaign through one pre-warmed :class:`WorkerPool` — the
    execution-service architecture.  Identical points on both sides.
    ``points`` must be large enough that the warm pool's amortization
    is visible over per-campaign noise — at 6 points per campaign the
    fork cost was a rounding error and the recorded speedup sat at
    parity, underselling the pool the service actually keeps.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.pool import WorkerPool
    from repro.campaign.spec import CampaignPoint, CampaignSpec

    def specs():
        return [
            CampaignSpec(
                name=f"bench-pool-{campaign}",
                points=[
                    CampaignPoint(task="meek", workload=workload,
                                  instructions=instructions, seed=seed,
                                  params={"trial": trial,
                                          "campaign": campaign})
                    for trial in range(points)])
            for campaign in range(campaigns)]

    t0 = time.perf_counter()
    for spec in specs():
        run_campaign(spec, jobs=jobs)  # forks an ephemeral pool each time
    ephemeral = time.perf_counter() - t0

    with WorkerPool(jobs, warm=True) as pool:
        # One sacrificial campaign absorbs the pool's own startup, so
        # the timed region measures the steady reuse the service sees.
        run_campaign(specs()[0], pool=pool)
        t0 = time.perf_counter()
        for spec in specs():
            run_campaign(spec, pool=pool)
        persistent = time.perf_counter() - t0

    total_points = campaigns * points
    return {
        "workload": workload,
        "instructions": instructions,
        "jobs": jobs,
        "campaigns": campaigns,
        "points": total_points,
        "ephemeral_wall_s": ephemeral,
        "persistent_wall_s": persistent,
        "pool_speedup": ephemeral / persistent if persistent > 0 else 0.0,
        "points_per_s": (total_points / persistent if persistent > 0
                         else 0.0),
    }


def _bench_batch_kernel(workload, instructions, seed, lanes=64, reps=3,
                        rate=0.0005, scalar_points=16):
    """Batched lockstep kernel vs the scalar per-point campaign loop.

    Three execution strategies over one fig7-style inject grid
    (``workload`` × distinct trials at injection rate ``rate``):

    * **scalar** — the pre-batch campaign loop: scalar fast kernel,
      program rebuilt per point, segment memo off.  This is the
      baseline the batch kernel's ≥2x claim is measured against.
    * **scalar_memo** — the scalar kernel with this tree's shared
      program cache and segment memo, for attribution: how much of the
      win needs the batch, not just the caches.
    * **batched** — one :func:`repro.campaign.tasks.run_inject_batch`
      call advancing ``lanes`` points in lockstep.

    The sides run interleaved (scalar, scalar_memo, batched, repeat)
    and each records the *median* rep: a ratio of best-ofs rewards
    whichever side caught the quietest scheduler moment, while medians
    of interleaved blocks see the same machine.  A sparse rate is used
    deliberately — it keeps lanes convergent (eviction-free), which is
    the regime campaigns hunting coverage tails run in and where the
    lockstep amortization is fully visible.
    """
    import statistics

    from repro.campaign.spec import CampaignPoint
    from repro.campaign.tasks import (_PROGRAM_CACHE, run_inject_batch,
                                      run_inject_point)

    def grid(count, base_trial):
        return [CampaignPoint(task="inject", workload=workload,
                              instructions=instructions, seed=seed,
                              params={"rate": rate, "trial": trial,
                                      "rng_key": f"{seed}/{workload}/{trial}"})
                for trial in range(base_trial, base_trial + count)]

    previous = os.environ.get("REPRO_NO_SEGMEMO")
    scalar, scalar_memo, batched = [], [], []
    evicted_total = lanes_total = 0
    try:
        # Warm everything both sides share: decoded program, steppers,
        # and the program's segment memo (steady state for a campaign
        # worker that processes many batches of one program).
        os.environ["REPRO_NO_SEGMEMO"] = "0"
        run_inject_point(grid(1, 0)[0], "bench-batch")
        run_inject_batch(grid(lanes, 1000), "bench-batch")
        warmed = dict(_PROGRAM_CACHE)
        trial = 2000
        for _ in range(reps):
            os.environ["REPRO_NO_SEGMEMO"] = "1"
            t0 = time.perf_counter()
            for point in grid(scalar_points, trial):
                _PROGRAM_CACHE.clear()
                run_inject_point(point, "bench-batch")
            scalar.append(scalar_points / (time.perf_counter() - t0))
            trial += scalar_points
            # The memo-off loop rebuilt the program per point; put the
            # warmed one (and so its segment memo) back.
            _PROGRAM_CACHE.clear()
            _PROGRAM_CACHE.update(warmed)
            os.environ["REPRO_NO_SEGMEMO"] = "0"
            t0 = time.perf_counter()
            for point in grid(scalar_points, trial):
                run_inject_point(point, "bench-batch")
            scalar_memo.append(scalar_points / (time.perf_counter() - t0))
            trial += scalar_points
            t0 = time.perf_counter()
            _, stats = run_inject_batch(grid(lanes, trial), "bench-batch")
            batched.append(lanes / (time.perf_counter() - t0))
            trial += lanes
            if stats is not None:
                evicted_total += sum(stats["evictions"].values())
                lanes_total += stats["lanes"]
    finally:
        if previous is None:
            os.environ.pop("REPRO_NO_SEGMEMO", None)
        else:
            os.environ["REPRO_NO_SEGMEMO"] = previous
    scalar_rate = statistics.median(scalar)
    batched_rate = statistics.median(batched)
    return {
        "workload": workload,
        "instructions": instructions,
        "rate": rate,
        "lanes": lanes,
        "reps": reps,
        "scalar_points": scalar_points,
        "scalar_points_per_s": scalar_rate,
        "scalar_memo_points_per_s": statistics.median(scalar_memo),
        "batched_points_per_s": batched_rate,
        "batch_speedup": (batched_rate / scalar_rate if scalar_rate > 0
                          else 0.0),
        "eviction_rate": (evicted_total / lanes_total if lanes_total
                          else 0.0),
        "soa_lane_backend": "numpy",
    }


def _bench_figures(figures, instructions):
    """Wall time of each requested figure driver (single-job)."""
    from repro.experiments import run

    results = {}
    for name in figures:
        t0 = time.perf_counter()
        run(name, jobs=1, dynamic_instructions=instructions)
        results[name] = {"wall_s": time.perf_counter() - t0,
                         "instructions": instructions}
    return results


def run_bench(workloads=DEFAULT_WORKLOADS, instructions=20_000, seed=0,
              cores=4, repeat=3, figures=DEFAULT_FIGURES,
              figure_instructions=2_000, kernels=True, warm_start=True,
              campaign=True, campaign_jobs=2, batch_kernel=True, log=None):
    """Run the benchmark suite; returns the BENCH_perf dict."""
    from repro.perf.decode import slow_kernel_enabled

    def say(msg):
        if log is not None:
            log(msg)

    result = {
        "schema": BENCH_SCHEMA,
        "config": {
            "instructions": instructions,
            "seed": seed,
            "cores": cores,
            "repeat": repeat,
            "kernel": "slow" if slow_kernel_enabled() else "fast",
        },
        "workloads": {},
        "figures": {},
        "kernels": None,
        "warm_start": None,
        "batch": None,
        "campaign": None,
        "batch_kernel": None,
    }
    for name in workloads:
        say(f"bench {name} ({instructions} instrs x{repeat})")
        result["workloads"][name] = _bench_workload(
            name, instructions, seed, cores, repeat)
    if kernels and workloads:
        say("bench kernels (fast vs REPRO_SLOW_KERNEL=1)")
        result["kernels"] = _bench_kernels(
            workloads[0], instructions, seed, cores, repeat)
    if warm_start and workloads:
        say("bench warm start (cold vs warm CLI, subprocesses)")
        result["warm_start"] = _bench_warm_start(
            workloads[0], instructions, repeat)
        say("bench batch mode (individual CLIs vs repro batch)")
        result["batch"] = _bench_batch(
            workloads[0], max(1_000, instructions // 4))
    if campaign and workloads:
        say(f"bench campaign pool (ephemeral vs persistent, "
            f"jobs={campaign_jobs})")
        result["campaign"] = _bench_campaign(
            workloads[0], max(1_000, instructions // 10), seed,
            jobs=campaign_jobs)
    if batch_kernel and workloads:
        from repro.perf.batch import batch_available
        if batch_available():
            say("bench batch kernel (lockstep batch vs scalar "
                "campaign loop)")
            result["batch_kernel"] = _bench_batch_kernel(
                workloads[0], instructions, seed)
        else:
            say("bench batch kernel skipped (kernel unavailable)")
    if figures:
        say(f"bench figure drivers {', '.join(figures)}")
        result["figures"] = _bench_figures(figures, figure_instructions)
    return result


def format_bench(result):
    """Human-readable table of one bench result."""
    from repro.analysis.report import format_table

    rows = []
    for workload, systems in result["workloads"].items():
        for system, metrics in systems.items():
            rows.append([
                workload, system,
                f"{metrics['instrs_per_s']:,.0f}",
                f"{metrics['wall_s'] * 1e3:.1f}",
            ])
    out = [format_table(["workload", "system", "instrs/sec", "wall (ms)"],
                        rows, title="Simulation throughput")]
    kernels = result.get("kernels")
    if kernels:
        out.append(
            f"kernel speedup ({kernels['workload']}): "
            f"meek {kernels['meek_speedup']:.2f}x, "
            f"vanilla {kernels['vanilla_speedup']:.2f}x "
            "(fast vs REPRO_SLOW_KERNEL=1)")
    warm = result.get("warm_start")
    if warm:
        out.append(
            f"warm start ({warm['workload']}): cold "
            f"{warm['cold_wall_s']:.2f}s -> warm "
            f"{warm['warm_wall_s']:.2f}s ({warm['warm_speedup']:.2f}x, "
            "full `repro run` subprocess)")
    batch = result.get("batch")
    if batch:
        out.append(
            f"batch mode ({batch['commands']} commands): individual "
            f"{batch['individual_wall_s']:.2f}s -> batch "
            f"{batch['batch_wall_s']:.2f}s "
            f"({batch['batch_speedup']:.2f}x)")
    campaign = result.get("campaign")
    if campaign:
        out.append(
            f"campaign pool ({campaign['campaigns']} campaigns x "
            f"{campaign['points'] // campaign['campaigns']} points, "
            f"jobs={campaign['jobs']}): ephemeral "
            f"{campaign['ephemeral_wall_s']:.2f}s -> persistent "
            f"{campaign['persistent_wall_s']:.2f}s "
            f"({campaign['pool_speedup']:.2f}x, "
            f"{campaign['points_per_s']:.1f} points/s)")
    batch_kernel = result.get("batch_kernel")
    if batch_kernel:
        out.append(
            f"batch kernel ({batch_kernel['workload']}, "
            f"{batch_kernel['lanes']} lanes, "
            f"rate {batch_kernel['rate']}): scalar "
            f"{batch_kernel['scalar_points_per_s']:.2f} -> memo "
            f"{batch_kernel['scalar_memo_points_per_s']:.2f} -> batched "
            f"{batch_kernel['batched_points_per_s']:.2f} points/s "
            f"({batch_kernel['batch_speedup']:.2f}x, "
            f"{batch_kernel['eviction_rate']:.1%} evicted)")
    for name, metrics in result.get("figures", {}).items():
        out.append(f"figure {name}: {metrics['wall_s']:.2f}s wall")
    return "\n".join(out)
