"""Task registry: how one campaign point becomes one simulation run.

Each task is a function ``fn(point, campaign_name="") -> dict`` of JSON
metrics.  Tasks rebuild everything they need (program, config, system)
from the point's plain-data fields, so a point can be evaluated in any
process and always produces the same metrics.

The registry is open: experiments register the built-in simulation
tasks below, and tests register throwaway tasks (the executor looks
tasks up by name at evaluation time).
"""

from dataclasses import replace

from repro.common.errors import ConfigError

TASKS = {}


def task(name):
    """Decorator: register ``fn`` under ``name``."""
    def register(fn):
        TASKS[name] = fn
        return fn
    return register


def get_task(name):
    try:
        return TASKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown campaign task {name!r}; "
            f"registered: {sorted(TASKS)}") from None


def evaluate_point(point, campaign_name=""):
    """Run one point and return its metrics dict (raises on error)."""
    return get_task(point.task)(point, campaign_name=campaign_name)


# -- shared builders ------------------------------------------------------

def build_config(params):
    """A :class:`MeekConfig` from a point's scalar parameters.

    Supported keys: ``cores``, ``fabric``, ``lsl_kb``, ``timeout``
    (checkpoint instruction timeout) and ``dc_depth`` (DC-Buffer
    depth), mirroring the ablation sweeps.
    """
    from repro.common.config import (FabricConfig, LslConfig,
                                     default_meek_config)

    fabric_kind = params.get("fabric", "f2")
    if fabric_kind not in ("f2", "axi", "ideal"):
        # default_meek_config treats any unknown kind as f2; reject it
        # here so a typo cannot publish f2 numbers under another label.
        raise ConfigError(f"unknown fabric kind {fabric_kind!r} "
                          f"(choose f2, axi or ideal)")
    config = default_meek_config(
        num_little_cores=int(params.get("cores", 4)),
        fabric_kind=fabric_kind)
    little = config.little_core
    lsl = little.lsl
    if params.get("lsl_kb") is not None:
        lsl = LslConfig(size_bytes=int(params["lsl_kb"]) * 1024,
                        instruction_timeout=lsl.instruction_timeout)
    if params.get("timeout") is not None:
        lsl = replace(lsl, instruction_timeout=int(params["timeout"]))
    if lsl is not little.lsl:
        config = replace(config, little_core=replace(little, lsl=lsl))
    if params.get("dc_depth") is not None:
        depth = int(params["dc_depth"])
        config = replace(config, fabric=FabricConfig(
            status_fifo_depth=depth, runtime_fifo_depth=depth))
    return config


#: (workload, instructions, seed) -> Program.  Campaign trials differ
#: only in fault parameters, so a worker evaluating a pool chunk keeps
#: rebuilding the same image; caching it also makes every trial share
#: one *object*, which is what keys the decode cache and the segment
#: memo (:mod:`repro.core.segmemo`).  Programs are immutable after
#: construction, so sharing is safe.
_PROGRAM_CACHE = {}
_PROGRAM_CACHE_MAX = 32


def build_program(point):
    from repro.workloads import generate_program, get_profile

    key = (point.workload, point.instructions, point.seed)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = generate_program(get_profile(point.workload),
                                   dynamic_instructions=point.instructions,
                                   seed=point.seed)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[key] = program
    return program


def _meek_metrics(result):
    stats = result.controller.stats()
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.big.ipc,
        "verified": result.all_segments_verified,
        "segments": stats["segments"],
        "mean_segment_instrs": stats["mean_segment_instrs"],
        "stall_cycles": dict(stats["stall_cycles"]),
        "end_reasons": dict(stats["end_reasons"]),
    }


# -- built-in simulation tasks --------------------------------------------

@task("vanilla")
def run_vanilla_point(point, campaign_name=""):
    """Unmodified big core: the slowdown denominator."""
    from repro.core.system import run_vanilla
    result = run_vanilla(build_program(point))
    return {"cycles": result.cycles, "instructions": result.instructions,
            "ipc": result.ipc}


@task("meek")
def run_meek_point(point, campaign_name=""):
    """One MEEK execution (params select cores/fabric/ablation knobs)."""
    from repro.core.system import MeekSystem
    system = MeekSystem(build_config(point.params))
    return _meek_metrics(system.run(build_program(point)))


def _make_injector(point, campaign_name):
    """The point's injector, seeded from its (campaign-scoped) identity."""
    from repro.common.prng import DeterministicRng
    from repro.core.faults import FaultInjector

    rng = DeterministicRng(point.rng_key(campaign_name), name="faults")
    return FaultInjector(
        rng, rate=float(point.params.get("rate", 0.008)),
        model=point.params.get("fault_model"),
        targets=point.params.get("fault_targets"))


def _inject_metrics(result, injector):
    """Metrics for one fault-injection run — shared verbatim by the
    scalar and batched execution paths so their rows cannot drift."""
    from repro.analysis.coverage import CoverageMap

    metrics = _meek_metrics(result)
    coverage = CoverageMap().observe_records(injector.injections,
                                             result.cycles_to_ns)
    metrics.update({
        "injections": len(injector.injections),
        "detected": injector.detected_count,
        "latencies_ns": result.detection_latencies_ns(),
        "coverage": coverage.to_cells(),
    })
    return metrics


@task("inject")
def run_inject_point(point, campaign_name=""):
    """One fault-injection trial through the genuine checking machinery.

    ``rate`` is the per-packet injection probability; the injector's
    stream is seeded from the point identity (or an explicit
    ``rng_key`` param), so trials are independent and reproducible.
    ``fault_model`` (``single``, ``burst:width=K``,
    ``correlated:span=N``, ``stuckat[:bit=B,value=V]``) and
    ``fault_targets`` (``runtime``/``status``/``dcbuf``/``fabric``/
    ``all`` or exact structures) select the fault model layer; both
    default to the paper's single-bit mix.
    """
    from repro.core.system import MeekSystem

    injector = _make_injector(point, campaign_name)
    system = MeekSystem(build_config(point.params), injector=injector)
    result = system.run(build_program(point))
    return _inject_metrics(result, injector)


#: Point parameters that may vary between the lanes of one batch: they
#: configure only the injector (whose stream is per-lane anyway), never
#: the program image or the system timing configuration.
_BATCH_LANE_PARAMS = frozenset(
    {"rate", "trial", "rng_key", "fault_model", "fault_targets"})


def batch_group_key(point):
    """Batch-compatibility key, or ``None`` for unbatchable points.

    Points with equal keys run the same program under the same system
    configuration, so they may share one lockstep batch
    (:mod:`repro.perf.batch`); only their injector streams differ.
    """
    if point.task != "inject":
        return None
    shared = tuple(sorted(
        (k, v) for k, v in point.params.items()
        if k not in _BATCH_LANE_PARAMS))
    return (point.workload, point.instructions, point.seed, shared)


def run_inject_batch(points, campaign_name=""):
    """Evaluate same-program inject points as one lockstep batch.

    Returns ``(metrics, batch_stats)`` with ``metrics`` aligned to
    ``points``.  Lanes the batch kernel evicted — and every lane, when
    the whole batch aborts or batching is unavailable — are rerun on
    the scalar kernel from cycle 0, so the rows are bit-identical to
    serial execution no matter what the batch engine did.
    ``batch_stats`` is the kernel's occupancy/eviction dict, or
    ``None`` when no batch ran.
    """
    from repro.perf import batch as batch_kernel

    keys = {batch_group_key(p) for p in points}
    if len(keys) != 1 or None in keys:
        raise ConfigError("run_inject_batch: points are not batch-compatible")
    metrics = [None] * len(points)
    stats = None
    if len(points) > 1 and batch_kernel.batch_available():
        injectors = [_make_injector(p, campaign_name) for p in points]
        try:
            outcome = batch_kernel.run_batch(
                build_config(points[0].params), build_program(points[0]),
                injectors)
        except batch_kernel.BatchError:
            outcome = None
        if outcome is not None:
            stats = outcome.stats
            for i, result in enumerate(outcome.results):
                if result is not None:
                    metrics[i] = _inject_metrics(result, injectors[i])
    for i, point in enumerate(points):
        if metrics[i] is None:
            metrics[i] = run_inject_point(point, campaign_name)
    return metrics, stats


@task("lockstep")
def run_lockstep_point(point, campaign_name=""):
    """Equivalent-Area LockStep baseline (Sec. V-A)."""
    from repro.baselines.lockstep import EaLockstep
    result = EaLockstep().run(build_program(point))
    return {"cycles": result.cycles, "instructions": result.instructions,
            "ipc": result.ipc}


@task("nzdc")
def run_nzdc_point(point, campaign_name=""):
    """Nzdc software baseline (callers skip its compile failures)."""
    from repro.baselines.nzdc import run_nzdc
    result, transformed = run_nzdc(build_program(point))
    return {"cycles": result.cycles, "instructions": result.instructions,
            "ipc": result.ipc, "static_instructions": len(transformed)}


@task("little_ipc")
def run_little_ipc_point(point, campaign_name=""):
    """Little-core throughput for Fig. 10 (``core`` selects the config)."""
    from repro.analysis.area import LITTLE_WRAPPER_AREA_MM2, rocket_area_mm2
    from repro.common.config import (default_rocket_config,
                                     optimized_rocket_config)
    from repro.littlecore.core import LittleCore

    kind = point.params.get("core", "optimized")
    if kind == "optimized":
        config = optimized_rocket_config()
    elif kind == "default":
        config = default_rocket_config()
    else:
        raise ConfigError(f"little_ipc: unknown core kind {kind!r}")
    core = LittleCore(config, clock_ratio=1)
    result = core.run(build_program(point),
                      max_instructions=point.instructions)
    area = rocket_area_mm2(config) + LITTLE_WRAPPER_AREA_MM2
    return {"ipc": result.ipc, "area_mm2": area,
            "perf_per_mm2": result.ipc / area}


@task("tab3")
def run_tab3_point(point, campaign_name=""):
    """The Table III area report (pure analysis, no simulation)."""
    from repro.experiments import tab3_area
    return tab3_area.compute_report()


@task("cli")
def run_cli_point(point, campaign_name=""):
    """One ``repro`` CLI invocation evaluated as a campaign point.

    This is how ``repro batch --jobs N`` fans a command file across
    the warm worker pool: each script line becomes one point
    (``params["command"]`` holds the shell-quoted argv, ``params["line"]``
    its 1-based line number, keeping duplicate commands distinct), the
    command runs in-process through :func:`repro.cli.run_line` with its
    stdout/stderr captured, and the metrics carry the exit status plus
    both streams so the parent can replay them in line order.

    A nonzero exit status is a *metric*, not a point failure — one
    failing script line must not poison the batch row for reporting.
    """
    import io
    import shlex
    from contextlib import redirect_stderr, redirect_stdout

    from repro.cli import run_line

    command = point.params["command"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run_line(shlex.split(command))
    return {"status": int(status or 0),
            "line": point.params.get("line"),
            "command": command,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@task("difftest")
def run_difftest_point(point, campaign_name=""):
    """One differential-fuzzing point: generate a constrained-random
    program from the point's RNG identity and execute it on every
    model (golden ISA, big core, little core, MEEK check replay,
    Nzdc), comparing final architectural state field-by-field."""
    from repro.difftest.harness import evaluate_fuzz_point
    return evaluate_fuzz_point(point, campaign_name=campaign_name)
