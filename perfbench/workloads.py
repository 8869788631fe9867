"""The benchmark's named workloads.

Every workload is closed loop: one process runs a campaign, waits for
its last row, and only then starts the next.  A run cycles through
``distinct`` campaigns built from the seed (so the same seed gives the
same campaigns and the same rows) until its measuring time is up and
every distinct campaign ran at least once.  Simulated statistics come
from those first ``distinct`` campaigns only, so they repeat exactly
for a seed.  The reasons for each workload, and which layer metric
should move which end-to-end metric on it, are in ``README.md``.
"""

from dataclasses import dataclass

from repro.campaign import CampaignPoint, CampaignSpec

#: Trials per inject campaign: the default batch width, which is also
#: the ROADMAP's baseline campaign.
INJECT_TRIALS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "pool": a forked local pool in the benchmark process; "serve": a
    #: ``repro serve`` master with loopback ``repro runner`` processes.
    fleet: str
    distinct: int
    build: object  # (seed, k) -> CampaignSpec


def _inject(workload, name, instructions, rate, trials, extra=None):
    def build(seed, k):
        points = []
        for t in range(trials):
            trial = k * trials + t
            params = {"rate": rate, "trial": trial,
                      "rng_key": f"perfbench/{name}/{seed}/{trial}"}
            if extra is not None:
                params.update(extra(trial))
            # The program is fixed (seed 0); the seed draws the faults.
            points.append(CampaignPoint(
                task="inject", workload=workload, instructions=instructions,
                seed=0, params=params))
        return CampaignSpec(name=f"{name}-{k}", points=points).validate()
    return build


def _dense_faults(trial):
    return {"fault_targets": "all",
            "fault_model": "burst:width=4" if trial % 2 == 0 else "stuckat"}


def _meek_sweep(seed, k):
    # Fault-free points: the seed picks the two programs of campaign k.
    points = [
        CampaignPoint(task="meek", workload=workload, instructions=30_000,
                      seed=seed * 2 + k,
                      params={"cores": cores, "fabric": fabric})
        for workload in ("streamcluster", "gcc")
        for cores in (2, 4, 8)
        for fabric in ("f2", "axi")]
    return CampaignSpec(name=f"meek-sweep-{k}", points=points).validate()


WORKLOADS = {w.name: w for w in (
    Workload(
        "inject-sparse",
        "rate-0.0005 swaptions inject: most lanes repeat the fault-free "
        "run, so batch kernel, controller commit path and segment memo "
        "do the work",
        fleet="pool", distinct=4,
        build=_inject("swaptions", "inject-sparse", 20_000, 0.0005,
                      INJECT_TRIALS)),
    Workload(
        "inject-dense",
        "rate-0.008 mcf inject on all targets, burst and stuck-at: lanes "
        "diverge early, so injector, fault hooks and post-detection "
        "paths do the work",
        fleet="pool", distinct=4,
        build=_inject("mcf", "inject-dense", 20_000, 0.008, INJECT_TRIALS,
                      extra=_dense_faults)),
    Workload(
        "meek-sweep",
        "fault-free meek points over streamcluster and gcc, cores x "
        "fabric: no injector and no batching, so the scalar stepper, "
        "checker replay, fabric and memory do the work",
        fleet="pool", distinct=2, build=_meek_sweep),
    Workload(
        "serve-fleet",
        "small inject campaigns submitted back to back to repro serve "
        "with loopback runners: per-campaign fixed costs (protocol, "
        "registry, leases, store) dominate",
        fleet="serve", distinct=6,
        build=_inject("swaptions", "serve-fleet", 10_000, 0.008, 8)),
)}
