"""Start a ``repro`` process for the benchmark.

    python3 perfbench/boot.py <repro CLI arguments...>
    python3 perfbench/boot.py probe-pool JOBS
    python3 perfbench/boot.py reference SPEC_JSON WORKDIR

The first form runs the ``repro`` CLI entry after installing the
layer wrappers when ``$PERFBENCH_TRACE_DIR`` is set (spans are written
there at exit).  ``probe-pool`` measures local-pool set-up the way a
CLI user pays it: import, warm the steppers, fork ``JOBS`` warm
shards, and push one point per shard through them; it prints
``ready`` once the pool has answered.  ``reference`` runs the campaign
in ``SPEC_JSON`` on the serial unbatched path and prints its reference
digests as one JSON line (``reference.campaign_reference``).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def probe_pool(jobs):
    from repro.campaign import CampaignPoint, CampaignSpec
    from repro.perf.service import ExecutionService

    service = ExecutionService()
    service.warm()
    # tab3 is the registry's analysis-only task: the probe times the
    # fleet, not a simulation.
    spec = CampaignSpec("probe", [
        CampaignPoint(task="tab3", params={"shard": i})
        for i in range(max(2, jobs))])
    try:
        result = service.run_campaign(spec, jobs=jobs, chunk_size=1)
        if not result.all_ok:
            return 1
        print("ready", flush=True)
    finally:
        service.shutdown()
    return 0


def main(argv):
    if argv[:1] == ["probe-pool"]:
        return probe_pool(int(argv[1]))
    if argv[:1] == ["reference"]:
        from perfbench.reference import campaign_reference
        with open(argv[1], "r", encoding="utf-8") as handle:
            spec_dict = json.load(handle)
        print(json.dumps(campaign_reference(spec_dict, argv[2])),
              flush=True)
        return 0
    from perfbench.tracing import install_from_env
    install_from_env()
    from repro.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
