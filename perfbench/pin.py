"""Pin reference digests for some seeds into ``perfbench/digests.json``.

    python3 perfbench/pin.py --seeds 0,1,2,3,4 [--workloads a,b]

Computes each workload's distinct campaigns on the serial unbatched
path and stores their row and ``coverage.json`` digests.  Runs for
those seeds then compare against the pinned digests, so a change in
simulated results fails them; re-pin only when the model changes on
purpose.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv=None):
    from perfbench import reference
    from perfbench.run import SCRATCH, fleet_jobs, hermetic_env
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin", dir=SCRATCH)
    try:
        hermetic_env(workdir)
        pinned = {}
        if os.path.exists(reference.PINNED):
            with open(reference.PINNED, "r", encoding="utf-8") as handle:
                pinned = json.load(handle)
        for name in args.workloads.split(","):
            workload = WORKLOADS[name]
            for seed in (int(s) for s in args.seeds.split(",")):
                specs = [workload.build(seed, k)
                         for k in range(workload.distinct)]
                pinned.setdefault(name, {})[str(seed)] = {
                    "specs": reference.specs_fingerprint(specs),
                    "campaigns": reference.compute(specs, workdir,
                                                   fleet_jobs()[1])}
                print(f"pinned {name} seed {seed}", flush=True)
        with open(reference.PINNED, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, sort_keys=True)
            handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
