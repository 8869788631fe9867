"""Reference digests: what each campaign's rows must hash to.

The reference is the serial, unbatched path (``jobs=1, batch=1``) —
independent of the pool, the runners and the batch kernel the timed
runs go through.  Lookup order:

1. ``digests.json`` next to this file: digests pinned once for a few
   seeds (``python3 perfbench/pin.py`` writes it);
2. ``.perfbench_cache/`` in the checkout, keyed by a fingerprint of
   ``src/``: a reference this checkout already computed;
3. computed here, untimed, one campaign per ``boot.py reference``
   child process.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

from perfbench.calc import bytes_digest, row_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOOT = os.path.join(HERE, "boot.py")
PINNED = os.path.join(HERE, "digests.json")
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")


def _source_fingerprint():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def campaign_reference(spec_dict, workdir):
    """Run one campaign on the serial unbatched path; return its
    ``{"points": [digest per point, in spec order], "coverage":
    digest}``."""
    from repro.campaign import CampaignSpec, ResultStore, run_campaign
    from repro.obs.live import attach_live

    from perfbench.fleet import _read_coverage, _read_rows

    spec = CampaignSpec.from_dict(spec_dict)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "reference.jsonl")
        with ResultStore(path=path) as store:
            live = attach_live(spec, jobs=1, store=store)
            run_campaign(spec, jobs=1, batch=1, store=store, live=live)
        digests = {row["point_id"]: row_digest(row)
                   for row in _read_rows(path) if row["ok"]}
        return {"points": [digests.get(p.point_id) for p in spec.points],
                "coverage": bytes_digest(_read_coverage(path))}


def compute(specs, workdir, jobs):
    """Reference for each spec, at most ``jobs`` child processes at a
    time.  Plain subprocesses, each waited for: a multiprocessing
    spawn pool would leave its resource tracker running past exit."""
    results = [None] * len(specs)
    pending = list(enumerate(specs))
    running = []
    try:
        while pending or running:
            while pending and len(running) < max(1, jobs):
                i, spec = pending.pop(0)
                path = os.path.join(workdir, f"reference-spec{i}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(spec.to_dict(), handle)
                running.append((i, subprocess.Popen(
                    [sys.executable, BOOT, "reference", path, workdir],
                    stdout=subprocess.PIPE, text=True)))
            i, proc = running.pop(0)
            out, _ = proc.communicate()
            if proc.returncode != 0 or not out.strip():
                raise RuntimeError(f"reference for campaign {i} failed "
                                   f"(exit {proc.returncode})")
            results[i] = json.loads(out.splitlines()[-1])
    finally:
        for _, proc in running:
            proc.kill()
            proc.wait()
    return results


def specs_fingerprint(specs):
    """Identity of a campaign list: a pinned or cached reference only
    applies to exactly the campaigns it was computed for."""
    text = json.dumps([spec.to_dict() for spec in specs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_or_compute(workload, seed, specs, workdir, jobs):
    """``(references, source)`` for a workload's distinct campaigns."""
    fingerprint = specs_fingerprint(specs)
    if os.path.exists(PINNED):
        with open(PINNED, "r", encoding="utf-8") as handle:
            pinned = json.load(handle).get(workload, {}).get(str(seed))
        if pinned is not None and pinned["specs"] == fingerprint:
            return pinned["campaigns"], "pinned"
    cache = os.path.join(CACHE_DIR, f"{workload}-{seed}-{fingerprint}-"
                                    f"{_source_fingerprint()}.json")
    if os.path.exists(cache):
        with open(cache, "r", encoding="utf-8") as handle:
            return json.load(handle), "cached"
    references = compute(specs, workdir, jobs)
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = cache + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(references, handle, sort_keys=True)
    os.replace(tmp, cache)
    return references, "computed"
