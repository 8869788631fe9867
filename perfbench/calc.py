"""The benchmark's own arithmetic: digests, percentiles, self time,
source shares and host calibration.

Everything here is pure (no simulation, no processes), so the unit
tests in ``perfbench/tests`` pin it down directly.
"""

import hashlib
import json
import math
import time

import numpy as np

#: Row fields that are bookkeeping, not results: they differ between
#: transports and runs and are left out of every digest.
BOOKKEEPING_FIELDS = ("elapsed_s", "worker")

#: A percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def row_digest(row):
    """Digest of one stored row, bookkeeping fields excluded."""
    kept = {k: v for k, v in row.items() if k not in BOOKKEEPING_FIELDS}
    return hashlib.sha256(_canonical(kept).encode()).hexdigest()[:16]


def bytes_digest(data):
    """Digest of an artifact's bytes (``None`` when there is none)."""
    if data is None:
        return None
    return hashlib.sha256(data).hexdigest()[:16]


def nearest_rank(sorted_values, q):
    """Nearest-rank ``q``-quantile of pre-sorted values, with the
    number of samples strictly beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """``(value, beyond, reportable)`` for the ``q``-quantile of
    ``samples``: a tail percentile counts only with ``min_beyond``
    samples past it (``value`` is ``None`` for no samples)."""
    if not samples:
        return None, 0, False
    value, beyond = nearest_rank(sorted(samples), q)
    return value, beyond, beyond >= min_beyond


def self_times(name_ids, parents, starts, ends, num_names):
    """Per-name ``(self_s, total_s, calls)`` arrays.

    Spans are parallel arrays: ``parents[i]`` is the index of span
    ``i``'s parent in the same arrays, or -1 for a root.  A span's
    self time is its duration minus the durations of its direct
    children (one thread's spans nest, so children never overlap).
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts,
                                                          dtype=np.float64)
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_dur = np.maximum(dur - child, 0.0)
    self_s = np.bincount(name_ids, weights=self_dur, minlength=num_names)
    total_s = np.bincount(name_ids, weights=dur, minlength=num_names)
    calls = np.bincount(name_ids, minlength=num_names)
    return self_s, total_s, calls


def busiest_source_share(rows):
    """Share of rows delivered by the source that delivered most."""
    if not rows:
        return 0.0
    counts = {}
    for row in rows:
        counts[row["worker"]] = counts.get(row["worker"], 0) + 1
    return max(counts.values()) / len(rows)


def source_busy_min(rows, sources, wall_s):
    """Least busy source's share of ``wall_s``: the summed
    ``elapsed_s`` of its rows over the wall time.  A source with no
    rows is idle for the whole campaign and scores 0."""
    if wall_s <= 0 or sources <= 0:
        return 0.0
    busy = {}
    for row in rows:
        busy[row["worker"]] = busy.get(row["worker"], 0.0) + row["elapsed_s"]
    shares = sorted(busy.values(), reverse=True)[:sources]
    shares += [0.0] * (sources - len(shares))
    return min(shares) / wall_s


#: Seconds :func:`calibration_kernel` takes on the nominal host.
NOMINAL_CAL_S = 0.1


def calibration_kernel(steps=300_000):
    """Fixed interpreter-shaped work — a register file, decoded ops, a
    dict memory and a dispatch chain — that shares no code with the
    program under test, so a change to the program cannot move it."""
    regs = [0] * 32
    mem = {}
    ops = [(i % 5, (i * 7) % 32, (i * 11) % 32, (i * 13) % 32)
           for i in range(64)]
    acc = 0
    for step in range(steps):
        kind, rd, rs1, rs2 = ops[step & 63]
        a = regs[rs1]
        b = regs[rs2]
        if kind == 0:
            v = (a + b + step) & 0xFFFFFFFF
        elif kind == 1:
            v = (a ^ (b << 1)) & 0xFFFFFFFF
        elif kind == 2:
            v = mem.get((a + rd) & 1023, step)
        elif kind == 3:
            mem[(b + rs1) & 1023] = a
            v = a
        else:
            v = (a * 3 + 1) & 0xFFFF
        regs[rd] = v
        acc += v & 7
    return acc


def host_slowness():
    """How much slower than nominal this host runs right now: the
    calibration kernel's time over :data:`NOMINAL_CAL_S`."""
    start = time.perf_counter()
    calibration_kernel()
    return (time.perf_counter() - start) / NOMINAL_CAL_S
