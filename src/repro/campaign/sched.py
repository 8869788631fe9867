"""The campaign scheduler core: leases, epochs, folding — no I/O.

This module is the transport-agnostic heart of campaign execution.  It
owns everything about *which* work runs where and *what* came back —
and deliberately nothing about *how* work travels: no processes, no
sockets, no signals, no clocks it did not receive as arguments.  A
:class:`ChunkScheduler` is therefore fully unit-testable with plain
function calls, and every source (the inline loop, the forked local
:class:`~repro.campaign.pool.WorkerPool`, the TCP runner hub of
:mod:`repro.campaign.remote`, or a pool and runners mixed) leases
from the same one.

The model:

* **Units.**  Pending ``(index, point)`` pairs are planned into
  evaluation units sized to the fleet (:func:`batch_units`): each
  batch-compatible group is cut into equal-width lockstep units — the
  smallest multiple of the source count that keeps every unit within
  the batch cap — and unbatchable points into work-stealing chunks
  (:func:`chunk_pending`).  One unit is one lease (a :class:`Chunk`),
  and it travels to its evaluator as-is.
* **Leases.** A chunk is handed out by :meth:`ChunkScheduler.lease`
  with a fresh *epoch* and (optionally) a wall-clock deadline.  Rows
  are only accepted back under the chunk's current epoch, so a chunk
  requeued after its owner vanished can never be double-counted when
  the presumed-dead owner's rows straggle in late.
* **Expiry and release.** :meth:`release` requeues every chunk a
  vanished owner held (a dead shard or a dropped runner connection —
  the fast path); :meth:`expire` requeues chunks whose lease deadline
  passed (the slow backstop for a wedged-but-connected runner).  Only
  the still-unreported tail of a chunk is requeued, and its epoch is
  bumped immediately.  A chunk that has lost :data:`MAX_OWNER_LOSSES`
  owners is not requeued again: its tail folds as ``WorkerDied``, so
  a point that kills whoever runs it fails alone instead of taking
  the fleet down one source at a time.  Expiry never counts.
* **Folding.** :meth:`record` turns wire rows back into
  :class:`~repro.campaign.results.PointResult` objects, deduplicates
  (stale epochs, duplicate indexes), and buffers ``{"__batch__"}``
  control rows **with their chunk**: batch kernel stats are delivered
  only when every data row of the chunk has landed, so a chunk that
  dies between its control row and its data rows contributes no
  phantom stats (they are dropped on requeue and re-emitted by the
  re-run).
* **Loss.** :meth:`fail_lost` converts whatever never came back into
  ``WorkerDied`` failures — the end of a campaign whose whole fleet
  is gone.

Determinism: the scheduler never touches point evaluation, so however
many times a chunk is leased, requeued, and re-run, the first accepted
row per index is a pure function of the point — transports built on
this core inherit the bit-identical-to-serial guarantee.
"""

from collections import deque

from repro.campaign.results import PointResult
from repro.campaign.tasks import batch_group_key

__all__ = [
    "Chunk",
    "ChunkScheduler",
    "MAX_OWNER_LOSSES",
    "WORKER_DIED_ERROR",
    "batch_units",
    "chunk_pending",
    "is_batch_unit",
]

#: The error recorded for a point whose evaluator vanished for good.
WORKER_DIED_ERROR = ("WorkerDied: shard exited before reporting "
                     "this point")

#: Owners a chunk may lose (shard death, runner disconnect) before its
#: unreported points fail instead of requeueing once more.
MAX_OWNER_LOSSES = 2


def chunk_pending(pending, chunk_size, sources):
    """Cut pending ``(index, point)`` pairs into work-stealing chunks.

    Default size targets ~4 steals per work source: small enough to
    rebalance around stragglers, large enough to amortize dispatch
    round-trips.
    """
    if chunk_size is None:
        chunk_size = max(1, len(pending) // (max(1, sources) * 4))
    return [pending[i:i + chunk_size]
            for i in range(0, len(pending), chunk_size)]


def _split_even(pairs, count):
    """``pairs`` as ``count`` contiguous runs whose widths differ by at
    most one (the wider runs first)."""
    width, extra = divmod(len(pairs), count)
    runs, start = [], 0
    for run in range(count):
        end = start + width + (1 if run < extra else 0)
        runs.append(pairs[start:end])
        start = end
    return runs


def batch_units(pairs, lanes, sources=1, chunk_size=None):
    """Plan ``(index, point)`` pairs into evaluation units — the lease
    granule every transport hands out as-is.

    Batch-compatible points (equal
    :func:`~repro.campaign.tasks.batch_group_key`) form one group per
    key.  A group of ``g`` points is cut into the smallest multiple of
    ``sources`` of equal-width units (widths differ by at most one)
    whose width stays within the ``lanes`` cap — 32 points on 2
    sources give 2x16, 100 points under a 32 cap give 4x25 — and a
    group smaller than ``sources`` runs one point per unit, so every
    source gets work.  Unbatchable points are chunked by
    :func:`chunk_pending` (``chunk_size`` or ~4 steals per source).
    Units keep first-appearance order — results are reordered by
    index at collection time, so unit order only affects store append
    order (which resume already tolerates).
    """
    sources = max(1, sources)
    lanes = max(1, lanes)
    scalar, groups = [], {}
    for pair in pairs:
        key = batch_group_key(pair[1])
        if key is None:
            scalar.append(pair)
        else:
            groups.setdefault(key, []).append(pair)
    units = chunk_pending(scalar, chunk_size, sources) if scalar else []
    for group in groups.values():
        needed = -(-len(group) // lanes)
        count = min(len(group), sources * -(-needed // sources))
        units.extend(_split_even(group, count))
    position = {index: pos for pos, (index, _) in enumerate(pairs)}
    units.sort(key=lambda unit: position[unit[0][0]])
    return units


def is_batch_unit(unit):
    """Whether a planned unit runs as one lockstep batch (more than one
    point, all batch-compatible — :func:`batch_units` never mixes
    keys) rather than point by point."""
    return len(unit) > 1 and batch_group_key(unit[0][1]) is not None


class Chunk:
    """One leased unit of campaign work (internal to the scheduler,
    exposed read-only to transports for wire conversion)."""

    __slots__ = ("chunk_id", "pairs", "epoch", "owner", "deadline",
                 "outstanding", "batch_stats", "done", "losses")

    def __init__(self, chunk_id, pairs):
        self.chunk_id = chunk_id
        #: The pairs the *next* lease should evaluate (shrinks to the
        #: unreported tail when a lease is lost mid-chunk).
        self.pairs = list(pairs)
        self.epoch = 0
        self.owner = None
        self.deadline = None
        #: Indexes not yet folded into the collected results.
        self.outstanding = {index for index, _ in pairs}
        #: Buffered ``__batch__`` control payloads, delivered only
        #: when the chunk completes (the atomic-fold guarantee).
        self.batch_stats = []
        self.done = False
        #: Owners lost while holding this chunk (expiry not counted).
        self.losses = 0


class ChunkScheduler:
    """Lease-based work distribution over one campaign's pending set.

    Single-threaded by design: callers that mix threads (a TCP hub's
    connection threads leasing while the drive loop records)
    serialize access with their own lock.  Every method is a
    plain state transition on plain data.

    The pending set is planned once, at construction, by
    :func:`batch_units` for a fleet of ``sources`` with ``batch_lanes``
    as the batch width cap; each planned unit becomes one chunk.
    """

    def __init__(self, pending, chunk_size=None, sources=1,
                 batch_lanes=1, lease_timeout_s=None):
        self.pending = list(pending)
        self.lease_timeout_s = lease_timeout_s
        units = batch_units(self.pending, batch_lanes, sources, chunk_size)
        self.chunks = [Chunk(chunk_id, pairs)
                       for chunk_id, pairs in enumerate(units)]
        #: Points of the widest lockstep unit (1 when nothing batches):
        #: the evaluation a lease deadline must outlast before any row
        #: can renew it.
        self.widest_unit = max((len(unit) for unit in units
                                if is_batch_unit(unit)), default=1)
        self._queue = deque(chunk.chunk_id for chunk in self.chunks)
        self.collected = {}
        #: chunk_id -> Chunk currently out on lease.
        self.leased = {}

    # -- queries -----------------------------------------------------------

    @property
    def remaining(self):
        """Points not yet folded (the loop-termination condition)."""
        return len(self.pending) - len(self.collected)

    @property
    def done(self):
        return self.remaining == 0

    @property
    def completed(self):
        return len(self.collected)

    def results(self):
        """``{index: PointResult}`` for everything folded so far."""
        return dict(self.collected)

    # -- leasing -----------------------------------------------------------

    def lease(self, owner, now=None):
        """Hand the next queued chunk to ``owner``; ``None`` when the
        queue is empty.  The chunk's epoch is bumped so only this
        lease's rows are accepted, and a deadline is armed when the
        scheduler has a lease timeout and the caller supplied ``now``.
        """
        while self._queue:
            chunk = self.chunks[self._queue.popleft()]
            if chunk.done:
                continue
            chunk.epoch += 1
            chunk.owner = owner
            chunk.deadline = (now + self.lease_timeout_s
                              if now is not None
                              and self.lease_timeout_s is not None
                              else None)
            self.leased[chunk.chunk_id] = chunk
            return chunk
        return None

    def _requeue(self, chunk):
        """Put a lost chunk's unreported tail back on the queue.

        The epoch bumps *now*, not at re-lease, so a straggler row
        from the lost lease is already stale the moment the loss is
        declared.  Buffered batch stats die with the lease — the
        re-run emits its own.
        """
        self.leased.pop(chunk.chunk_id, None)
        chunk.epoch += 1
        chunk.owner = None
        chunk.deadline = None
        chunk.batch_stats = []
        chunk.pairs = [(index, point) for index, point in chunk.pairs
                       if index in chunk.outstanding]
        if chunk.pairs:
            self._queue.append(chunk.chunk_id)
        else:
            chunk.done = True

    def _fail(self, chunk, error=WORKER_DIED_ERROR):
        """Fold ``error`` for every unreported point of ``chunk`` and
        retire it; returns the deliverables."""
        deliverables = []
        for index, point in chunk.pairs:
            if index in chunk.outstanding:
                result = PointResult(point_id=point.point_id, index=index,
                                     ok=False, error=error)
                self.collected[index] = result
                deliverables.append(("result", result))
        self.leased.pop(chunk.chunk_id, None)
        chunk.done = True
        chunk.outstanding = set()
        chunk.batch_stats = []
        return deliverables

    def release(self, owner):
        """An owner vanished: requeue the unreported tail of every
        chunk it held, or fail it once the chunk has lost
        :data:`MAX_OWNER_LOSSES` owners.  Returns ``(requeued chunks,
        deliverables)`` — the deliverables are the ``WorkerDied``
        results of the failed tails."""
        requeued, failed = [], []
        for chunk in [chunk for chunk in self.leased.values()
                      if chunk.owner == owner]:
            chunk.losses += 1
            if chunk.losses >= MAX_OWNER_LOSSES:
                failed.extend(self._fail(chunk))
                continue
            self._requeue(chunk)
            if not chunk.done:
                requeued.append(chunk)
        return requeued, failed

    def expire(self, now):
        """Requeue every leased chunk whose deadline has passed."""
        expired = [chunk for chunk in self.leased.values()
                   if chunk.deadline is not None and now > chunk.deadline]
        for chunk in expired:
            self._requeue(chunk)
        return [chunk for chunk in expired if not chunk.done]

    def renew(self, owner, now):
        """Push back the deadlines of ``owner``'s leases (heartbeat)."""
        if self.lease_timeout_s is None:
            return
        for chunk in self.leased.values():
            if chunk.owner == owner and chunk.deadline is not None:
                chunk.deadline = now + self.lease_timeout_s

    # -- folding -----------------------------------------------------------

    def record(self, chunk_id, epoch, row):
        """Fold one wire row; returns the deliverables it unlocked.

        Deliverables are ``("result", PointResult)`` — exactly once
        per point index, the moment its first valid row lands — and
        ``("batch", stats)`` for each buffered batch control row,
        released together only when the chunk's last data row arrives.
        Stale rows (wrong epoch, duplicate index, unknown chunk) fold
        to nothing.
        """
        if not isinstance(chunk_id, int) or not 0 <= chunk_id < len(
                self.chunks):
            return []
        chunk = self.chunks[chunk_id]
        if chunk.done or epoch != chunk.epoch:
            return []
        if "__batch__" in row:
            chunk.batch_stats.append(row["__batch__"])
            return []
        try:
            result = PointResult.from_row(row)
        except (KeyError, TypeError, ValueError):
            return []
        if result.index not in chunk.outstanding:
            return []
        chunk.outstanding.discard(result.index)
        self.collected[result.index] = result
        deliverables = [("result", result)]
        if not chunk.outstanding:
            chunk.done = True
            self.leased.pop(chunk.chunk_id, None)
            deliverables.extend(("batch", stats)
                                for stats in chunk.batch_stats)
            chunk.batch_stats = []
        return deliverables

    def fail_lost(self, error=WORKER_DIED_ERROR):
        """Fold a failure for every point that can no longer arrive
        (the whole fleet is gone); same deliverable shape as
        :meth:`record`, so the caller's fan-out is uniform."""
        deliverables = []
        for chunk in self.chunks:
            if not chunk.done:
                deliverables.extend(self._fail(chunk, error))
        self._queue.clear()
        return deliverables
