"""The forked local worker pool — the process-level transport guts.

This is the only campaign module that touches :mod:`multiprocessing`.
A :class:`WorkerPool` forks its shards **once** and reuses them across
campaigns: workers pre-import the simulator, pre-warm the persistent
stepper cache (:mod:`repro.perf.cache`), and then stream chunks over
shared queues — so back-to-back campaigns (figure drivers, difftest
sweeps, ``repro batch`` scripts) pay interpreter startup and stepper
compilation once per worker, not once per campaign.

Two ways to drive it:

* :meth:`WorkerPool.run` — the classic all-in-one call: chunk the
  pending pairs, stream them through the shards, return
  ``{index: PointResult}`` with every index present (worker death
  becomes a failed point).  Result folding goes through
  :class:`~repro.campaign.sched.ChunkScheduler`, which also fixes the
  old bookkeeping hole where a shard dying between its
  ``{"__batch__"}`` control row and the chunk's data rows leaked
  phantom batch stats: control rows are now buffered per chunk and
  delivered only when the chunk completes.
* :meth:`submit`/:meth:`poll` — the streaming face used by
  :class:`~repro.campaign.transport.TcpRunnerTransport` in mixed mode:
  the transport owns the scheduler and pumps chunks in and raw rows
  out, so local shards and remote runners steal from one queue.

Queue protocol: a task item is ``(pool_epoch, chunk_id, lease_epoch,
campaign_name, timeout_s, [(index, point_dict), ...])`` — one planned
unit, evaluated as-is; a result item is ``(pool_epoch, chunk_id,
lease_epoch, row)``.  The pool epoch tags each row with the
:meth:`run`/:meth:`start_epoch` call that submitted it (abandoned-run
leftovers are dropped at :meth:`poll`); the lease epoch is the
scheduler's staleness filter.
"""

import multiprocessing
import queue as queue_module
import time

from repro.campaign.sched import ChunkScheduler
from repro.campaign.spec import CampaignPoint
from repro.campaign.work import CampaignAborted, evaluate_units, warm_worker
from repro.obs.events import event_log

__all__ = ["WorkerPool"]

#: Seconds of silence after a partial shard death before the pool
#: declares the survivors wedged and reaps them.
DRAIN_GRACE_S = 10.0


def _pool_worker(worker_id, task_queue, result_queue, warm):
    """Shard main loop: steal work items until the sentinel arrives.

    Besides result rows the queue carries ``{"__batch__": stats}``
    control rows — batch kernel occupancy/eviction stats for the
    parent's live status (they do not count toward point totals).
    """
    if warm:
        try:
            warm_worker()
        except Exception:  # noqa: BLE001 — warm-up is never fatal
            pass
    log = event_log()
    log.emit("shard_ready", worker=worker_id)
    while True:
        item = task_queue.get()
        if item is None:
            break
        epoch, chunk_id, lease_epoch, campaign_name, timeout_s, chunk = item
        log.emit("chunk_lease", worker=worker_id, epoch=epoch,
                 campaign=campaign_name, points=len(chunk))
        pairs = [(index, CampaignPoint.from_dict(point_dict))
                 for index, point_dict in chunk]
        evaluate_units(
            [pairs], campaign_name, timeout_s, worker_id,
            emit=lambda result: result_queue.put(
                (epoch, chunk_id, lease_epoch, result.to_row())),
            on_batch=lambda stats: result_queue.put(
                (epoch, chunk_id, lease_epoch, {"__batch__": stats})))
        # One heartbeat per drained chunk: liveness at a commit-log
        # boundary, never per point (the hot path stays event-free).
        log.emit("worker_heartbeat", worker=worker_id, epoch=epoch,
                 campaign=campaign_name)
    log.emit("shard_exit", worker=worker_id)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A set of persistent campaign shards (forked once, reused).

    With the default ``fork`` start method the workers inherit the
    parent's warm state (imported modules, compiled steppers) for
    free; ``warm=True`` additionally primes each worker explicitly,
    which covers spawn platforms and workers forked before the parent
    warmed up.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, jobs, warm=False, context=None):
        self.jobs = max(1, int(jobs))
        self._ctx = context if context is not None else _mp_context()
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._epoch = 0
        self._closed = False
        self._workers = [
            self._ctx.Process(target=_pool_worker,
                              args=(worker_id, self._task_queue,
                                    self._result_queue, warm),
                              daemon=True)
            for worker_id in range(self.jobs)]
        for proc in self._workers:
            proc.start()
        log = event_log()
        for worker_id, proc in enumerate(self._workers):
            log.emit("shard_spawn", worker=worker_id, child_pid=proc.pid,
                     jobs=self.jobs)

    @property
    def healthy(self):
        """Whether every shard is still alive (a dead shard means the
        pool should be rebuilt rather than reused)."""
        return (not self._closed
                and all(proc.is_alive() for proc in self._workers))

    @property
    def pids(self):
        """The shard process ids (for health displays and tests)."""
        return [proc.pid for proc in self._workers]

    @property
    def alive(self):
        """Count of shards still running."""
        return sum(1 for proc in self._workers if proc.is_alive())

    # -- streaming face (used by transports) -------------------------------

    def start_epoch(self):
        """Open a new submission epoch; rows from earlier epochs are
        dropped by :meth:`poll` from here on."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        self._epoch += 1
        return self._epoch

    def submit(self, campaign_name, chunk, timeout_s=None):
        """Queue one leased :class:`~repro.campaign.sched.Chunk` for
        whichever shard steals it first."""
        self._task_queue.put(
            (self._epoch, chunk.chunk_id, chunk.epoch, campaign_name,
             timeout_s,
             [(index, point.to_dict()) for index, point in chunk.pairs]))

    def poll(self, timeout=0.2):
        """Next ``(chunk_id, lease_epoch, row)`` from the current
        epoch, or ``None`` if nothing arrived within ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                epoch, chunk_id, lease_epoch, row = self._result_queue.get(
                    timeout=remaining)
            except queue_module.Empty:
                return None
            if epoch == self._epoch:
                return chunk_id, lease_epoch, row
            # abandoned-run leftover: drop and keep draining

    def mark_spent(self):
        """Record that this pool must not be reused (post-death); the
        owner sees ``healthy == False`` and rebuilds."""
        self._closed = True
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()

    def drain_survivors(self):
        """Hand every live shard a shutdown sentinel (the partial-
        shard-death protocol: survivors finish the queued chunks,
        report their rows, and exit)."""
        for worker_id, proc in enumerate(self._workers):
            if not proc.is_alive():
                event_log().emit("shard_death", worker=worker_id,
                                 child_pid=proc.pid,
                                 exitcode=proc.exitcode)
        alive = self.alive
        for _ in range(alive):
            self._task_queue.put(None)
        return alive

    def terminate_all(self):
        """Reap every live shard immediately (wedged-drain escape)."""
        for proc in self._workers:
            if proc.is_alive():
                proc.terminate()

    # -- classic all-in-one face -------------------------------------------

    def run(self, campaign_name, pending, timeout_s=None, chunk_size=None,
            on_result=None, abort=None, batch_lanes=1, on_batch=None):
        """Stream ``pending`` ``(index, point)`` pairs through the
        shards; returns ``{index: PointResult}`` with every pending
        index present (worker death becomes a failed point).

        ``abort`` is an optional zero-argument callable polled while
        results are collected; when it turns true the call raises
        :class:`CampaignAborted`.  The pool itself stays healthy — the
        abandoned chunks drain through the epoch filter, so the next
        ``run`` on the same pool is unaffected.

        ``batch_lanes > 1`` caps the width of the lockstep units
        (:mod:`repro.perf.batch`) batch-compatible inject points are
        planned into, sized so every shard gets work; ``on_batch``
        receives each batch's occupancy/eviction stats dict when its
        chunk completes.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        self.start_epoch()
        sched = ChunkScheduler(pending, chunk_size=chunk_size,
                               sources=self.jobs, batch_lanes=batch_lanes)
        # The shared task queue *is* the lease queue here: every chunk
        # goes out immediately and whichever shard steals it owns it.
        while True:
            chunk = sched.lease(owner="pool")
            if chunk is None:
                break
            self.submit(campaign_name, chunk, timeout_s=timeout_s)

        def deliver(deliverables):
            for kind, payload in deliverables:
                if kind == "result" and on_result is not None:
                    on_result(payload)
                elif kind == "batch" and on_batch is not None:
                    on_batch(payload)

        draining_after_death = False
        drain_deadline = None
        while not sched.done:
            if abort is not None and abort():
                raise CampaignAborted(
                    f"campaign {campaign_name!r} aborted with "
                    f"{sched.completed} of {len(pending)} pending points "
                    f"done", completed=sched.completed)
            polled = self.poll(timeout=0.2)
            if polled is None:
                alive = self.alive
                if alive == 0:
                    break  # everyone gone; stragglers marked below
                if alive < len(self._workers) and not draining_after_death:
                    # A shard died and its in-flight chunk died with it,
                    # so the scheduler can never drain.  Hand the
                    # survivors shutdown sentinels: they finish the
                    # still-queued chunks (reporting those points) and
                    # exit, the alive==0 break fires, and only the lost
                    # chunk's points become WorkerDied.  The pool is
                    # spent afterwards (reaped below).
                    self.drain_survivors()
                    draining_after_death = True
                    drain_deadline = time.monotonic() + DRAIN_GRACE_S
                elif (draining_after_death
                        and time.monotonic() > drain_deadline):
                    # The survivors made no progress for the whole
                    # grace period: a SIGKILL can land while the dying
                    # shard holds the result queue's pipe lock, wedging
                    # every other shard's put() forever.  Reap them —
                    # the unreported points become WorkerDied below.
                    event_log().emit("pool_drain_wedged",
                                     remaining=sched.remaining)
                    self.terminate_all()
                    break
                continue
            if draining_after_death:
                drain_deadline = time.monotonic() + DRAIN_GRACE_S
            chunk_id, lease_epoch, row = polled
            deliver(sched.record(chunk_id, lease_epoch, row))
        if draining_after_death:
            self.mark_spent()
        deliver(sched.fail_lost())
        return sched.results()

    def close(self, join_timeout=5.0):
        """Send shutdown sentinels and reap the shards."""
        if self._closed:
            return
        self._closed = True
        event_log().emit("pool_close", jobs=self.jobs)
        for _ in self._workers:
            self._task_queue.put(None)
        for proc in self._workers:
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
