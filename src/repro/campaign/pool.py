"""The forked local worker pool — a campaign source of shards.

This is the only campaign module that touches :mod:`multiprocessing`.
A :class:`WorkerPool` forks its shards **once** and reuses them across
campaigns: workers pre-import the simulator, pre-warm the persistent
stepper cache (:mod:`repro.perf.cache`), and then evaluate the units
they are handed — so back-to-back campaigns (figure drivers, difftest
sweeps, ``repro batch`` scripts) pay interpreter startup and stepper
compilation once per worker, not once per campaign.

The pool is driven by :func:`~repro.campaign.transport.drive_campaign`
like any other source: one call per loop iteration to :meth:`pump`,
which leases a unit to every idle shard, folds the rows that came
back, and replaces any shard that died.  Each shard is its own lease
owner, ``("shard", k)``, holds at most one unit at a time, and talks
to the parent over its own duplex :func:`multiprocessing.Pipe`.
``Connection.send`` is synchronous, so a row a shard has sent is in
the parent's socket buffer even if the shard is SIGKILLed a moment
later — no completed row dies with its shard, and no lock is shared
between shards.  A dead shard's lease is released (its unreported
tail requeues, or fails on the unit's second lost owner — see
:mod:`repro.campaign.transport`) and the shard is re-forked in place,
so the pool keeps its width and stays reusable.

Pipe protocol: the parent sends ``(pool_epoch, chunk_id, lease_epoch,
campaign_name, timeout_s, [(index, point_dict), ...])`` — one planned
unit, evaluated as-is — or ``None`` to stop the shard; the shard
answers ``(pool_epoch, chunk_id, lease_epoch, row)`` per row and a
final ``row=None`` when the unit is done.  The pool epoch tags each
row with the :meth:`start_epoch` call (one per campaign) that leased
it, so rows of an aborted campaign are dropped; the lease epoch is the
scheduler's staleness filter.
"""

import multiprocessing
from multiprocessing.connection import wait

from repro.campaign.spec import CampaignPoint
from repro.campaign.work import evaluate_units, warm_worker
from repro.obs.events import event_log

__all__ = ["WorkerPool"]


def _pool_worker(worker_id, conn, warm):
    """Shard main loop: evaluate handed units until the sentinel.

    Besides result rows the pipe carries ``{"__batch__": stats}``
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
        try:
            item = conn.recv()
        except EOFError:
            break
        if item is None:
            break
        epoch, chunk_id, lease_epoch, campaign_name, timeout_s, chunk = item
        log.emit("chunk_lease", worker=worker_id, epoch=epoch,
                 campaign=campaign_name, points=len(chunk))
        pairs = [(index, CampaignPoint.from_dict(point_dict))
                 for index, point_dict in chunk]

        def send(row):
            conn.send((epoch, chunk_id, lease_epoch, row))

        evaluate_units(
            [pairs], campaign_name, timeout_s, worker_id,
            emit=lambda result: send(result.to_row()),
            on_batch=lambda stats: send({"__batch__": stats}))
        send(None)
        # One heartbeat per drained chunk: liveness at a commit-log
        # boundary, never per point (the hot path stays event-free).
        log.emit("worker_heartbeat", worker=worker_id, epoch=epoch,
                 campaign=campaign_name)
    log.emit("shard_exit", worker=worker_id)


def _reap(proc, timeout):
    """Join ``proc``, escalating to SIGTERM and then SIGKILL when it
    outlives ``timeout``; returns only once the process is reaped."""
    proc.join(timeout=timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=timeout)
    if proc.is_alive():
        proc.kill()
        proc.join()


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
        self._warm = warm
        self._epoch = 0
        self._closed = False
        self._procs = [None] * self.jobs
        self._conns = [None] * self.jobs
        #: Whether shard k holds a unit it has not finished (possibly
        #: from an earlier, aborted campaign).
        self._busy = [False] * self.jobs
        for worker_id in range(self.jobs):
            self._fork(worker_id)

    def _fork(self, worker_id):
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_pool_worker,
                                 args=(worker_id, child_conn, self._warm),
                                 daemon=True)
        proc.start()
        # Only the shard may hold its end: the parent sees EOF the
        # moment the shard dies.
        child_conn.close()
        self._procs[worker_id] = proc
        self._conns[worker_id] = conn
        self._busy[worker_id] = False
        event_log().emit("shard_spawn", worker=worker_id,
                         child_pid=proc.pid, jobs=self.jobs)

    @property
    def healthy(self):
        """Whether the pool is open with every shard alive."""
        return (not self._closed
                and all(proc.is_alive() for proc in self._procs))

    @property
    def pids(self):
        """The shard process ids (for health displays and tests)."""
        return [proc.pid for proc in self._procs]

    def start_epoch(self):
        """Open a new campaign epoch; rows leased under earlier epochs
        are dropped from here on."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        self._epoch += 1
        return self._epoch

    # -- the source face (called by the drive loop) ------------------------

    def pump(self, drive, plan, timeout):
        """Lease a unit to every idle shard, wait up to ``timeout`` for
        rows, fold them, and replace any shard that died."""
        self._dispatch(drive, plan)
        wait(self._conns, timeout)
        for worker_id, proc in enumerate(self._procs):
            if not self._collect(worker_id, drive) or not proc.is_alive():
                self._replace(worker_id, drive)
        self._dispatch(drive, plan)

    def _dispatch(self, drive, plan):
        for worker_id, conn in enumerate(self._conns):
            if self._busy[worker_id]:
                continue
            chunk = drive.lease(("shard", worker_id))
            if chunk is None:
                return
            self._busy[worker_id] = True
            try:
                conn.send((self._epoch, chunk.chunk_id, chunk.epoch,
                           plan.campaign_name, plan.timeout_s,
                           [(index, point.to_dict())
                            for index, point in chunk.pairs]))
            except OSError:
                pass  # already dead: the next collect replaces it

    def _collect(self, worker_id, drive):
        """Fold everything shard ``worker_id`` has sent; ``False``
        once its pipe is closed (the shard is gone)."""
        conn = self._conns[worker_id]
        try:
            while conn.poll():
                epoch, chunk_id, lease_epoch, row = conn.recv()
                if row is None:
                    self._busy[worker_id] = False
                elif epoch == self._epoch:
                    drive.record(chunk_id, lease_epoch, row)
        except (EOFError, OSError):
            return False
        return True

    def _replace(self, worker_id, drive):
        """Reap a dead shard, release its lease, and fork a new one."""
        proc = self._procs[worker_id]
        _reap(proc, 5.0)
        log = event_log()
        log.emit("shard_death", worker=worker_id, child_pid=proc.pid,
                 exitcode=proc.exitcode)
        for chunk in drive.release(("shard", worker_id)):
            log.emit("local_chunks_requeued", worker=worker_id,
                     chunk=chunk.chunk_id, points=len(chunk.pairs))
        self._conns[worker_id].close()
        self._fork(worker_id)

    def close(self, join_timeout=5.0):
        """Send shutdown sentinels and reap the shards."""
        if self._closed:
            return
        self._closed = True
        event_log().emit("pool_close", jobs=self.jobs)
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc, conn in zip(self._procs, self._conns):
            _reap(proc, join_timeout)
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
