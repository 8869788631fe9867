"""Pluggable campaign transports: how chunks travel to evaluators.

:func:`~repro.campaign.executor.run_campaign` plans a campaign (resume
realignment, store/live/progress fan-out, result ordering) and hands
the pending work to a **transport**, which owns only the question of
*where* the points evaluate:

* :class:`LocalPoolTransport` — today's forked
  :class:`~repro.campaign.pool.WorkerPool`, bit-identical to the
  classic executor (same env knobs, same partial-shard-death
  semantics, same ``WorkerDied`` fills).
* :class:`TcpRunnerTransport` — a
  :class:`~repro.campaign.remote.RunnerHub` of remote ``repro
  runner`` processes leasing chunks over line-JSON RPC, optionally
  mixed with a local pool stealing from the same
  :class:`~repro.campaign.sched.ChunkScheduler`.

Every transport implements one method::

    execute(plan) -> {index: PointResult}

with every pending index present in the mapping, and the determinism
contract inherited from the scheduler core: rows are bit-identical to
serial no matter which transport (or mixture) carried them.
"""

import time
from dataclasses import dataclass, field

from repro.campaign.sched import ChunkScheduler
from repro.campaign.work import CampaignAborted

__all__ = ["ExecutionPlan", "LocalPoolTransport", "TcpRunnerTransport",
           "Transport", "effective_lease_timeout"]


def effective_lease_timeout(lease_timeout_s, timeout_s, widest_unit):
    """The lease deadline a campaign's chunks actually get.

    Renewals arrive per completed unit (rows) and per heartbeat, but
    the deadline must still cover the widest planned unit's
    *legitimate* budget: a lockstep unit may run ``timeout_s`` per lane
    to its alarm and then re-run the whole unit through the scalar
    guard — up to ``2 * timeout_s * widest_unit`` before its first row
    can land.  Without this floor, a unit slower than the bare
    ``lease_timeout_s`` would expire mid-evaluation every time it ran,
    and the campaign would livelock re-leasing the same chunk forever.
    """
    if lease_timeout_s is None or timeout_s is None:
        return lease_timeout_s
    return lease_timeout_s + 2.0 * timeout_s * widest_unit


@dataclass
class ExecutionPlan:
    """Everything a transport needs to run one campaign's pending set."""

    campaign_name: str
    #: ``(index, CampaignPoint)`` pairs still to evaluate.
    pending: list
    timeout_s: object = None
    chunk_size: object = None
    #: Batch width cap for the planned lockstep units.
    batch_lanes: int = 1
    #: Called with each fresh :class:`PointResult` as it folds.
    on_result: object = None
    #: Called with each batch kernel stats dict (chunk-atomic).
    on_batch: object = None
    #: Zero-argument poll; true aborts the campaign.
    abort: object = None
    #: Optional :class:`~repro.obs.live.LiveStatus` for transport-level
    #: extras (runner health); results are fed by the executor.
    live: object = None
    #: How many local shards the transport may use (``None`` = its own
    #: default); remote transports treat this as the *mixed-mode* pool
    #: size.
    jobs: object = None
    extras: dict = field(default_factory=dict)

    def deliver(self, deliverables):
        """Fan one batch of scheduler deliverables out to the hooks."""
        for kind, payload in deliverables:
            if kind == "result" and self.on_result is not None:
                self.on_result(payload)
            elif kind == "batch" and self.on_batch is not None:
                self.on_batch(payload)


class Transport:
    """Interface: carry an :class:`ExecutionPlan` to completion."""

    def execute(self, plan):
        raise NotImplementedError

    def close(self):
        """Release transport-owned resources (pools, sockets)."""


class LocalPoolTransport(Transport):
    """The classic path: a forked worker pool on this machine.

    ``pool`` may be a live :class:`~repro.campaign.pool.WorkerPool`, a
    zero-argument factory returning one (or ``None`` for serial), or
    absent — in which case an ephemeral pool of ``plan.jobs`` shards
    is forked per campaign and closed afterwards, preserving the
    classic ``run_campaign(jobs=N)`` behaviour exactly.
    """

    def __init__(self, pool=None, jobs=None):
        self._pool = pool
        self._jobs = jobs

    def execute(self, plan):
        pool = self._pool
        if pool is not None and callable(pool):
            pool = pool()
        if pool is not None:
            return self._run(pool, plan)
        jobs = self._jobs if self._jobs is not None else plan.jobs
        jobs = max(1, int(jobs or 1))
        from repro.campaign.pool import WorkerPool
        with WorkerPool(min(jobs, max(1, len(plan.pending)))) as ephemeral:
            return self._run(ephemeral, plan)

    @staticmethod
    def _run(pool, plan):
        return pool.run(plan.campaign_name, plan.pending,
                        timeout_s=plan.timeout_s,
                        chunk_size=plan.chunk_size,
                        on_result=plan.on_result, abort=plan.abort,
                        batch_lanes=plan.batch_lanes,
                        on_batch=plan.on_batch)


class TcpRunnerTransport(Transport):
    """Distribute chunks across registered remote runners (and,
    optionally, a local pool stealing from the same scheduler).

    The transport's main loop owns the
    :class:`~repro.campaign.sched.ChunkScheduler` through a
    :class:`~repro.campaign.remote.Drive` (a lock + deliverable queue
    shim): runner connection threads lease and record through the
    drive, while this loop drains deliverables, pumps the optional
    local pool, expires wedged leases, and publishes runner health to
    the plan's live status.

    Runner loss semantics: a disconnected runner's chunks requeue
    immediately (connection death is detected by the hub); a
    wedged-but-connected runner's chunks requeue when their lease
    deadline lapses.  The effective deadline is ``lease_timeout_s``
    plus the widest planned unit's legitimate budget (a lockstep unit
    may burn ``timeout_s`` per lane, then re-run scalar after a
    failure), and it is renewed by rows, idle heartbeats, and the
    runner's in-evaluation heartbeat thread — so only a runner that
    genuinely stopped responding ever expires.  Either way the re-run is
    bit-identical — rows are pure functions of point identity, and
    the bumped lease epoch blackholes any stragglers from the lost
    lease.

    When the last runner drops and no local shard can absorb the
    remainder, the transport grace-waits ``runner_grace_s`` (sized to
    ``run_runner``'s default reconnect window) for a re-registration
    before failing the remainder as ``WorkerDied`` — a transient TCP
    blip must not convert a recoverable run into a failed one.
    """

    def __init__(self, hub, local_pool=None, lease_timeout_s=60.0,
                 poll_s=0.05, status_interval_s=1.0,
                 runner_grace_s=30.0):
        self.hub = hub
        self._local_pool = local_pool
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.status_interval_s = status_interval_s
        self.runner_grace_s = runner_grace_s

    def execute(self, plan):
        from repro.campaign.remote import Drive
        from repro.obs.events import event_log

        log = event_log()
        pool = self._local_pool
        if pool is not None and callable(pool):
            pool = pool()
        # Units are sized to the fleet present now: every registered
        # runner plus every local shard.
        sources = self.hub.active_count() + (pool.jobs if pool else 0)
        sched = ChunkScheduler(plan.pending, chunk_size=plan.chunk_size,
                               sources=sources,
                               batch_lanes=plan.batch_lanes)
        sched.lease_timeout_s = effective_lease_timeout(
            self.lease_timeout_s, plan.timeout_s, sched.widest_unit)
        drive = Drive(sched, campaign_name=plan.campaign_name,
                      timeout_s=plan.timeout_s)
        self.hub.attach(drive)
        if pool is not None:
            pool.start_epoch()
        pool_draining = False
        pool_spent = pool is None
        next_status = 0.0
        # Grace accounting for total runner loss: `had_runners` is true
        # once any runner has ever registered; `fleet_lost_at` marks
        # when the active count last hit zero.
        had_runners = bool(self.hub.runners_info())
        fleet_lost_at = None
        try:
            while True:
                if plan.abort is not None and plan.abort():
                    raise CampaignAborted(
                        f"campaign {plan.campaign_name!r} aborted with "
                        f"{drive.completed} of {len(plan.pending)} "
                        f"pending points done",
                        completed=drive.completed)
                plan.deliver(drive.drain())
                if drive.done:
                    break
                now = time.monotonic()
                for chunk in drive.expire(now):
                    log.emit("lease_expired", chunk=chunk.chunk_id,
                             campaign=plan.campaign_name,
                             points=len(chunk.pairs))
                if plan.live is not None and now >= next_status:
                    plan.live.runners(self.hub.runners_info())
                    next_status = now + self.status_interval_s
                if not pool_spent:
                    pool_spent, pool_draining = self._pump_local(
                        pool, plan, drive, pool_draining)
                active = self.hub.active_count()
                if active > 0:
                    had_runners = True
                    fleet_lost_at = None
                elif fleet_lost_at is None:
                    fleet_lost_at = now
                if pool_spent and active == 0:
                    # Nobody left to run the remainder.  A dropped
                    # connection is often a blip — run_runner retries
                    # for ~30s before giving up — so when runners were
                    # ever present, grace-wait for a re-registration
                    # (the drive stays attached, so a rejoining runner
                    # leases the requeued chunks and the run resumes)
                    # before failing the remainder as WorkerDied.
                    grace = self.runner_grace_s if had_runners else 0.0
                    if now - fleet_lost_at >= grace:
                        plan.deliver(drive.fail_lost())
                        break
                if pool is None or pool_spent:
                    time.sleep(self.poll_s)
        finally:
            self.hub.detach()
            if pool is not None and not pool.healthy:
                # Shards died during this run: reap the pool so its
                # owner rebuilds instead of reusing a spent fleet.
                pool.mark_spent()
        plan.deliver(drive.drain())
        return drive.results()

    def _pump_local(self, pool, plan, drive, draining):
        """Keep the local pool saturated and fold whatever it sends.

        Returns ``(spent, draining)``.  Local shard death follows the
        pool's partial-death protocol, but — unlike the pure-local
        transport — the lost chunks *requeue* to the surviving
        sources (remote runners included) instead of failing as
        ``WorkerDied``, because here a lease can be re-run elsewhere.
        """
        from repro.obs.events import event_log

        alive = pool.alive
        if alive == 0:
            # Every shard gone: requeue whatever "local" still held.
            for chunk in drive.release("local"):
                event_log().emit("local_chunks_requeued",
                                 chunk=chunk.chunk_id,
                                 points=len(chunk.pairs))
            return True, draining
        if alive < pool.jobs and not draining:
            pool.drain_survivors()
            draining = True
        if not draining:
            # One lease per shard, no prefetch: units are sized to the
            # whole fleet, so a spare local lease is a runner's share.
            in_flight = drive.leased_by("local")
            while in_flight < pool.jobs:
                chunk = drive.lease("local")
                if chunk is None:
                    break
                pool.submit(plan.campaign_name, chunk,
                            timeout_s=plan.timeout_s)
                in_flight += 1
        polled = pool.poll(timeout=self.poll_s)
        while polled is not None:
            chunk_id, lease_epoch, row = polled
            drive.record(chunk_id, lease_epoch, row)
            polled = pool.poll(timeout=0.0)
        # Live shards are the local heartbeat: their liveness is
        # directly observable here (unlike a remote runner's), so a
        # local lease is renewed every pump and can only be lost via
        # the shard-death protocol above — never by expiry while a
        # long unit is still legitimately computing.
        drive.renew("local")
        return False, draining

    def close(self):
        pool = self._local_pool
        if pool is not None and not callable(pool):
            pool.close()
