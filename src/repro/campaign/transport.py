"""The campaign drive loop: one scheduler, one loop, every source.

:func:`~repro.campaign.executor.run_campaign` plans a campaign (resume
realignment, store/live/progress fan-out, result ordering) and hands
the pending work to :func:`drive_campaign`, together with the
**sources** that will evaluate it:

* *local* sources, pumped by this loop on the caller's thread — the
  inline serial source of :mod:`repro.campaign.executor`, or the
  shards of a forked :class:`~repro.campaign.pool.WorkerPool`.  Each
  exposes ``jobs`` (its width, for unit planning) and ``pump(drive,
  plan, timeout)``: lease units to its idle workers, fold the rows
  that came back, and release the leases of any worker that died;
* a :class:`~repro.campaign.remote.RunnerHub`, whose remote ``repro
  runner`` processes lease and report from their connection threads
  while the loop drains what they folded.  With no local source the
  loop waits on the hub's change condition, so a row folds the moment
  it lands.

Every source leases from the same
:class:`~repro.campaign.sched.ChunkScheduler`, and every lost owner
meets the same policy:

* its leases are released and their unreported tails requeue to
  whatever sources are left;
* a unit that has lost two owners fails its outstanding points as
  ``WorkerDied`` (lease expiry does not count toward this);
* when no source is left the remainder fails — after a grace of
  :data:`RUNNER_GRACE_S` when runners had ever registered, since a
  dropped connection is often a blip the runner reconnects from.

Local sources never vanish: a dead shard is re-forked in place.  Rows
are bit-identical to serial whichever source carried them.
"""

import time
from dataclasses import dataclass

from repro.campaign.sched import ChunkScheduler
from repro.campaign.work import CampaignAborted
from repro.obs.events import event_log

__all__ = ["ExecutionPlan", "drive_campaign", "effective_lease_timeout"]

#: Longest the loop waits for rows per iteration: expiry, loss and
#: live-status checks run at least this often.
POLL_S = 0.05
#: Seconds between runner-health publications to the live status.
STATUS_INTERVAL_S = 1.0
#: Seconds an emptied runner fleet gets to re-register before the
#: remainder fails (``run_runner``'s default reconnect window).
RUNNER_GRACE_S = 30.0


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
    """Everything the drive loop needs to run one campaign's pending set."""

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
    #: Optional :class:`~repro.obs.live.LiveStatus` for runner health;
    #: results are fed by the executor.
    live: object = None

    def deliver(self, deliverables):
        """Fan one batch of scheduler deliverables out to the hooks."""
        for kind, payload in deliverables:
            if kind == "result" and self.on_result is not None:
                self.on_result(payload)
            elif kind == "batch" and self.on_batch is not None:
                self.on_batch(payload)


def drive_campaign(plan, local, hub=None):
    """Run ``plan`` over the ``local`` sources and ``hub``'s runners;
    returns ``{index: PointResult}`` with every pending index present.

    Units are sized to the fleet present now: every local worker plus
    every registered runner.  Runner leases carry the hub's deadline
    (:func:`effective_lease_timeout`); local leases need none, since
    the loop sees a local worker die directly.
    """
    from repro.campaign.remote import Drive

    log = event_log()
    width = sum(source.jobs for source in local)
    if hub is not None:
        width += hub.active_count()
    sched = ChunkScheduler(plan.pending, chunk_size=plan.chunk_size,
                           sources=width, batch_lanes=plan.batch_lanes)
    drive = Drive(sched, plan.campaign_name, plan.timeout_s,
                  on_requeue=None if hub is None else hub.poke)
    if hub is not None:
        sched.lease_timeout_s = effective_lease_timeout(
            hub.lease_timeout_s, plan.timeout_s, sched.widest_unit)
        hub.attach(drive)
    # `had_runners` is true once any runner has ever registered;
    # `fleet_lost_at` marks when the source count last hit zero.
    had_runners = hub is not None and bool(hub.runners_info())
    fleet_lost_at = None
    next_status = 0.0
    try:
        while True:
            if hub is not None:
                seen = hub.changes  # before the drain: no row slips by
            if plan.abort is not None and plan.abort():
                raise CampaignAborted("abort requested")
            plan.deliver(drive.drain())
            if drive.done:
                break
            now = time.monotonic()
            for chunk in drive.expire(now):
                log.emit("lease_expired", chunk=chunk.chunk_id,
                         campaign=plan.campaign_name,
                         points=len(chunk.pairs))
            if hub is not None and plan.live is not None \
                    and now >= next_status:
                plan.live.runners(hub.runners_info())
                next_status = now + STATUS_INTERVAL_S
            for source in local:
                source.pump(drive, plan, POLL_S)
            if local:
                continue
            if hub.active_count() > 0:
                had_runners, fleet_lost_at = True, None
            elif fleet_lost_at is None:
                fleet_lost_at = now
            grace = RUNNER_GRACE_S if had_runners else 0.0
            if fleet_lost_at is not None and now - fleet_lost_at >= grace:
                plan.deliver(drive.fail_lost())
                break
            hub.wait_change(seen, POLL_S)
    except CampaignAborted:
        plan.deliver(drive.drain())
        raise CampaignAborted(
            f"campaign {plan.campaign_name!r} aborted with "
            f"{drive.completed} of {len(plan.pending)} pending "
            f"points done", completed=drive.completed) from None
    finally:
        if hub is not None:
            hub.detach()
    plan.deliver(drive.drain())
    return drive.results()
