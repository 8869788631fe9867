"""Campaign orchestration: plan a run, hand it to a transport.

:func:`run_campaign` evaluates every point of a
:class:`~repro.campaign.spec.CampaignSpec` and returns a
:class:`CampaignResult` whose results are ordered by point index —
independent of how many shards or remote runners ran them or in what
order they finished.

This module is the *planning* layer of a three-layer split:

* :mod:`repro.campaign.sched` — the pure scheduler core: fleet-sized
  unit planning, leasing, lease epochs/expiry, result folding.
* :mod:`repro.campaign.transport` — pluggable transports carrying
  chunks to evaluators: the forked local
  :class:`~repro.campaign.pool.WorkerPool`
  (:class:`~repro.campaign.transport.LocalPoolTransport`) or remote
  ``repro runner`` processes over TCP
  (:class:`~repro.campaign.transport.TcpRunnerTransport`).
* this module — resume realignment, store/live/progress fan-out,
  result ordering, and the campaign-level events.

:func:`run_campaign` accepts an explicit ``transport``; without one
it builds the classic local path from ``pool``/``jobs`` (an external
persistent pool — usually owned by
:class:`repro.perf.service.ExecutionService` — or an ephemeral one),
and with ``jobs <= 1`` it evaluates inline, serially.

Determinism: a point's metrics depend only on the point itself (see
``spec.py``), so any transport — serial, local shards, remote
runners, or a mixture — is bit-identical; only the bookkeeping fields
(elapsed, worker id) differ.
"""

import os
import signal
import time
import warnings
from dataclasses import dataclass, field

from repro.campaign.results import ResultStore, aggregate
from repro.campaign.sched import batch_units
from repro.campaign.work import CampaignAborted, PointTimeout, evaluate_units
from repro.obs.events import event_log
from repro.obs.metrics import get_registry

__all__ = [
    "CampaignAborted",
    "CampaignResult",
    "PointTimeout",
    "default_jobs",
    "resolve_batch_lanes",
    "run_campaign",
]


@dataclass
class CampaignResult:
    """A finished campaign: spec + per-point results in spec order."""

    spec: object
    results: list = field(default_factory=list)
    #: Corrupt/truncated JSONL rows skipped while loading the resume
    #: store (surfaced in the end-of-run summary, not just warned).
    corrupt_rows_skipped: int = 0

    @property
    def ok(self):
        return [r for r in self.results if r.ok]

    @property
    def failed(self):
        return [r for r in self.results if not r.ok]

    @property
    def all_ok(self):
        return not self.failed

    def metrics(self):
        """Per-point metrics dicts, in spec order (None where failed)."""
        return [r.metrics if r.ok else None for r in self.results]

    def summary(self):
        return aggregate(self.results)


def default_jobs(jobs=None):
    """Resolve a job count: explicit > ``$REPRO_JOBS`` > 1 (serial)."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return 1


def resolve_batch_lanes(batch=None):
    """Resolve the batch width cap: explicit > ``$REPRO_BATCH`` > auto.

    ``"auto"`` (or nothing) picks the kernel's default lane count when
    the batched kernel can run in this process (numpy importable,
    ``REPRO_NO_BATCH``/``REPRO_SLOW_KERNEL`` unset); ``1`` disables
    batching.  An explicit width is likewise clamped to 1 when the
    kernel is unavailable, so ``--batch 64`` under ``REPRO_NO_BATCH=1``
    degrades to serial evaluation instead of erroring.
    """
    from repro.perf.batch import DEFAULT_BATCH_LANES, batch_available
    if batch is None:
        batch = os.environ.get("REPRO_BATCH", "").strip() or "auto"
    if batch == "auto":
        return DEFAULT_BATCH_LANES if batch_available() else 1
    lanes = max(1, int(batch))
    return lanes if lanes == 1 or batch_available() else 1


def run_campaign(spec, jobs=None, store=None, resume_from=None,
                 progress=None, chunk_size=None, point_timeout_s=None,
                 pool=None, live=None, abort=None, batch=None,
                 transport=None):
    """Execute ``spec`` and return a :class:`CampaignResult`.

    ``jobs``
        Worker shard count (1 = in-process serial; default honours
        ``$REPRO_JOBS``).
    ``pool``
        An externally-owned persistent
        :class:`~repro.campaign.pool.WorkerPool` — or a zero-argument
        callable returning one (or ``None``), invoked only once more
        than one point is known to be pending, so a fully-resumed
        campaign never pays pool startup.  When a pool is used it
        overrides ``jobs`` and the campaign streams through its
        already-warm shards.  The caller keeps ownership — the pool
        stays open for the next campaign.
    ``transport``
        An explicit :class:`~repro.campaign.transport.Transport`
        (overrides ``pool`` and ``jobs``): this is how distributed
        campaigns run —
        :class:`~repro.campaign.transport.TcpRunnerTransport` carries
        the same pending pairs to remote runners, bit-identically.
    ``store``
        Optional :class:`ResultStore`; every result is appended as it
        completes.
    ``resume_from``
        Path to a previous campaign's JSONL: points already recorded
        OK there are loaded instead of re-run (failed rows re-run).
    ``progress``
        Callable invoked with each freshly-completed
        :class:`PointResult` (see ``progress.ProgressReporter``).
    ``point_timeout_s``
        Per-point wall-clock budget; an overrun becomes a failed
        point, not a stuck campaign.
    ``live``
        Optional :class:`repro.obs.live.LiveStatus`: fed every fresh
        result and finalized when the campaign ends, so other
        processes can watch the run through its published
        ``status.json``.
    ``abort``
        Optional zero-argument callable polled between points; when it
        turns true the campaign stops dispatching and raises
        :class:`CampaignAborted`.  Results completed before the abort
        are already in the store, so re-running with ``resume_from``
        finishes only the remainder — this is how ``repro serve``
        implements cancel, pause, and graceful shutdown.
    ``batch``
        Lockstep batch width *cap* for compatible inject points: an
        int, ``"auto"`` (kernel default when available — this is also
        the default), or ``1`` to force scalar evaluation.  Units are
        sized to the fleet under that cap (see
        :func:`~repro.campaign.sched.batch_units`).  Rows are
        bit-identical either way; batching only changes throughput.
    """
    from repro.campaign.transport import ExecutionPlan, LocalPoolTransport

    spec.validate()
    jobs = default_jobs(jobs)
    batch_lanes = resolve_batch_lanes(batch)
    log = event_log()
    if point_timeout_s is not None and not hasattr(signal, "SIGALRM"):
        warnings.warn("point_timeout_s needs SIGALRM (unavailable on "
                      "this platform); points run unbounded",
                      RuntimeWarning, stacklevel=2)
    done = {}
    corrupt_counter = get_registry().counter("store.corrupt_rows_skipped")
    corrupt_before = corrupt_counter.value
    if resume_from is not None and os.path.exists(resume_from):
        stored = ResultStore.load(resume_from)
        for index, point in enumerate(spec.points):
            previous = stored.get(point.point_id)
            if previous is not None and previous.ok:
                previous.index = index  # realign with this spec's order
                done[index] = previous
    corrupt_skipped = corrupt_counter.value - corrupt_before
    pending = [(i, p) for i, p in enumerate(spec.points) if i not in done]
    log.emit("campaign_start", campaign=spec.name,
             points=len(spec.points), pending=len(pending),
             resumed=len(done), jobs=jobs)
    if live is not None:
        live.begin(resumed=len(done), corrupt_rows_skipped=corrupt_skipped)
        for index in sorted(done):
            # Resumed rows never reach on_result; their coverage cells
            # must still land in the map so a resumed campaign persists
            # the same artifact as an uninterrupted one.
            live.resumed_point(done[index])

    def on_result(result):
        if store is not None:
            store.append(result)
        if live is not None:
            live.point(result)
        if progress is not None:
            progress(result)

    def on_batch(stats):
        if live is not None:
            live.batch(stats)

    plan = ExecutionPlan(
        campaign_name=spec.name, pending=pending,
        timeout_s=point_timeout_s, chunk_size=chunk_size,
        batch_lanes=batch_lanes, on_result=on_result,
        on_batch=on_batch, abort=abort, live=live, jobs=jobs)
    start = time.monotonic()
    try:
        # A pool *factory* is invoked only once more than one point is
        # known to be pending (and no explicit transport supersedes
        # it); returning None means "run serial".
        if (transport is None and pool is not None
                and len(pending) > 1 and callable(pool)):
            pool = pool()
        if transport is not None and len(pending) > 0:
            collected = transport.execute(plan)
        elif (pool is not None and not callable(pool)
                and len(pending) > 1):
            collected = LocalPoolTransport(pool=pool).execute(plan)
        elif jobs <= 1 or len(pending) <= 1:
            collected = {}

            def emit(result):
                collected[result.index] = result
                on_result(result)

            evaluate_units(batch_units(pending, batch_lanes,
                                       chunk_size=chunk_size),
                           spec.name, point_timeout_s, worker_id=0,
                           emit=emit, on_batch=on_batch, abort=abort)
        else:
            collected = LocalPoolTransport(jobs=jobs).execute(plan)
    except CampaignAborted as exc:
        log.emit("campaign_abort", campaign=spec.name,
                 completed=exc.completed, pending=len(pending),
                 dur_s=time.monotonic() - start)
        if live is not None:
            live.aborted()
        raise

    collected.update(done)
    results = [collected[i] for i in range(len(spec.points))]
    failed = sum(1 for r in results if not r.ok)
    log.emit("campaign_end", campaign=spec.name, points=len(results),
             failed=failed, dur_s=time.monotonic() - start)
    if live is not None:
        live.finish()
    return CampaignResult(spec=spec, results=results,
                          corrupt_rows_skipped=corrupt_skipped)
