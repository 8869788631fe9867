"""Point evaluation: the guarded unit loop every transport shares.

This is the *execution* half of the old monolithic executor — the code
that actually runs campaign points, wherever it happens to be running:
inline in the serial path, inside a forked shard of
:class:`~repro.campaign.pool.WorkerPool`, or in a remote ``repro
runner`` process on another host.  Everything here is
process-agnostic: no queues, no sockets, no forks — just "evaluate
these (index, point) pairs and hand each finished
:class:`~repro.campaign.results.PointResult` to ``emit``".

Keeping the loop in exactly one place is what makes the determinism
story cheap to state: every transport runs :func:`evaluate_units`, so
a point's metrics row is the same bytes no matter which transport
carried it.
"""

import contextlib
import signal
import threading
import time
import traceback

from repro.campaign.results import PointResult
from repro.campaign.tasks import evaluate_point, run_inject_batch
from repro.obs.events import event_log

__all__ = [
    "CampaignAborted",
    "PointTimeout",
    "evaluate_batch_guarded",
    "evaluate_guarded",
    "evaluate_units",
    "warm_worker",
]


class PointTimeout(Exception):
    """A point exceeded the per-point wall-clock budget."""


class CampaignAborted(Exception):
    """The campaign's owner asked it to stop between points.

    Raised out of :func:`~repro.campaign.executor.run_campaign` when
    its ``abort`` callback returns true; everything completed so far
    has already been appended to the store, so a later run with
    ``resume_from`` picks up exactly where the abort landed.
    ``completed`` counts the points that finished before the stop.
    """

    def __init__(self, message, completed=0):
        super().__init__(message)
        self.completed = completed


def _can_alarm():
    """SIGALRM timeouts only work from the main thread — a runner
    hosted on a helper thread (tests, embedded use) must run points
    unbounded rather than die on ``signal.signal``'s ValueError."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextlib.contextmanager
def _alarm(budget_s, what):
    """Raise :class:`PointTimeout` in the body once ``budget_s``
    wall-clock seconds pass (unbounded when ``budget_s`` is ``None`` or
    no alarm can be armed); disarmed, with the previous handler back,
    on exit."""
    if budget_s is None or not _can_alarm():
        yield
        return

    def on_alarm(signum, frame):
        raise PointTimeout(
            f"{what} exceeded {budget_s:.1f}s wall-clock budget")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if previous is not None:
            signal.signal(signal.SIGALRM, previous)


def evaluate_guarded(point, index, campaign_name, timeout_s, worker_id):
    """Evaluate one point, capturing errors and enforcing the timeout."""
    start = time.perf_counter()
    try:
        with _alarm(timeout_s, "point"):
            metrics = evaluate_point(point, campaign_name=campaign_name)
        result = PointResult(point_id=point.point_id, index=index,
                             ok=True, metrics=metrics)
    except Exception as exc:
        detail = traceback.format_exc(limit=8)
        result = PointResult(
            point_id=point.point_id, index=index, ok=False,
            error=f"{type(exc).__name__}: {exc}\n{detail}")
    result.elapsed_s = time.perf_counter() - start
    result.worker = worker_id
    event_log().emit("point_complete", worker=worker_id,
                     point_id=result.point_id, index=index, ok=result.ok,
                     elapsed_s=result.elapsed_s)
    return result


def evaluate_batch_guarded(group, campaign_name, timeout_s, worker_id):
    """Evaluate one batch group; falls back to per-point scalar runs.

    Returns ``(results, batch_stats)``.  The wall-clock budget for the
    batch is ``timeout_s`` per lane; any failure — timeout, kernel
    error, a bad point — reruns the whole group through the scalar
    per-point guard, so error attribution and row content match serial
    execution exactly.
    """
    start = time.perf_counter()
    budget = None if timeout_s is None else timeout_s * len(group)
    try:
        with _alarm(budget, "batch"):
            metrics_list, stats = run_inject_batch(
                [point for _, point in group], campaign_name=campaign_name)
    except Exception:
        # The batch alarm is disarmed by now, as it must be: the
        # per-point guards re-arm setitimer one point at a time, and a
        # still-pending batch alarm firing in a gap between them would
        # escape every guard and kill the whole loop.
        return ([evaluate_guarded(point, index, campaign_name, timeout_s,
                                  worker_id) for index, point in group],
                None)
    elapsed_each = (time.perf_counter() - start) / len(group)
    log = event_log()
    if stats is not None:
        log.emit("batch_complete", worker=worker_id,
                 campaign=campaign_name, **stats)
    results = []
    for (index, point), metrics in zip(group, metrics_list):
        result = PointResult(point_id=point.point_id, index=index,
                             ok=True, metrics=metrics)
        result.elapsed_s = elapsed_each
        result.worker = worker_id
        log.emit("point_complete", worker=worker_id,
                 point_id=result.point_id, index=index, ok=True,
                 elapsed_s=elapsed_each)
        results.append(result)
    return results, stats


def evaluate_units(units, campaign_name, timeout_s, worker_id, emit,
                   on_batch=None, abort=None):
    """Shared shard/runner/serial loop: evaluate planned units in order.

    ``units`` come from :func:`~repro.campaign.sched.batch_units`; each
    runs as handed — a lockstep unit as one batch, any other point by
    point.  ``emit`` receives each finished :class:`PointResult`;
    ``on_batch`` each batch kernel stats dict.  ``abort`` (serial path
    only) is polled before every batch and every scalar point; a true
    poll raises :class:`CampaignAborted` with the count of points
    emitted so far.
    """
    from repro.campaign.sched import is_batch_unit
    emitted = 0

    def check_abort():
        if abort is not None and abort():
            raise CampaignAborted(
                f"campaign {campaign_name!r} aborted with {emitted} "
                f"points done", completed=emitted)

    for unit in units:
        if not is_batch_unit(unit):
            for index, point in unit:
                check_abort()
                emit(evaluate_guarded(point, index, campaign_name,
                                      timeout_s, worker_id))
                emitted += 1
            continue
        check_abort()
        results, stats = evaluate_batch_guarded(
            unit, campaign_name, timeout_s, worker_id)
        if stats is not None and on_batch is not None:
            on_batch(stats)
        for result in results:
            emit(result)
            emitted += 1


def warm_worker():
    """Pre-import the simulator and prime every stepper maker so no
    point pays a first-touch compile inside a pool or runner.  Returns
    the number of makers primed."""
    import repro.campaign.tasks  # noqa: F401 — registers built-in tasks
    import repro.core.system    # noqa: F401 — pulls the simulator in
    from repro.perf.cache import stepper_cache
    from repro.perf.jit import prime_steppers
    primed = prime_steppers()
    # Persist anything compiled cold right away: fork-start children
    # exit via os._exit, which skips atexit handlers, so this is the
    # worker's only chance to share its compiles with future processes
    # (and concurrent workers forked a moment later find a warm file).
    stepper_cache().flush()
    return primed
