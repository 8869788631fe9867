"""The warm-path execution service.

Every CLI invocation used to be an island: a fresh interpreter, a cold
maker table, a worker pool forked and torn down per campaign.  This
module is the long-lived counterpart — one per process — that the CLI,
the figure drivers, the difftest harness and ``repro batch`` all share:

* :meth:`ExecutionService.warm` pre-imports the simulator and primes
  every stepper maker (from the persistent disk cache when one exists,
  compiling — and populating it — otherwise), so the first simulation
  of the process runs at warm-cache speed;
* :meth:`ExecutionService.pool` owns a persistent
  :class:`~repro.campaign.pool.WorkerPool`: forked once, workers
  pre-import and pre-warm, and every subsequent campaign streams its
  points over the existing pipes instead of paying pool startup —
  back-to-back campaigns (a figure driver's sweeps, a difftest run, a
  batch script) reuse the same shards;
* :meth:`ExecutionService.run_campaign` is
  :func:`repro.campaign.run_campaign` routed through that pool.

The service is deliberately *not* a daemon across OS processes — the
persistent state that matters (compiled stepper code objects) lives on
disk in :mod:`repro.perf.cache` and survives process exit; everything
else is cheap once the steppers are warm.
"""

import atexit


class ExecutionService:
    """Process-wide warm execution context (see module docstring)."""

    def __init__(self):
        self._pool = None
        self._warmed = False
        self._atexit_registered = False

    # -- warm-up -----------------------------------------------------------

    def warm(self):
        """Pre-import the simulator and prime the stepper caches.

        Idempotent; returns the number of makers primed on the first
        call (0 afterwards).  With a warm disk cache this is
        unmarshal-only; cold, it pays the compiles once and persists
        them for every future process.
        """
        if self._warmed:
            return 0
        self._warmed = True
        from repro.obs.events import event_log
        with event_log().span("service_warm"):
            import repro.campaign.tasks  # noqa: F401 — registers tasks
            import repro.core.system    # noqa: F401
            import repro.difftest.harness  # noqa: F401
            from repro.perf.cache import stepper_cache
            from repro.perf.jit import prime_steppers
            primed = prime_steppers()
            # Persist immediately: concurrent workers forked a moment
            # later should find a warm file rather than re-compiling.
            stepper_cache().flush()
        return primed

    # -- the persistent pool -----------------------------------------------

    def pool(self, jobs):
        """The persistent worker pool, (re)built for ``jobs`` shards.

        Reused across campaigns while the shard count matches and every
        shard is alive; ``jobs <= 1`` returns ``None`` (serial
        execution needs no pool).
        """
        from repro.campaign.executor import default_jobs
        from repro.campaign.pool import WorkerPool

        jobs = default_jobs(jobs)
        if jobs <= 1:
            return None
        if self._pool is not None and (self._pool.jobs != jobs
                                       or not self._pool.healthy):
            self._pool.close()
            self._pool = None
        if self._pool is None:
            from repro.obs.events import event_log
            self.warm()  # fork from a warm parent: shards inherit it
            with event_log().span("pool_build", jobs=jobs):
                self._pool = WorkerPool(jobs, warm=True)
            if not self._atexit_registered:
                self._atexit_registered = True
                atexit.register(self.shutdown)
        return self._pool

    def pool_info(self):
        """A snapshot of the persistent pool (``None`` when no pool is
        up): shard count, child pids, and health — what ``repro
        serve`` reports to clients (and what the fault-injection tests
        aim their SIGKILLs at)."""
        if self._pool is None:
            return None
        return {"jobs": self._pool.jobs, "pids": self._pool.pids,
                "healthy": self._pool.healthy}

    def run_campaign(self, spec, jobs=None, **kwargs):
        """:func:`repro.campaign.run_campaign` through the warm pool.

        The pool is supplied as a factory, so a campaign that turns
        out to have nothing (or one point) pending — e.g. a fully
        resumed run — never forks workers at all.
        """
        from repro.campaign.executor import run_campaign

        return run_campaign(spec, jobs=jobs,
                            pool=lambda: self.pool(jobs), **kwargs)

    def shutdown(self):
        """Close the pool (the service itself stays usable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


_service = None


def get_service():
    """The process-wide :class:`ExecutionService` singleton."""
    global _service
    if _service is None:
        _service = ExecutionService()
    return _service


def reset_service():
    """Tear down the singleton (tests)."""
    global _service
    if _service is not None:
        _service.shutdown()
    _service = None
