"""Live campaign status: streaming aggregation + ``status.json``.

A :class:`LiveStatus` rides the campaign executor's progress hook: it
sees every :class:`~repro.campaign.results.PointResult` the moment it
lands and folds it into streaming aggregates — completed/failed
counts, sliding-window throughput (points/s and instrs/s), streaming
detection-latency percentiles (P² — no population kept), coverage and
detection-rate gauges, per-shard health (points, failures, seconds
since last result) and an ETA.

Every ``publish_interval_s`` (and always at begin/finish) the current
snapshot is **atomically** published as JSON next to the result store
— temp file + :func:`os.replace` — so any other process can observe a
running campaign by re-reading one small file that is always complete,
never half-written.  ``repro watch`` is exactly such a reader.

The snapshot schema (``schema`` 1)::

    {"schema": 1, "campaign": name, "state": "running"|"finished",
     "updated_unix": ..., "elapsed_s": ...,
     "points": {"total": N, "completed": n, "failed": f, "resumed": r,
                "corrupt_rows_skipped": c},
     "throughput": {"points_per_s": ..., "instrs_per_s": ...,
                    "eta_s": ...},
     "latency_ns": {"count":, "min":, "max":, "mean":, "p50":, "p95":,
                    "p99":},
     "detection": {"injections":, "detected":, "rate":},
     "totals": {"instructions":, "cycles":},
     "coverage": {"runtime.addr": rate, ...},
     "batch": {"batches":, "lanes":, "mean_lanes_active":,
               "evictions":, "evictions_by_cause": {cause: n}},
     "shards": {"0": {"points":, "failed":, "last_seen_s":}, ...},
     "runners": [{"runner":, "name":, "pid":, "alive":, "points":,
                  "chunks":, "last_seen_s":}, ...],   # distributed only
     "jobs": J}
"""

import json
import os
import tempfile
import threading
import time

from repro.analysis.coverage import (COVERAGE_SUFFIX, CoverageMap,
                                     save_coverage)
from repro.obs.events import event_log
from repro.obs.metrics import Quantile, RateWindow, get_registry

STATUS_SCHEMA = 1

#: Suffix appended to a result-store path to name its status snapshot.
STATUS_SUFFIX = ".status.json"


def status_path_for(store_path):
    """Where a campaign writing ``store_path`` publishes its status."""
    return store_path + STATUS_SUFFIX


class LiveStatus:
    """Streaming campaign aggregator + atomic status publisher.

    ``path=None`` keeps the aggregation in memory only (snapshots are
    still available to in-process callers — the tests, the final
    summary); with a path every refresh atomically rewrites the
    ``status.json`` snapshot.
    """

    def __init__(self, name, total, path=None, jobs=1,
                 publish_interval_s=0.5, rate_window_s=15.0,
                 clock=time.monotonic, extra=None):
        self.name = name
        self.total = total
        self.path = path
        self.jobs = jobs
        self.publish_interval_s = publish_interval_s
        #: Caller-supplied fields merged into every snapshot (e.g. the
        #: serve master stamps its run id here).
        self.extra = dict(extra or {})
        # Ingestion and snapshotting may come from different threads
        # (the serve master folds points in its executor thread while
        # answering status RPCs from client threads); reentrant
        # because point() -> publish() -> snapshot() nests.
        self._lock = threading.RLock()
        self._clock = clock
        self._start = clock()
        self._last_publish = None
        self.state = "running"
        self.completed = 0
        self.failed = 0
        self.resumed = 0
        self.corrupt_rows_skipped = 0
        self.instructions = 0
        self.cycles = 0
        self.injections = 0
        self.detected = 0
        self.latency_ns = Quantile()
        #: Per-structure × fault-model detection coverage, merged from
        #: each point's ``metrics["coverage"]`` cells.
        self.coverage = CoverageMap()
        self._point_rate = RateWindow(rate_window_s, clock=clock)
        self._instr_rate = RateWindow(rate_window_s, clock=clock)
        self._shards = {}
        # Lockstep batch kernel observability (repro.perf.batch):
        # occupancy (lanes-active) and eviction accounting, folded from
        # each batch's stats dict.
        self.batches = 0
        self.batch_lanes = 0
        self.batch_evictions_by_cause = {}
        self._batch_occupancy_sum = 0.0
        #: Latest remote-runner fleet snapshot (distributed campaigns;
        #: empty for purely local runs — the section is omitted then).
        self._runners = []

    # -- ingestion ---------------------------------------------------------

    def begin(self, resumed=0, corrupt_rows_skipped=0):
        """Mark the campaign started (publishes the first snapshot, so
        watchers see the run the moment it exists)."""
        self.resumed = resumed
        self.corrupt_rows_skipped = corrupt_rows_skipped
        self.publish(force=True)

    def point(self, result):
        """Fold one completed :class:`PointResult` into the stream."""
        with self._lock:
            self._point_locked(result)

    def _point_locked(self, result):
        now = self._clock()
        self.completed += 1
        if not result.ok:
            self.failed += 1
        shard = self._shards.setdefault(
            result.worker, {"points": 0, "failed": 0, "last_seen": now})
        shard["points"] += 1
        shard["last_seen"] = now
        if not result.ok:
            shard["failed"] += 1
        metrics = result.metrics or {}
        instrs = metrics.get("instructions") or 0
        self.instructions += instrs
        self.cycles += metrics.get("cycles") or 0
        self.injections += metrics.get("injections") or 0
        self.detected += metrics.get("detected") or 0
        self.latency_ns.observe_many(metrics.get("latencies_ns") or ())
        self._fold_coverage(metrics)
        self._point_rate.tick(1, now=now)
        if instrs:
            self._instr_rate.tick(instrs, now=now)
        self.publish()

    def _fold_coverage(self, metrics):
        cells = metrics.get("coverage")
        if not cells:
            return
        self.coverage.merge_cells(cells)
        # Per-structure gauges in the process registry, for anything
        # scraping metrics rather than the status snapshot.
        registry = get_registry()
        for structure, rate in self.coverage.structure_rates().items():
            registry.gauge(f"coverage.{structure}").set(rate)

    def batch(self, stats):
        """Fold one lockstep batch's kernel stats.

        ``stats`` is :class:`repro.perf.batch.BatchOutcome` ``.stats``:
        ``{"lanes", "instructions", "occupancy", "evictions"}`` with
        ``occupancy`` the mean live-lane fraction over the run.  Feeds
        the lanes-active gauge and the per-cause eviction counters in
        the process registry, plus the snapshot's ``batch`` section.
        """
        with self._lock:
            self.batches += 1
            lanes = stats.get("lanes") or 0
            occupancy = stats.get("occupancy") or 0.0
            evictions = stats.get("evictions") or {}
            self.batch_lanes += lanes
            self._batch_occupancy_sum += occupancy * lanes
            for cause, count in evictions.items():
                self.batch_evictions_by_cause[cause] = (
                    self.batch_evictions_by_cause.get(cause, 0) + count)
            registry = get_registry()
            registry.counter("batch.batches").inc()
            registry.counter("batch.lanes").inc(lanes)
            registry.gauge("batch.lanes_active").set(occupancy * lanes)
            for cause, count in evictions.items():
                registry.counter("batch.evictions").inc(count)
                registry.counter(f"batch.evictions.{cause}").inc(count)
            self.publish()

    def resumed_point(self, result):
        """Fold a *resumed* row's coverage cells (and nothing else).

        Resumed rows are already counted by :meth:`begin`'s ``resumed``
        total and never re-run, so completed/throughput/latency stay
        untouched — but the persisted coverage map must equal an
        uninterrupted run's, so their cells are merged in.
        """
        with self._lock:
            self._fold_coverage(result.metrics or {})

    def runners(self, info):
        """Record the remote-runner fleet snapshot (distributed runs).

        ``info`` is :meth:`repro.campaign.remote.RunnerHub.runners_info`
        output — per-runner name/pid/health/points/chunks.  The
        transport feeds this periodically; the latest snapshot is
        embedded in ``status.json`` under ``"runners"`` so ``repro
        watch`` can show fleet health next to the shard table.
        """
        with self._lock:
            self._runners = list(info)
            self.publish()

    def heartbeat(self, worker, now=None):
        """Record shard liveness outside point completion."""
        with self._lock:
            now = self._clock() if now is None else now
            shard = self._shards.setdefault(
                worker, {"points": 0, "failed": 0, "last_seen": now})
            shard["last_seen"] = now

    def finish(self):
        """Mark the campaign done and publish the final snapshot."""
        self.state = "finished"
        self.publish(force=True)
        self._persist_coverage()

    def aborted(self):
        """Mark the campaign aborted (cancel/pause/shutdown) and
        publish, so watchers see a terminal state instead of a run
        that went silently stale."""
        self.state = "aborted"
        self.publish(force=True)
        self._persist_coverage()

    def coverage_path(self):
        """Where this campaign persists its coverage map (``None``
        when status is in-memory only): ``<store>.coverage.json``,
        derived from the status path so serve-managed runs land next
        to their store with no extra wiring."""
        if self.path is None:
            return None
        if self.path.endswith(STATUS_SUFFIX):
            return self.path[:-len(STATUS_SUFFIX)] + COVERAGE_SUFFIX
        return self.path + COVERAGE_SUFFIX

    def _persist_coverage(self):
        """Write the merged coverage map at terminal states.

        Written only at finish/abort — never per point — and as
        sorted-key JSON with no timestamps, so serial, sharded and
        serve runs of the same point set produce byte-identical
        artifacts.  Failures are swallowed like :meth:`publish` ones.
        """
        path = self.coverage_path()
        if path is None:
            return
        with self._lock:
            if not self.coverage:
                return
            try:
                save_coverage(self.coverage, path)
            except OSError:
                pass

    # -- output ------------------------------------------------------------

    def snapshot(self):
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self):
        now = self._clock()
        elapsed = now - self._start
        points_per_s = self._point_rate.rate(now=now)
        remaining = max(0, self.total - self.resumed - self.completed)
        snap = {
            "schema": STATUS_SCHEMA,
            "campaign": self.name,
            "state": self.state,
            "updated_unix": time.time(),
            "elapsed_s": elapsed,
            "jobs": self.jobs,
            "points": {
                "total": self.total,
                "completed": self.completed,
                "failed": self.failed,
                "resumed": self.resumed,
                "corrupt_rows_skipped": self.corrupt_rows_skipped,
            },
            "throughput": {
                "points_per_s": points_per_s,
                "instrs_per_s": self._instr_rate.rate(now=now),
                "eta_s": (remaining / points_per_s
                          if points_per_s > 0 else None),
            },
            "latency_ns": self.latency_ns.snapshot(),
            "detection": {
                "injections": self.injections,
                "detected": self.detected,
                "rate": (self.detected / self.injections
                         if self.injections else None),
            },
            "totals": {
                "instructions": self.instructions,
                "cycles": self.cycles,
            },
            "coverage": self.coverage.structure_rates(),
            "batch": {
                "batches": self.batches,
                "lanes": self.batch_lanes,
                "mean_lanes_active": (
                    self._batch_occupancy_sum / self.batches
                    if self.batches else None),
                "evictions": sum(self.batch_evictions_by_cause.values()),
                "evictions_by_cause": dict(sorted(
                    self.batch_evictions_by_cause.items())),
            },
            "shards": {
                str(worker): {
                    "points": shard["points"],
                    "failed": shard["failed"],
                    "last_seen_s": now - shard["last_seen"],
                }
                # Mixed fleets key shards by int and runners by name.
                for worker, shard in sorted(
                    self._shards.items(),
                    key=lambda item: (type(item[0]).__name__, item[0]))
            },
        }
        if self._runners:
            now_unix = time.time()
            snap["runners"] = [{
                "runner": r.get("runner"),
                "name": r.get("name"),
                "pid": r.get("pid"),
                "alive": r.get("alive"),
                "points": r.get("points"),
                "chunks": r.get("chunks"),
                "last_seen_s": (now_unix - r["last_seen_unix"]
                                if r.get("last_seen_unix") else None),
            } for r in self._runners]
        snap.update(self.extra)
        return snap

    def publish(self, force=False):
        """Atomically rewrite ``status.json`` (throttled unless forced).

        Publication failures are swallowed — observability must never
        take a campaign down.
        """
        if self.path is None:
            return False
        with self._lock:
            now = self._clock()
            if (not force and self._last_publish is not None
                    and now - self._last_publish < self.publish_interval_s):
                return False
            self._last_publish = now
            payload = json.dumps(self._snapshot_locked(),
                                 sort_keys=True) + "\n"
        try:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory,
                                             prefix=".status-",
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(temp_path, self.path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True


def load_status(path):
    """Read one published snapshot; ``None`` if absent or unreadable.

    The writer only ever :func:`os.replace`-publishes complete files,
    so a successful read is always a complete snapshot — but a reader
    racing the very first publication (or pointed at garbage) gets
    ``None``, never an exception.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(snapshot, dict) or "campaign" not in snapshot:
        return None
    return snapshot


def snapshot_from_store(store_path, name=None):
    """Synthesize a status snapshot from a (finished) result store.

    ``repro watch`` falls back to this when a campaign never published
    live status (or the run predates the observability layer): the
    JSONL rows are replayed through a :class:`LiveStatus`, producing
    the same schema with state ``"store"`` — percentiles and totals
    are real, rates are meaningless (no live clock) and left zero.
    """
    from repro.campaign.results import ResultStore

    results = ResultStore.load(store_path)
    live = LiveStatus(name or os.path.basename(store_path),
                      total=len(results), path=None)
    for result in sorted(results.values(), key=lambda r: r.index):
        live.point(result)
    live.state = "store"
    snap = live.snapshot()
    # A replay has no live clock: scrub the misleading instant rates.
    snap["elapsed_s"] = None
    snap["throughput"] = {"points_per_s": None, "instrs_per_s": None,
                          "eta_s": None}
    for shard in snap["shards"].values():
        shard["last_seen_s"] = None
    return snap


def attach_live(spec, jobs, store=None, status_path=None):
    """Build the :class:`LiveStatus` for one campaign run (or ``None``).

    Status is published when the campaign has somewhere to put it:
    an explicit ``status_path`` wins, otherwise a file-backed result
    store implies ``<store>.status.json`` right next to it.
    """
    if status_path is None and store is not None and store.path:
        status_path = status_path_for(store.path)
    if status_path is None:
        return None
    event_log().emit("status_attached", campaign=spec.name,
                     path=status_path)
    return LiveStatus(spec.name, total=len(spec.points), path=status_path,
                      jobs=jobs)
