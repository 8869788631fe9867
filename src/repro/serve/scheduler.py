"""Run scheduling and persistence for the ``repro serve`` master.

The master's durable state all lives in one *state directory*
(default ``~/.cache/repro/serve``, ``$REPRO_SERVE_DIR`` overrides):

* ``rid_counter`` — the monotonic run-id allocator.  Persisted on
  every allocation, so a restarted master never reissues an id;
* ``runs/<rid>.json`` — one :class:`RunRecord` per submitted run
  (spec, priority, options, state, progress), atomically rewritten on
  every transition;
* ``runs/<rid>.results.jsonl`` — the run's result store (unless the
  submitter chose a path), which doubles as the resume source when a
  run is requeued or the master restarts;
* ``serve.sock`` / ``serve.json`` — the live master's socket and
  contact file (written by :mod:`repro.serve.master`).

Because every record and every result row is on disk before the
client hears about it, a master killed at any instant restarts into a
consistent world: :meth:`Scheduler.recover` puts interrupted runs
back on the queue, and the executor resumes them from their own
stores under their original run ids.

The queue itself is ARTIQ-flavoured: higher ``priority`` runs first,
ties break on run id (submission order).  Cancelling or pausing a
queued run leaves its heap entry behind — entries are validated
against the record's current state when popped (lazy deletion), so
state changes never have to hunt through the heap.
"""

import heapq
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.common.files import atomic_write

__all__ = [
    "BadTransition",
    "RidCounter",
    "RunRecord",
    "RunRegistry",
    "Scheduler",
    "UnknownRun",
    "default_state_dir",
]

#: Environment variable naming the serve state directory.
STATE_DIR_ENV = "REPRO_SERVE_DIR"

# -- run states ------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a dead master's recovery puts back on the queue.
RECOVERABLE = (QUEUED, RUNNING)
#: States :meth:`Scheduler.requeue` accepts (DONE is excluded — a
#: finished run has nothing left to resume).
REQUEUEABLE = (PAUSED, CANCELLED, FAILED)
#: States no transition leaves except ``requeue``.
TERMINAL = (DONE, FAILED, CANCELLED)


def default_state_dir():
    """The serve state directory (``$REPRO_SERVE_DIR`` or the cache)."""
    env = os.environ.get(STATE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "serve")


class UnknownRun(KeyError):
    """No record for that run id."""


class BadTransition(ValueError):
    """The run exists but the requested transition is illegal."""


@dataclass
class RunRecord:
    """One submitted run: identity, payload, and lifecycle state."""

    rid: int
    name: str
    spec: dict
    priority: int = 0
    state: str = QUEUED
    store: str = None
    options: dict = field(default_factory=dict)
    points_total: int = 0
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    error: str = None
    created_unix: float = 0.0
    started_unix: float = None
    finished_unix: float = None
    #: Transient (never persisted): "cancel"/"pause" requested while
    #: the run executes; the master's abort hook polls it.
    interrupt: str = None

    def to_dict(self):
        return {
            "rid": self.rid, "name": self.name, "spec": self.spec,
            "priority": self.priority, "state": self.state,
            "store": self.store, "options": dict(self.options),
            "points_total": self.points_total,
            "completed": self.completed, "failed": self.failed,
            "resumed": self.resumed, "error": self.error,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
        }

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__ if f != "interrupt"}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


class RidCounter:
    """Monotonic run-id allocator, persisted per allocation.

    The counter file is written atomically *before* the id is handed
    out, so even a master killed between allocation and first use
    never reuses a rid after restart.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._value = self._load()

    def _load(self):
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    @property
    def value(self):
        return self._value

    def next(self):
        with self._lock:
            self._value += 1
            atomic_write(self.path, f"{self._value}\n")
            return self._value


class RunRegistry:
    """On-disk store of :class:`RunRecord` documents."""

    def __init__(self, state_dir):
        self.state_dir = state_dir
        self.runs_dir = os.path.join(state_dir, "runs")

    def record_path(self, rid):
        return os.path.join(self.runs_dir, f"{rid}.json")

    def default_store(self, rid):
        """Where a run's results land unless the submitter chose."""
        return os.path.join(self.runs_dir, f"{rid}.results.jsonl")

    def save(self, record):
        atomic_write(self.record_path(record.rid),
                     json.dumps(record.to_dict(), sort_keys=True) + "\n")

    def load(self, rid):
        try:
            with open(self.record_path(rid), "r",
                      encoding="utf-8") as handle:
                return RunRecord.from_dict(json.load(handle))
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def load_all(self):
        """Every readable record, sorted by rid (corrupt files are
        skipped — one damaged record must not take the master down)."""
        records = []
        try:
            names = os.listdir(self.runs_dir)
        except OSError:
            return records
        for name in names:
            if not name.endswith(".json") or name.endswith(".status.json"):
                continue
            stem = name[:-len(".json")]
            if not stem.isdigit():
                continue
            record = self.load(int(stem))
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: record.rid)
        return records


class Scheduler:
    """Thread-safe priority queue of runs over a persistent registry.

    All state transitions flow through here (and are persisted before
    they are visible), so the master's RPC threads and its executor
    thread share one consistent view.
    """

    def __init__(self, registry, counter):
        self.registry = registry
        self.counter = counter
        self._cond = threading.Condition()
        self._heap = []  # (-priority, rid): higher priority pops first
        self._records = {record.rid: record
                         for record in registry.load_all()}

    # -- submission and recovery ------------------------------------------

    def submit(self, name, spec, priority=0, options=None, store=None,
               points_total=0):
        """Persist and enqueue a new run; returns its record."""
        rid = self.counter.next()
        record = RunRecord(
            rid=rid, name=name, spec=spec, priority=int(priority),
            store=store or self.registry.default_store(rid),
            options=dict(options or {}), points_total=points_total,
            created_unix=time.time())
        self.registry.save(record)
        with self._cond:
            self._records[rid] = record
            heapq.heappush(self._heap, (-record.priority, rid))
            self._cond.notify_all()
        return record

    def recover(self):
        """Requeue runs a previous master left queued or running.

        Their stores already hold every completed point, so the
        executor resumes them (same rid, same store) rather than
        restarting from scratch.
        """
        requeued = []
        with self._cond:
            for record in sorted(self._records.values(),
                                 key=lambda r: r.rid):
                if record.state in RECOVERABLE:
                    record.state = QUEUED
                    record.interrupt = None
                    self.registry.save(record)
                    heapq.heappush(self._heap,
                                   (-record.priority, record.rid))
                    requeued.append(record)
            if requeued:
                self._cond.notify_all()
        return requeued

    # -- the executor's side ----------------------------------------------

    def next_run(self, timeout=None):
        """Pop the highest-priority queued run and mark it running
        (``None`` on timeout).  Stale heap entries — runs cancelled or
        paused while queued — are discarded here."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while True:
                while self._heap:
                    _, rid = heapq.heappop(self._heap)
                    record = self._records.get(rid)
                    if record is None or record.state != QUEUED:
                        continue  # lazy deletion
                    record.state = RUNNING
                    record.interrupt = None
                    record.started_unix = time.time()
                    self.registry.save(record)
                    return record
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def finish(self, rid, state, completed=None, failed=None,
               resumed=None, error=None):
        """Record the outcome of an executed run."""
        with self._cond:
            record = self._require(rid)
            record.state = state
            record.interrupt = None
            record.error = error
            if completed is not None:
                record.completed = completed
            if failed is not None:
                record.failed = failed
            if resumed is not None:
                record.resumed = resumed
            if state in TERMINAL:
                record.finished_unix = time.time()
            elif state == QUEUED:
                # Going back on the queue (graceful shutdown): the
                # next master's recover() or this one's next_run will
                # pick it up.
                heapq.heappush(self._heap, (-record.priority, rid))
                self._cond.notify_all()
            self.registry.save(record)
            return record

    # -- client-driven transitions ----------------------------------------

    def _require(self, rid):
        record = self._records.get(rid)
        if record is None:
            raise UnknownRun(rid)
        return record

    def cancel(self, rid):
        """Cancel a queued/paused run now, or flag a running one (the
        executor aborts it at the next point boundary)."""
        with self._cond:
            record = self._require(rid)
            if record.state in (QUEUED, PAUSED):
                record.state = CANCELLED
                record.finished_unix = time.time()
                self.registry.save(record)
            elif record.state == RUNNING:
                record.interrupt = "cancel"
            else:
                raise BadTransition(
                    f"run {rid} is {record.state}; nothing to cancel")
            return record

    def pause(self, rid):
        """Park a queued run, or flag a running one to stop after the
        current point (resume later with :meth:`requeue`)."""
        with self._cond:
            record = self._require(rid)
            if record.state == QUEUED:
                record.state = PAUSED
                self.registry.save(record)
            elif record.state == RUNNING:
                record.interrupt = "pause"
            else:
                raise BadTransition(
                    f"run {rid} is {record.state}; only queued or "
                    f"running runs pause")
            return record

    def requeue(self, rid):
        """Put a paused/cancelled/failed run back on the queue; its
        store resumes it from wherever it stopped."""
        with self._cond:
            record = self._require(rid)
            if record.state not in REQUEUEABLE:
                raise BadTransition(
                    f"run {rid} is {record.state}; only "
                    f"{'/'.join(REQUEUEABLE)} runs requeue")
            record.state = QUEUED
            record.interrupt = None
            record.error = None
            record.finished_unix = None
            self.registry.save(record)
            heapq.heappush(self._heap, (-record.priority, rid))
            self._cond.notify_all()
            return record

    # -- introspection -----------------------------------------------------

    def get(self, rid):
        with self._cond:
            return self._require(rid)

    def queue_snapshot(self):
        """All known runs as dicts, sorted by rid."""
        with self._cond:
            return [self._records[rid].to_dict()
                    for rid in sorted(self._records)]

    def counts(self):
        """``{state: count}`` over every known run."""
        with self._cond:
            totals = {}
            for record in self._records.values():
                totals[record.state] = totals.get(record.state, 0) + 1
            return totals
