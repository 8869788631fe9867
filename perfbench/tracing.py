"""Layer tracing from outside the program.

Each traced layer's public entry point is replaced by a timing wrapper
on the attribute its caller resolves: a method on its class
(``MeekController.fast_commit`` — so the fused stepper's identity check
in ``repro.perf.jit`` still selects the fast path, because the class
attribute and the bound method's ``__func__`` are the same wrapper),
or a function on the module the caller looks it up in
(``segmemo.memo_advance``, ``pool.evaluate_units``).  Nothing under
``src/`` changes.

Every call becomes a span ``(name, start, end, parent)`` in per-thread
in-memory arrays; a process writes its spans to
``<dir>/spans-<pid>.npz`` when it is done.  Forked pool shards inherit
the wrappers, drop the parent's spans, and flush at exit through a
``multiprocessing`` finalizer; processes started through
``perfbench/boot.py`` flush at interpreter exit.
"""

import atexit
import functools
import json
import multiprocessing.util as mp_util
import os
import threading
import time
from array import array

import numpy as np

#: Environment variable naming the span directory; ``boot.py``
#: installs tracing when it is set.
TRACE_ENV = "PERFBENCH_TRACE_DIR"


class _Buffer:
    """One thread's spans, as parallel arrays plus its open-span stack."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []


class Tracer:
    """Span and counter sink for one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.names = []
        self._ids = {}
        self._patched = []
        self._reset()

    def _reset(self):
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name, observe=None):
        """``fn`` with every call recorded as a span named ``name``;
        ``observe(tracer, buf, index, result)`` may inspect a return."""
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer.buffer()
            index = len(buf.start)
            stack = buf.stack
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(clock())
            buf.end.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, buf, index, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, observe)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))
        return wrapped

    def install(self):
        """Wrap every entry point :func:`_layers` names and arrange
        per-process flushing for forked children."""
        for owner, attr, name, observe in _layers():
            wrapped = self.patch(owner, attr, name, observe)
            if name == "campaign.tasks.run_inject_point":
                # evaluate_point finds tasks through the registry.
                from repro.campaign import tasks
                tasks.TASKS["inject"] = wrapped
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
            if attr == "run_inject_point":
                from repro.campaign import tasks
                tasks.TASKS["inject"] = original
        self._patched = []

    def _after_fork(self):
        # A forked shard starts with no spans of its own and writes
        # them out when multiprocessing shuts the child down.
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    # -- output ------------------------------------------------------------

    def flush(self):
        """Write this process's spans and counters; returns the path."""
        with self._lock:
            buffers = list(self._buffers)
        names, parents, starts, ends = [], [], [], []
        offset = 0
        for buf in buffers:
            count = len(buf.start)
            if not count:
                continue
            parent = np.frombuffer(buf.parent, dtype=np.int32)[:count]
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.frombuffer(buf.name, dtype=np.int32)[:count])
            starts.append(np.frombuffer(buf.start, dtype=np.float64)[:count])
            ends.append(np.frombuffer(buf.end, dtype=np.float64)[:count])
            offset += count

        def join(parts, dtype):
            return (np.concatenate(parts) if parts
                    else np.zeros(0, dtype=dtype))

        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.npz")
        np.savez(path, names=np.array(self.names or [""]),
                 name=join(names, np.int32), parent=join(parents, np.int64),
                 start=join(starts, np.float64), end=join(ends, np.float64),
                 counters=np.array(json.dumps(self.counters)))
        return path


def install_from_env():
    """Install tracing when :data:`TRACE_ENV` is set (boot helper)."""
    out_dir = os.environ.get(TRACE_ENV)
    if not out_dir:
        return None
    tracer = Tracer(out_dir).install()
    atexit.register(tracer.flush)
    return tracer


def load_spans(out_dir):
    """Every process's spans: a list of dicts of arrays + counters."""
    procs = []
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".npz")):
            continue
        with np.load(os.path.join(out_dir, entry),
                     allow_pickle=False) as data:
            procs.append({
                "names": [str(n) for n in data["names"]],
                "name": data["name"], "parent": data["parent"],
                "start": data["start"], "end": data["end"],
                "counters": json.loads(str(data["counters"])),
            })
    return procs


# -- the traced layers -----------------------------------------------------

def _observe_batch(tracer, buf, index, outcome):
    stats = outcome.stats
    tracer.count("perf.batch.runs")
    tracer.count("perf.batch.lanes", stats["lanes"])
    # ``evicted`` holds each lane's eviction cause, None if it finished.
    tracer.count("perf.batch.evicted",
                 sum(1 for cause in outcome.evicted if cause is not None))
    tracer.count("perf.batch.instructions", stats["instructions"])
    tracer.count("perf.batch.occupancy_x_instructions",
                 stats["occupancy"] * stats["instructions"])


def _observe_memo(tracer, buf, index, outcome):
    from repro.core import segmemo
    parent = buf.parent[index]
    if parent >= 0 and tracer.names[buf.name[parent]] \
            == "core.segmemo.follow_advance":
        return  # a follower settling through memo_advance: one advance
    tracer.count("core.segmemo.advances")
    if outcome is not segmemo.FALLBACK:
        tracer.count("core.segmemo.hits")


def _observe_inject(tracer, buf, index, record):
    if record is not None:
        tracer.count("core.faults.injected")


def _observe_lease(tracer, buf, index, work):
    if work is None:
        buf.name[index] = tracer.name_id("campaign.remote.lease_idle")


def _layers():
    """``(owner, attribute, span name, observer)`` for every traced
    entry point, owner being what the caller resolves the name on."""
    from repro import workloads
    from repro.bigcore.core import BigCore
    from repro.campaign import executor, pool, remote, tasks
    from repro.campaign.remote import RunnerHub
    from repro.campaign.results import ResultStore
    from repro.core import segmemo
    from repro.core.checker import CheckerRun
    from repro.core.controller import MeekController
    from repro.core.faults import FaultInjector
    from repro.core.lsl import LoadStoreLog
    from repro.core.system import MeekSystem
    from repro.fabric.base import ForwardingFabric
    from repro.fabric.dcbuffer import DcBufferModel
    from repro.obs import live
    from repro.obs.live import LiveStatus
    from repro.perf import batch, decode, jit
    from repro.serve.client import ServeClient

    work_units = "campaign.work.evaluate_units"
    return [
        # Roots: one span per evaluated chunk, wherever it runs.
        (pool, "evaluate_units", work_units, None),
        (remote, "evaluate_units", work_units, None),
        (executor, "evaluate_units", work_units, None),
        # Inside a worker.
        (tasks, "build_program", "campaign.tasks.build_program", None),
        (workloads, "generate_program", "workloads.generate_program", None),
        (tasks, "run_inject_point", "campaign.tasks.run_inject_point", None),
        (batch, "run_batch", "perf.batch.run_batch", _observe_batch),
        (MeekSystem, "attach", "core.system.attach", None),
        (MeekSystem, "finish", "core.system.finish", None),
        (BigCore, "run", "bigcore.run", None),
        (MeekController, "commit_hook", "core.controller.commit_hook", None),
        (MeekController, "fast_commit", "core.controller.fast_commit", None),
        (CheckerRun, "advance", "core.checker.advance", None),
        (segmemo, "memo_advance", "core.segmemo.memo_advance",
         _observe_memo),
        (segmemo, "follow_advance", "core.segmemo.follow_advance",
         _observe_memo),
        (ForwardingFabric, "send", "fabric.send", None),
        (ForwardingFabric, "send_runtime", "fabric.send_runtime", None),
        (DcBufferModel, "push", "fabric.dcbuffer.push", None),
        (LoadStoreLog, "record_delivery", "core.lsl.record_delivery", None),
        (FaultInjector, "maybe_inject_runtime", "core.faults.inject",
         _observe_inject),
        (FaultInjector, "maybe_inject_status", "core.faults.inject",
         _observe_inject),
        (FaultInjector, "maybe_inject_dcbuf", "core.faults.inject",
         _observe_inject),
        (FaultInjector, "maybe_inject_fabric", "core.faults.inject",
         _observe_inject),
        (jit, "cached_compile", "perf.cache.cached_compile", None),
        (decode, "cached_compile", "perf.cache.cached_compile", None),
        # Master side.
        (executor, "run_campaign", "campaign.executor.run_campaign", None),
        (ResultStore, "append", "campaign.results.append", None),
        (LiveStatus, "point", "obs.live.point", None),
        (live, "save_coverage", "analysis.coverage.save_coverage", None),
        (RunnerHub, "lease", "campaign.remote.lease", _observe_lease),
        # Client side.
        (ServeClient, "submit", "serve.client.submit", None),
    ]


#: Layers no wrapper reaches from outside: work done inside code the
#: exec-generated steppers call through references captured at build
#: time (memory hierarchy accesses, predictor updates, the fused
#: replay closures) is attributed to the enclosing span's self time.
UNTRACEABLE = (
    "mem.hierarchy.access (captured by the fused big-core and replay "
    "steppers; counted in bigcore.run / core.checker.advance self time)",
    "bigcore.branch predictor (captured likewise)",
    "littlecore.pipeline replay closures (cached per pipeline; counted "
    "in core.checker.advance self time)",
)
