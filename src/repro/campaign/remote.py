"""Remote campaign runners: register, heartbeat, lease, stream rows.

The multi-host half of the transport layer (ARTIQ's controller-manager
register/heartbeat/restart pattern, adapted to work-stealing):

* :class:`RunnerHub` — the master-side registry of runner processes.
  Socket-agnostic: :func:`handle_runner_method`, called from either
  server's connection threads, drives :meth:`~RunnerHub.register` /
  :meth:`~RunnerHub.lease` / :meth:`~RunnerHub.row` /
  :meth:`~RunnerHub.heartbeat`, and a closed connection reports
  :meth:`~RunnerHub.lost_channel`.  While a campaign executes, a
  :class:`Drive` is attached and leases flow; between campaigns
  runners idle on empty leases.
* :func:`serve_runners` — the TCP runner port: a line server that
  answers ``runner_*`` methods only (anything else gets
  ``bad_request``).  **Security note: the port does no
  authentication — bind it only on interfaces you trust (loopback or
  a private cluster network).**  Runner loss is detected the moment
  the connection drops; the hub releases its leases, which requeue to
  the surviving sources (or fail, for a unit on its second lost
  owner — the one loss policy of :mod:`repro.campaign.transport`).
* :func:`run_runner` — the ``repro runner --connect`` client loop:
  connect (TCP port or serve socket), register, lease chunks,
  evaluate them with the same
  :func:`~repro.campaign.work.evaluate_units` loop every other
  source uses, and stream the result rows back (pipelined, one
  response drain per chunk).  Reconnects with backoff when the master
  goes away, so a restarted master gets its fleet back without anyone
  touching the runner hosts.

The wire itself is not here: one
:class:`~repro.serve.protocol.LineServer` and one
:class:`~repro.serve.protocol.LineClient` carry both the TCP runner
port and the ``repro serve`` Unix socket, so framing, error replies
and connection loss behave the same on both.

Determinism: a runner evaluates points with the same per-point
deterministic RNG as a local shard — rows are pure functions of point
identity — so any mixture of runners and local shards produces
byte-identical metrics rows and ``coverage.json``.
"""

import functools
import os
import threading
import time

from repro.campaign.spec import CampaignPoint
from repro.campaign.work import evaluate_units
from repro.obs.events import event_log
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, ServeError

__all__ = [
    "Drive",
    "RunnerHub",
    "handle_runner_method",
    "parse_address",
    "run_runner",
    "serve_runners",
]


def parse_address(address):
    """``HOST:PORT`` (or a bare port) → ``("tcp", host, port)``;
    anything else is a Unix socket path → ``("unix", path, None)``."""
    if address.isdigit():
        return "tcp", "127.0.0.1", int(address)
    if ":" in address:
        host, _, port = address.rpartition(":")
        try:
            return "tcp", host or "127.0.0.1", int(port)
        except ValueError:
            pass
    return "unix", address, None


class Drive:
    """Thread-safe shim between the sources and the scheduler.

    Owned by :func:`~repro.campaign.transport.drive_campaign` for the
    duration of one campaign.  Local sources and runner connection
    threads lease, record and release under the lock; deliverables
    queue up and are drained — and their callbacks run — only on the
    drive loop, so store appends, live status, and progress callbacks
    never race.
    """

    def __init__(self, sched, campaign_name, timeout_s=None):
        self._sched = sched
        self._lock = threading.Lock()
        self._deliverables = []
        self.campaign_name = campaign_name
        self.timeout_s = timeout_s

    # -- leasing (any thread) ----------------------------------------------

    def lease(self, owner, now=None):
        """Lease the next unit to ``owner``; a deadline is armed only
        when ``now`` is given (remote leases)."""
        with self._lock:
            return self._sched.lease(owner, now=now)

    def lease_payload(self, owner):
        """Lease a chunk with a deadline and serialize it for the wire
        (or ``None``).  The points are one planned unit, evaluated
        as-is."""
        chunk = self.lease(owner, now=time.monotonic())
        if chunk is None:
            return None
        return {
            "chunk": chunk.chunk_id,
            "epoch": chunk.epoch,
            "campaign": self.campaign_name,
            "timeout_s": self.timeout_s,
            "points": [[index, point.to_dict()]
                       for index, point in chunk.pairs],
        }

    def record(self, chunk_id, epoch, row):
        with self._lock:
            self._deliverables.extend(
                self._sched.record(chunk_id, epoch, row))

    def release(self, owner):
        """Release a lost owner's leases; returns the requeued chunks
        (failed tails are queued as deliverables)."""
        with self._lock:
            requeued, failed = self._sched.release(owner)
            self._deliverables.extend(failed)
        return requeued

    def renew(self, owner):
        with self._lock:
            self._sched.renew(owner, time.monotonic())

    def expire(self, now):
        with self._lock:
            return self._sched.expire(now)

    # -- folding (drive loop) ----------------------------------------------

    def drain(self):
        with self._lock:
            drained = self._deliverables
            self._deliverables = []
        return drained

    def fail_lost(self):
        with self._lock:
            return self._sched.fail_lost()

    def results(self):
        with self._lock:
            return self._sched.results()

    @property
    def done(self):
        with self._lock:
            return self._sched.done

    @property
    def completed(self):
        with self._lock:
            return self._sched.completed


class _Runner:
    """Master-side record of one registered runner process."""

    __slots__ = ("runner_id", "name", "pid", "slots", "channel",
                 "alive", "connected_unix", "last_seen_unix",
                 "points", "chunks")

    def __init__(self, runner_id, name, pid, slots, channel):
        self.runner_id = runner_id
        self.name = name or f"runner-{runner_id}"
        self.pid = pid
        self.slots = slots or 1
        self.channel = channel
        self.alive = True
        self.connected_unix = time.time()
        self.last_seen_unix = self.connected_unix
        self.points = 0
        self.chunks = 0


class RunnerHub:
    """Registry of remote runners + the campaign drive they feed.

    ``lease_timeout_s`` is the base deadline of a runner lease (see
    :func:`~repro.campaign.transport.effective_lease_timeout`); rows
    and heartbeats renew it.
    """

    def __init__(self, lease_timeout_s=60.0):
        self.lease_timeout_s = lease_timeout_s
        self._lock = threading.Lock()
        self._runners = {}
        self._next_id = 1
        self._drive = None

    # -- drive attachment (drive loop) -------------------------------------

    def attach(self, drive):
        with self._lock:
            self._drive = drive

    def detach(self):
        with self._lock:
            self._drive = None

    def _current_drive(self):
        with self._lock:
            return self._drive

    # -- runner lifecycle (connection threads) -----------------------------

    def register(self, channel, name=None, pid=None, slots=None):
        with self._lock:
            runner_id = self._next_id
            self._next_id += 1
            runner = _Runner(runner_id, name, pid, slots, channel)
            self._runners[runner_id] = runner
        event_log().emit("runner_register", runner=runner_id,
                         name=runner.name, pid=pid, slots=runner.slots)
        return runner_id

    def _owner(self, runner_id):
        return ("runner", runner_id)

    def _touch(self, runner_id):
        runner = self._runners.get(runner_id)
        if runner is None or not runner.alive:
            raise ProtocolError(protocol.E_NOT_FOUND,
                                f"no registered runner {runner_id}")
        runner.last_seen_unix = time.time()
        return runner

    def lease(self, runner_id):
        with self._lock:
            runner = self._touch(runner_id)
        drive = self._current_drive()
        if drive is None:
            return None
        work = drive.lease_payload(self._owner(runner_id))
        if work is not None:
            with self._lock:
                runner.chunks += 1
            event_log().emit("runner_lease", runner=runner_id,
                             chunk=work["chunk"], epoch=work["epoch"],
                             points=len(work["points"]))
        return work

    def row(self, runner_id, chunk, epoch, row):
        with self._lock:
            runner = self._touch(runner_id)
            if "__batch__" not in row:
                runner.points += 1
        drive = self._current_drive()
        if drive is not None:
            drive.record(chunk, epoch, row)
            drive.renew(self._owner(runner_id))

    def heartbeat(self, runner_id):
        with self._lock:
            self._touch(runner_id)
        drive = self._current_drive()
        if drive is not None:
            drive.renew(self._owner(runner_id))
        return drive is not None

    def lost(self, runner_id):
        with self._lock:
            runner = self._runners.get(runner_id)
            if runner is None or not runner.alive:
                return
            runner.alive = False
        event_log().emit("runner_lost", runner=runner_id,
                         name=runner.name)
        drive = self._current_drive()
        if drive is not None:
            for chunk in drive.release(self._owner(runner_id)):
                event_log().emit("runner_chunk_requeued",
                                 runner=runner_id,
                                 chunk=chunk.chunk_id,
                                 points=len(chunk.pairs))

    def lost_channel(self, channel):
        """A connection died: every runner registered over it is gone."""
        with self._lock:
            stale = [r.runner_id for r in self._runners.values()
                     if r.alive and r.channel is channel]
        for runner_id in stale:
            self.lost(runner_id)

    # -- queries -----------------------------------------------------------

    def active_count(self):
        with self._lock:
            return sum(1 for r in self._runners.values() if r.alive)

    def wait_for(self, count, timeout_s=None, poll_s=0.05):
        """Block until ``count`` runners are registered (or timeout);
        returns the active count either way."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while True:
            active = self.active_count()
            if active >= count:
                return active
            if deadline is not None and time.monotonic() > deadline:
                return active
            time.sleep(poll_s)

    def runners_info(self):
        """Per-runner health/throughput snapshot (live status, hello)."""
        with self._lock:
            return [{
                "runner": r.runner_id, "name": r.name, "pid": r.pid,
                "slots": r.slots, "alive": r.alive,
                "points": r.points, "chunks": r.chunks,
                "last_seen_unix": r.last_seen_unix,
                "connected_unix": r.connected_unix,
            } for r in sorted(self._runners.values(),
                              key=lambda r: r.runner_id)]


def handle_runner_method(hub, channel, method, params):
    """Dispatch one validated ``runner_*`` request against ``hub``.

    Shared by the TCP runner port and the ``repro serve`` master (so
    runners can register over either the TCP port or the serve Unix
    socket, alongside regular clients).
    """
    if method == "runner_register":
        runner_id = hub.register(channel, name=params.get("name"),
                                 pid=params.get("pid"),
                                 slots=params.get("slots"))
        return {"runner": runner_id,
                "schema": protocol.PROTOCOL_SCHEMA}
    if method == "runner_lease":
        return {"work": hub.lease(params["runner"])}
    if method == "runner_row":
        hub.row(params["runner"], params["chunk"], params["epoch"],
                params["row"])
        return {"accepted": True}
    if method == "runner_heartbeat":
        return {"active": hub.heartbeat(params["runner"])}
    raise ProtocolError(protocol.E_UNKNOWN_METHOD,
                        f"not a runner method: {method!r}")


def serve_runners(hub, address="127.0.0.1:0"):
    """Open the runner port on ``address`` (``[HOST:]PORT``; port 0
    picks a free one) and return its running
    :class:`~repro.serve.protocol.LineServer`; ``.address`` is the
    bound ``host:port``, ``.stop()`` closes it.

    Trusted-network-only: there is no authentication or transport
    encryption on this socket.
    """
    server = protocol.LineServer(
        parse_address(str(address)),
        functools.partial(handle_runner_method, hub),
        methods=protocol.RUNNER_METHODS, on_close=hub.lost_channel,
        name="runner")
    event_log().emit("runner_listener_start", address=server.address)
    return server


# -- the runner client -----------------------------------------------------

def run_runner(address, name=None, poll_s=0.5, reconnect=True,
               retry_s=30.0, max_chunks=None, idle_exit_s=None,
               heartbeat_s=10.0, on_status=None):
    """The ``repro runner --connect`` main loop.

    Connect to a master at ``address`` (``HOST:PORT`` or a Unix
    socket path), register, then lease chunks and stream rows until
    the connection dies.  With ``reconnect`` the runner retries for
    ``retry_s`` seconds of continuous failure before giving up — a
    master restart inside that window gets this runner back without
    intervention.  While a lease evaluates, a helper thread casts a
    heartbeat every ``heartbeat_s`` seconds so a legitimately slow
    unit (an unbounded point, a wide batch group) keeps renewing its
    lease instead of expiring mid-evaluation and livelocking the
    campaign on requeues.  ``max_chunks`` bounds the loop for tests
    and drills; ``idle_exit_s`` ends it once that long has passed
    without a lease grant, whether the master is idle or gone (while
    retrying, it wins over ``retry_s``).  Returns the number of chunks
    evaluated.
    """
    chunks_done = 0
    last_grant = time.monotonic()
    failing_since = None
    while True:
        channel = None
        try:
            channel = protocol.LineClient(parse_address(address))
            failing_since = None
            hello = channel.call("runner_register", {
                "name": name, "pid": os.getpid(), "slots": 1})
            runner_id = hello["runner"]
            worker_id = name or f"runner-{runner_id}"
            if on_status is not None:
                on_status(f"registered as runner {runner_id} "
                          f"({worker_id}) at {address}")
            event_log().emit("runner_connected", runner=runner_id,
                             address=address, name=worker_id)
            while True:
                work = channel.call("runner_lease",
                                    {"runner": runner_id})["work"]
                if work is None:
                    if (idle_exit_s is not None
                            and time.monotonic() - last_grant
                            > idle_exit_s):
                        return chunks_done
                    channel.call("runner_heartbeat",
                                 {"runner": runner_id})
                    time.sleep(poll_s)
                    continue
                last_grant = time.monotonic()
                chunks_done += 1
                _evaluate_lease(channel, runner_id, worker_id, work,
                                heartbeat_s=heartbeat_s)
                if max_chunks is not None and chunks_done >= max_chunks:
                    return chunks_done
        except (OSError, ServeError, ProtocolError, KeyError) as exc:
            # A refused connect and a dropped conversation are one
            # failure: retry until ``retry_s`` of continuous failure.
            if not reconnect:
                raise ConnectionError(
                    f"no master at {address}: {exc}") from exc
            now = time.monotonic()
            # A master that finished closes its port: past the idle
            # budget that is a normal end, not a failure to retry.
            if idle_exit_s is not None and now - last_grant > idle_exit_s:
                return chunks_done
            failing_since = failing_since or now
            if now - failing_since > retry_s:
                raise ConnectionError(
                    f"no master at {address} within {retry_s:.0f}s "
                    f"of retries: {exc}") from exc
            if on_status is not None and channel is not None:
                on_status(f"connection lost ({exc}); retrying")
            time.sleep(min(1.0, poll_s))
        finally:
            if channel is not None:
                channel.close()


def _evaluate_lease(channel, runner_id, worker_id, work,
                    heartbeat_s=10.0):
    """Evaluate one leased chunk and stream its rows back (pipelined;
    one response drain at the end keeps the wire round-trip cost per
    chunk, not per point).

    A helper thread casts ``runner_heartbeat`` every ``heartbeat_s``
    seconds for the duration of the evaluation: completed-unit rows
    are the only other renewal signal, so without it any single unit
    slower than the master's lease timeout would expire its lease
    mid-evaluation.  The thread only ever *casts* (the client's send
    path is lock-serialized); it is joined before the final flush, so
    the main loop's synchronous calls never race a stray response.
    """
    pairs = [(index, CampaignPoint.from_dict(point_dict))
             for index, point_dict in work["points"]]

    def send_row(row):
        channel.cast("runner_row", {
            "runner": runner_id, "chunk": work["chunk"],
            "epoch": work["epoch"], "row": row})

    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_s):
            try:
                channel.cast("runner_heartbeat", {"runner": runner_id})
            except OSError:
                return  # the evaluating thread will hit it too

    beater = None
    if heartbeat_s is not None and heartbeat_s > 0:
        beater = threading.Thread(target=beat, daemon=True,
                                  name=f"runner-heartbeat-{runner_id}")
        beater.start()
    try:
        evaluate_units([pairs], work["campaign"],
                       work.get("timeout_s"), worker_id,
                       emit=lambda result: send_row(result.to_row()),
                       on_batch=lambda stats: send_row(
                           {"__batch__": stats}))
    finally:
        if beater is not None:
            stop.set()
            beater.join()
    channel.flush()
