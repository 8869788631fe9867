"""The ``repro serve`` master: one warm fleet, many clients.

A :class:`Master` owns the process-wide
:class:`~repro.perf.service.ExecutionService` — warm stepper caches
and the persistent, pre-forked
:class:`~repro.campaign.pool.WorkerPool` — and serves it to any
number of thin clients over a local Unix-domain socket.  The socket
is the wire's one :class:`~repro.serve.protocol.LineServer` with one
:meth:`~Master._dispatch`: ``runner_*`` methods go to the runner hub
(runners may register here, alongside clients), everything else to an
``_rpc_*`` method.  With ``runners`` set, a second instance of the
same server opens the TCP runner port, which answers ``runner_*``
only (:func:`~repro.campaign.remote.serve_runners`).  Submitted campaigns
flow through a persistent priority queue
(:class:`~repro.serve.scheduler.Scheduler`): one run executes at a
time over the shared shards, results stream to subscribed clients as
each point lands, and everything a client could ask about — queue
contents, live status, run outcomes — is answered from the scheduler
and the run's :class:`~repro.obs.live.LiveStatus`.

Failure semantics (each backed by a test in ``tests/test_serve.py``):

* **Client death** never touches a run: a subscriber whose socket
  breaks is dropped from the broadcast list; the campaign keeps
  executing and its rows keep landing in the store.
* **Worker death** meets the campaign engine's one loss policy: the
  dead shard's lease requeues to the survivors and the shard is
  re-forked in place; only a unit that kills a second owner fails its
  points as ``WorkerDied``, and the run finishes with those failures
  on record.
* **Master death** loses nothing durable: run records and result rows
  are on disk before clients hear about them, so a restarted master
  requeues interrupted runs and resumes them from their own stores —
  same run id, already-completed points never re-run.
* **Malformed input** gets a structured error response, the same on
  both ports; the connection (and the master) survive anything that
  arrives on either socket.

Cancel, pause, and graceful shutdown all ride the executor's
``abort`` hook: the campaign stops at the next point boundary, the
partial store stays, and ``requeue`` (or restart recovery) finishes
the remainder bit-identically — per-point results are pure functions
of point identity, so it cannot matter how many masters a run passed
through.
"""

import functools
import json
import os
import socket
import threading
import time

from repro.campaign.executor import CampaignAborted
from repro.campaign.spec import CampaignSpec
from repro.common.errors import ConfigError
from repro.common.files import atomic_write
from repro.obs.events import event_log
from repro.obs.live import LiveStatus, status_path_for
from repro.serve import protocol, scheduler as sched
from repro.serve.protocol import ProtocolError

__all__ = ["Master", "contact_path", "read_contact"]

#: Name of the contact file a live master writes into its state dir.
CONTACT_NAME = "serve.json"
#: Name of the master's socket inside the state dir (default).
SOCKET_NAME = "serve.sock"


def contact_path(state_dir):
    return os.path.join(state_dir, CONTACT_NAME)


def read_contact(state_dir):
    """The contact file's payload, or ``None`` if absent/unreadable."""
    try:
        with open(contact_path(state_dir), "r",
                  encoding="utf-8") as handle:
            contact = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(contact, dict) or "socket" not in contact:
        return None
    return contact


class Master:
    """The long-lived campaign master (see module docstring).

    ``service`` defaults to the process singleton; tests inject a
    fresh :class:`~repro.perf.service.ExecutionService` so a master
    torn down mid-test cannot poison unrelated tests' pools.
    """

    def __init__(self, state_dir=None, socket_path=None, jobs=None,
                 service=None, runners=None, lease_timeout_s=60.0):
        self.state_dir = state_dir or sched.default_state_dir()
        self.socket_path = socket_path or os.path.join(self.state_dir,
                                                       SOCKET_NAME)
        self.jobs = jobs
        if service is None:
            from repro.perf.service import get_service
            service = get_service()
        self.service = service
        # Remote runner support: the hub always exists (runners may
        # register over this Unix socket too); the TCP runner port only
        # opens when `runners` names a "[HOST:]PORT".
        from repro.campaign.remote import RunnerHub, handle_runner_method
        self.hub = RunnerHub(lease_timeout_s=lease_timeout_s)
        self._runner_method = functools.partial(handle_runner_method,
                                                self.hub)
        self.runners_address = runners
        self.server = None         # the Unix socket
        self.runner_server = None  # the runner-only TCP port
        self.scheduler = None
        self._shutdown = threading.Event()
        self._threads = []
        # Guards the subscriber table *and* orders submit-vs-broadcast:
        # a submit registers its subscription under this lock before
        # the executor can announce the run, so streams never miss the
        # first events.
        self._sub_lock = threading.Lock()
        self._subs = {}   # rid -> [Connection]
        self._live = {}   # rid -> LiveStatus of the executing run
        self._started = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind the socket, recover interrupted runs, start serving."""
        if not hasattr(socket, "AF_UNIX"):
            raise RuntimeError("repro serve needs Unix-domain sockets")
        os.makedirs(self.state_dir, exist_ok=True)
        registry = sched.RunRegistry(self.state_dir)
        counter = sched.RidCounter(os.path.join(self.state_dir,
                                                "rid_counter"))
        self.scheduler = sched.Scheduler(registry, counter)
        recovered = self.scheduler.recover()
        self._started = time.time()
        # The runner port opens first: once the Unix socket answers,
        # hello must report it (clients start runners against it).
        if self.runners_address is not None:
            from repro.campaign.remote import serve_runners
            self.runner_server = serve_runners(self.hub,
                                               self.runners_address)
        try:
            self.server = protocol.LineServer(
                ("unix", self.socket_path, None), self._dispatch,
                on_close=self._drop_client, name="serve")
        except BaseException:
            if self.runner_server is not None:
                self.runner_server.stop()
                self.runner_server = None
            raise
        contact = {
            "schema": protocol.PROTOCOL_SCHEMA, "pid": os.getpid(),
            "socket": self.socket_path, "state_dir": self.state_dir,
            "started_unix": self._started,
        }
        if self.runner_server is not None:
            contact["runners"] = self.runner_server.address
        atomic_write(contact_path(self.state_dir),
                     json.dumps(contact, sort_keys=True) + "\n")
        event_log().emit("serve_start", socket=self.socket_path,
                         state_dir=self.state_dir,
                         recovered=[r.rid for r in recovered])
        thread = threading.Thread(target=self._executor_loop,
                                  name="serve-executor", daemon=True)
        thread.start()
        self._threads.append(thread)
        return recovered

    def request_shutdown(self):
        """Ask the master to stop (signal-handler safe: sets a flag)."""
        self._shutdown.set()

    def serve_forever(self):
        """Block until shutdown is requested, then tear down."""
        while not self._shutdown.wait(timeout=0.5):
            pass
        self._teardown()

    def stop(self):
        """Request shutdown and tear down at once (tests)."""
        self._shutdown.set()
        self._teardown()

    def _teardown(self):
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        self.hub.close()  # runners hear `bye` before the ports close
        for server in (self.server, self.runner_server):
            if server is not None:
                server.stop()
        self.server = self.runner_server = None
        self.service.shutdown()
        try:
            os.unlink(contact_path(self.state_dir))
        except OSError:
            pass
        event_log().emit("serve_stop", socket=self.socket_path)

    # -- speaking to clients -----------------------------------------------

    def _dispatch(self, conn, method, params):
        """Route one validated request: runner methods to the hub (same
        hub whichever port the runner arrived on), run transitions to
        the scheduler, the rest to ``_rpc_<method>``."""
        if method in protocol.RUNNER_METHODS:
            return self._runner_method(conn, method, params)
        if method in ("cancel", "pause", "requeue"):
            return self._transition(method, params["rid"])
        return getattr(self, f"_rpc_{method}")(conn, params)

    def _drop_client(self, conn):
        # A client connection may also carry runner registrations; its
        # death releases their leases for requeue.
        self.hub.lost_channel(conn)
        with self._sub_lock:
            for subscribers in self._subs.values():
                if conn in subscribers:
                    subscribers.remove(conn)
        event_log().emit("serve_client_disconnect", peer=conn.peer)

    # -- broadcast ---------------------------------------------------------

    def _broadcast(self, rid, message, final=False):
        with self._sub_lock:
            subscribers = list(self._subs.get(rid, ()))
            if final:
                self._subs.pop(rid, None)
        for client in subscribers:
            if not client.send(message):
                # A dead subscriber is the *client's* problem: drop it
                # and keep the campaign streaming to everyone else.
                with self._sub_lock:
                    stale = self._subs.get(rid)
                    if stale and client in stale:
                        stale.remove(client)

    # -- RPC methods -------------------------------------------------------

    def _rpc_hello(self, client, params):
        return {
            "schema": protocol.PROTOCOL_SCHEMA,
            "pid": os.getpid(),
            "socket": self.socket_path,
            "state_dir": self.state_dir,
            "jobs": self.jobs,
            "started_unix": self._started,
            "runs": self.scheduler.counts(),
            "pool": self.service.pool_info(),
            "runners": self.hub.runners_info(),
            "runner_port": (self.runner_server.address
                            if self.runner_server is not None else None),
        }

    def _rpc_submit(self, client, params):
        if self._shutdown.is_set():
            raise ProtocolError(protocol.E_SHUTTING_DOWN,
                                "master is shutting down")
        # Validate the spec fully *before* allocating a rid: a
        # rejected submit must leave no trace.
        try:
            spec = CampaignSpec.from_dict(params["spec"])
            spec.validate()
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                protocol.E_BAD_PARAMS,
                f"bad campaign spec: {exc}") from exc
        options = {key: params[key]
                   for key in ("jobs", "point_timeout_s", "chunk_size")
                   if params.get(key) is not None}
        with self._sub_lock:
            record = self.scheduler.submit(
                name=spec.name, spec=spec.to_dict(),
                priority=params.get("priority", 0), options=options,
                store=params.get("out"),
                points_total=len(spec.points))
            if params.get("stream"):
                self._subs.setdefault(record.rid, []).append(client)
        event_log().emit("serve_submit", rid=record.rid, name=spec.name,
                         priority=record.priority,
                         points=record.points_total)
        return {"rid": record.rid, "state": record.state,
                "store": record.store, "points": record.points_total,
                "priority": record.priority}

    def _rpc_queue(self, client, params):
        return {"runs": self.scheduler.queue_snapshot()}

    def _rpc_status(self, client, params):
        rid = params.get("rid")
        if rid is None:
            with self._sub_lock:
                executing = sorted(self._live)
            if not executing:
                raise ProtocolError(protocol.E_NOT_FOUND,
                                    "no run is executing; pass a rid")
            rid = executing[0]
        record = self._get_record(rid)
        with self._sub_lock:
            live = self._live.get(rid)
        return {"run": record.to_dict(),
                "status": live.snapshot() if live is not None else None}

    def _get_record(self, rid):
        try:
            return self.scheduler.get(rid)
        except sched.UnknownRun:
            raise ProtocolError(protocol.E_NOT_FOUND,
                                f"no run {rid}") from None

    def _transition(self, action, rid):
        self._get_record(rid)
        try:
            record = getattr(self.scheduler, action)(rid)
        except sched.BadTransition as exc:
            raise ProtocolError(protocol.E_BAD_STATE, str(exc)) from None
        event_log().emit(f"serve_{action}", rid=rid, state=record.state,
                         interrupt=record.interrupt)
        return {"rid": rid, "state": record.state,
                "interrupt": record.interrupt}

    def _rpc_subscribe(self, client, params):
        record = self._get_record(params["rid"])
        if record.state not in sched.TERMINAL:
            with self._sub_lock:
                subscribers = self._subs.setdefault(record.rid, [])
                if client not in subscribers:
                    subscribers.append(client)
        return {"rid": record.rid, "state": record.state,
                "store": record.store}

    def _rpc_shutdown(self, client, params):
        self._shutdown.set()
        return {"stopping": True, "pid": os.getpid()}

    # -- the executor ------------------------------------------------------

    def _executor_loop(self):
        while not self._shutdown.is_set():
            record = self.scheduler.next_run(timeout=0.25)
            if record is None:
                continue
            if self._shutdown.is_set():
                # Popped during shutdown: put it straight back.
                self.scheduler.finish(record.rid, sched.QUEUED)
                break
            self._execute(record)

    def _execute(self, record):
        from repro.campaign.results import ResultStore

        rid = record.rid
        spec = CampaignSpec.from_dict(record.spec)
        jobs = record.options.get("jobs", self.jobs)
        live = LiveStatus(spec.name, total=len(spec.points),
                          path=status_path_for(record.store),
                          jobs=jobs or 1, extra={"rid": rid})
        with self._sub_lock:
            self._live[rid] = live
        self._broadcast(rid, protocol.stream_event(
            rid, "state", state=sched.RUNNING, name=spec.name,
            points=record.points_total, store=record.store))
        fresh = [0]

        def on_point(result):
            fresh[0] += 1
            record.completed += 1
            if not result.ok:
                record.failed += 1
            self._broadcast(rid, protocol.stream_event(
                rid, "point", row=result.to_row()))

        def abort():
            return (record.interrupt is not None
                    or self._shutdown.is_set())

        # With runners registered, the run distributes: remote leases
        # plus (when jobs > 1) the warm local pool stealing from the
        # same scheduler.  Otherwise the local path.
        hub = self.hub if self.hub.active_count() > 0 else None
        event_log().emit("serve_run_start", rid=rid, name=spec.name,
                         jobs=jobs,
                         runners=self.hub.active_count())
        try:
            with ResultStore(path=record.store) as store:
                result = self.service.run_campaign(
                    spec, jobs=jobs, store=store,
                    resume_from=record.store, live=live,
                    progress=on_point, abort=abort,
                    point_timeout_s=record.options.get(
                        "point_timeout_s"),
                    chunk_size=record.options.get("chunk_size"),
                    batch=record.options.get("batch"),
                    hub=hub)
        except CampaignAborted:
            if self._shutdown.is_set():
                state = sched.QUEUED   # next master resumes it
            elif record.interrupt == "pause":
                state = sched.PAUSED
            else:
                state = sched.CANCELLED
            record = self.scheduler.finish(
                rid, state, completed=record.completed,
                failed=record.failed)
        except Exception as exc:  # noqa: BLE001 — a broken run must
            # not take the executor thread (and every queued run) down.
            record = self.scheduler.finish(
                rid, sched.FAILED, completed=record.completed,
                failed=record.failed,
                error=f"{type(exc).__name__}: {exc}")
        else:
            failed = len(result.failed)
            record = self.scheduler.finish(
                rid, sched.DONE, completed=len(result.results),
                failed=failed,
                resumed=len(result.results) - fresh[0])
        finally:
            with self._sub_lock:
                self._live.pop(rid, None)
        event_log().emit("serve_run_end", rid=rid, state=record.state,
                         completed=record.completed,
                         failed=record.failed, error=record.error)
        self._broadcast(rid, protocol.stream_event(
            rid, "state", state=record.state,
            completed=record.completed, failed=record.failed,
            resumed=record.resumed, error=record.error,
            store=record.store), final=record.state in sched.TERMINAL)
