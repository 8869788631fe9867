"""The ``repro serve`` master: one warm fleet, many clients.

A :class:`Master` owns the process-wide
:class:`~repro.perf.service.ExecutionService` — warm stepper caches
and the persistent, pre-forked
:class:`~repro.campaign.pool.WorkerPool` — and serves it to any
number of thin clients over a local Unix-domain socket speaking the
line-JSON RPC of :mod:`repro.serve.protocol`.  Submitted campaigns
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
* **Worker death** is the pool's existing partial-shard-death story:
  the survivors drain, the lost chunk's points fail as
  ``WorkerDied``, the run finishes with those failures on record, and
  the next run gets a rebuilt pool.
* **Master death** loses nothing durable: run records and result rows
  are on disk before clients hear about them, so a restarted master
  requeues interrupted runs and resumes them from their own stores —
  same run id, already-completed points never re-run.
* **Malformed input** gets a structured error response; the
  connection (and the master) survive anything that arrives on the
  socket.

Cancel, pause, and graceful shutdown all ride the executor's
``abort`` hook: the campaign stops at the next point boundary, the
partial store stays, and ``requeue`` (or restart recovery) finishes
the remainder bit-identically — per-point results are pure functions
of point identity, so it cannot matter how many masters a run passed
through.
"""

import json
import os
import socket
import threading
import time

from repro.campaign.executor import CampaignAborted
from repro.campaign.spec import CampaignSpec
from repro.common.errors import ConfigError
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


class _Client:
    """One connected client: its socket plus a write lock (responses
    and broadcast events come from different threads)."""

    def __init__(self, conn, peer):
        self.conn = conn
        self.peer = peer
        self.send_lock = threading.Lock()

    def send(self, message):
        data = protocol.encode(message)
        with self.send_lock:
            self.conn.sendall(data)


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
        # register over this Unix socket too); the TCP listener only
        # binds when `runners` names a "[HOST:]PORT".
        from repro.campaign.remote import RunnerHub
        self.hub = RunnerHub()
        self.runners_address = runners
        self.lease_timeout_s = lease_timeout_s
        self.listener = None
        self.scheduler = None
        self._sock = None
        self._shutdown = threading.Event()
        self._threads = []
        self._clients = []
        self._clients_lock = threading.Lock()
        # Guards the subscriber table *and* orders submit-vs-broadcast:
        # a submit registers its subscription under this lock before
        # the executor can announce the run, so streams never miss the
        # first events.
        self._sub_lock = threading.Lock()
        self._subs = {}   # rid -> [_Client]
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
        self._claim_socket()
        if self.runners_address is not None:
            from repro.campaign.remote import (RunnerListener,
                                               parse_address)
            _, host, port = parse_address(str(self.runners_address))
            self.listener = RunnerListener(self.hub, host=host,
                                           port=port or 0).start()
        self._started = time.time()
        contact = {
            "schema": protocol.PROTOCOL_SCHEMA, "pid": os.getpid(),
            "socket": self.socket_path, "state_dir": self.state_dir,
            "started_unix": self._started,
        }
        if self.listener is not None:
            contact["runners"] = self.listener.address
        sched._atomic_write_json(contact_path(self.state_dir), contact)
        event_log().emit("serve_start", socket=self.socket_path,
                         state_dir=self.state_dir,
                         recovered=[r.rid for r in recovered])
        for target, name in ((self._accept_loop, "serve-accept"),
                             (self._executor_loop, "serve-executor")):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return recovered

    def _claim_socket(self):
        """Bind the Unix socket, evicting only a *dead* predecessor."""
        if os.path.exists(self.socket_path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            try:
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)  # stale: owner is gone
            else:
                probe.close()
                raise RuntimeError(
                    f"another master is already serving on "
                    f"{self.socket_path}")
            finally:
                probe.close()
        directory = os.path.dirname(os.path.abspath(self.socket_path))
        os.makedirs(directory, exist_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.socket_path)
        self._sock.listen(16)
        self._sock.settimeout(0.2)  # poll the shutdown flag

    def request_shutdown(self):
        """Ask the master to stop (signal-handler safe: sets a flag)."""
        self._shutdown.set()

    def serve_forever(self):
        """Block until shutdown is requested, then tear down."""
        while not self._shutdown.wait(timeout=0.5):
            pass
        self._teardown()

    def stop(self, timeout=30.0):
        """Request shutdown and wait for the threads (tests)."""
        self._shutdown.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        self._teardown()

    def _teardown(self):
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            try:
                # shutdown() (unlike a bare close()) wakes a reader
                # thread blocked in recv() on this connection
                client.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.conn.close()
            except OSError:
                pass
        if self.listener is not None:
            self.listener.stop()
            self.listener = None
        self.service.shutdown()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        for path in (self.socket_path, contact_path(self.state_dir)):
            try:
                os.unlink(path)
            except OSError:
                pass
        event_log().emit("serve_stop", socket=self.socket_path)

    # -- accepting and speaking to clients ---------------------------------

    def _accept_loop(self):
        while not self._shutdown.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            client = _Client(conn, peer=f"fd{conn.fileno()}")
            with self._clients_lock:
                self._clients.append(client)
            event_log().emit("serve_client_connect", peer=client.peer)
            thread = threading.Thread(target=self._client_loop,
                                      args=(client,),
                                      name=f"serve-{client.peer}",
                                      daemon=True)
            thread.start()

    def _client_loop(self, client):
        reader = protocol.LineReader()
        try:
            # Serve until either side closes — NOT until the shutdown
            # flag flips: a graceful shutdown must answer in-flight
            # requests with a structured ``shutting_down`` error, not
            # a connection reset.  Teardown wakes this loop by
            # shutting the socket down.
            while True:
                try:
                    data = client.conn.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                for item in reader.feed(data):
                    if isinstance(item, protocol.Oversized):
                        self._safe_send(client, protocol.error_response(
                            None, protocol.E_OVERSIZED,
                            f"line exceeded "
                            f"{protocol.MAX_LINE_BYTES} bytes "
                            f"({item.size} seen); frame dropped"))
                        continue
                    self._handle_line(client, item)
        finally:
            self._drop_client(client)

    def _safe_send(self, client, message):
        try:
            client.send(message)
            return True
        except (OSError, ProtocolError):
            return False

    def _handle_line(self, client, line):
        """One frame in, exactly one response out — whatever happens."""
        request_id = None
        try:
            frame = protocol.decode(line)
            raw_id = frame.get("id")
            if isinstance(raw_id, (int, str)) \
                    and not isinstance(raw_id, bool):
                request_id = raw_id
            request_id, method, params = protocol.parse_request(frame)
            handler = getattr(self, f"_rpc_{method}")
            result = handler(client, params)
            self._safe_send(client,
                            protocol.response(request_id, result))
        except ProtocolError as exc:
            self._safe_send(client, protocol.error_response(
                request_id, exc.code, exc.message))
        except Exception as exc:  # noqa: BLE001 — a master-side bug
            # must become this request's error, never a dead master.
            self._safe_send(client, protocol.error_response(
                request_id, protocol.E_SERVER,
                f"{type(exc).__name__}: {exc}"))

    def _drop_client(self, client):
        # A client connection may also carry runner registrations
        # (runners can register over the Unix socket alongside
        # clients); its death releases their leases for requeue.
        self.hub.lost_channel(client)
        with self._clients_lock:
            if client in self._clients:
                self._clients.remove(client)
        with self._sub_lock:
            for subscribers in self._subs.values():
                if client in subscribers:
                    subscribers.remove(client)
        try:
            client.conn.close()
        except OSError:
            pass
        event_log().emit("serve_client_disconnect", peer=client.peer)

    # -- broadcast ---------------------------------------------------------

    def _broadcast(self, rid, message, final=False):
        with self._sub_lock:
            subscribers = list(self._subs.get(rid, ()))
            if final:
                self._subs.pop(rid, None)
        for client in subscribers:
            if not self._safe_send(client, message):
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
            "runner_port": (self.listener.address
                            if self.listener is not None else None),
        }

    # Runner-facing methods: same hub whether a runner arrived over
    # the TCP listener or this Unix socket.

    def _runner_rpc(self, client, method, params):
        from repro.campaign.remote import handle_runner_method
        return handle_runner_method(self.hub, client, method, params)

    def _rpc_runner_register(self, client, params):
        return self._runner_rpc(client, "runner_register", params)

    def _rpc_runner_lease(self, client, params):
        return self._runner_rpc(client, "runner_lease", params)

    def _rpc_runner_row(self, client, params):
        return self._runner_rpc(client, "runner_row", params)

    def _rpc_runner_heartbeat(self, client, params):
        return self._runner_rpc(client, "runner_heartbeat", params)

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
        try:
            record = getattr(self.scheduler, action)(rid)
        except sched.UnknownRun:
            raise ProtocolError(protocol.E_NOT_FOUND,
                                f"no run {rid}") from None
        except sched.BadTransition as exc:
            raise ProtocolError(protocol.E_BAD_STATE, str(exc)) from None
        event_log().emit(f"serve_{action}", rid=rid, state=record.state,
                         interrupt=record.interrupt)
        return {"rid": rid, "state": record.state,
                "interrupt": record.interrupt}

    def _rpc_cancel(self, client, params):
        return self._transition("cancel", params["rid"])

    def _rpc_pause(self, client, params):
        return self._transition("pause", params["rid"])

    def _rpc_requeue(self, client, params):
        return self._transition("requeue", params["rid"])

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
        # same scheduler.  Otherwise the classic local path.
        transport = None
        if self.hub.active_count() > 0:
            from repro.campaign.transport import TcpRunnerTransport
            from repro.campaign.executor import default_jobs
            local_jobs = default_jobs(jobs)
            transport = TcpRunnerTransport(
                self.hub,
                local_pool=((lambda: self.service.pool(local_jobs))
                            if local_jobs > 1 else None),
                lease_timeout_s=self.lease_timeout_s)
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
                    transport=transport)
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
