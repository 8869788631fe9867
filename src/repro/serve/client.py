"""Thin client for the ``repro serve`` master.

:class:`ServeClient` is the wire's one
:class:`~repro.serve.protocol.LineClient` on the master's Unix
socket, plus named methods and a generator over the stream events the
master pushes for subscribed runs.  Stream events that arrive while a
response is awaited are buffered, so request/response and streaming
can share the socket without a demultiplexer.

Socket discovery (:func:`find_socket`): an explicit path wins, then
``$REPRO_SERVE_SOCKET``, then the contact file a live master writes
into the state directory, then the state directory's default socket
name.  :func:`server_available` answers whether anything is actually
listening there — ``repro watch`` uses it to decide between the live
socket and ``status.json`` polling.
"""

import os
import socket

from repro.serve.master import SOCKET_NAME, read_contact
from repro.serve.protocol import LineClient, ServeError
from repro.serve.scheduler import default_state_dir

__all__ = ["ServeClient", "ServeError", "find_socket",
           "server_available"]

#: Environment variable naming the master socket for thin clients.
SOCKET_ENV = "REPRO_SERVE_SOCKET"


def find_socket(explicit=None, state_dir=None):
    """Resolve the master socket path (without touching the network)."""
    if explicit:
        return explicit
    env = os.environ.get(SOCKET_ENV)
    if env:
        return env
    state_dir = state_dir or default_state_dir()
    contact = read_contact(state_dir)
    if contact is not None:
        return contact["socket"]
    return os.path.join(state_dir, SOCKET_NAME)


def server_available(socket_path, timeout=1.0):
    """Whether a master is actually accepting on ``socket_path``."""
    if not socket_path or not hasattr(socket, "AF_UNIX"):
        return False
    try:
        LineClient(("unix", socket_path, None),
                   connect_timeout=timeout).close()
    except OSError:
        return False
    return True


class ServeClient(LineClient):
    """One conversation with the master (use as a context manager)."""

    def __init__(self, socket_path, timeout=60.0):
        super().__init__(("unix", socket_path, None), timeout=timeout,
                         connect_timeout=timeout)
        self.socket_path = socket_path

    def request(self, method, **params):
        """One RPC round-trip; returns the result dict or raises
        :class:`ServeError`.  Stream events that arrive first are
        buffered for :meth:`events`."""
        return self.call(method, params)

    def events(self, rid=None):
        """Yield stream events (optionally only for ``rid``) until the
        run reports a state event; the state event is yielded last."""
        from repro.serve import scheduler as sched
        while True:
            message = self.next_event()
            if rid is not None and message.get("stream") != rid:
                continue
            yield message
            if (message.get("event") == "state"
                    and message.get("state") != sched.RUNNING):
                return

    # -- conveniences ------------------------------------------------------

    def hello(self):
        return self.request("hello")

    def submit(self, spec, priority=0, stream=False, jobs=None,
               point_timeout_s=None, chunk_size=None, out=None):
        """Submit a campaign spec (a dict, explicit points or grid
        shorthand); returns ``{rid, state, store, points, priority}``.
        ``None`` options travel as JSON nulls: the master's default."""
        return self.request("submit", spec=spec, priority=priority,
                            stream=stream, jobs=jobs,
                            point_timeout_s=point_timeout_s,
                            chunk_size=chunk_size, out=out)

    def queue(self):
        return self.request("queue")["runs"]

    def status(self, rid=None):
        if rid is None:
            return self.request("status")
        return self.request("status", rid=rid)

    def cancel(self, rid):
        return self.request("cancel", rid=rid)

    def pause(self, rid):
        return self.request("pause", rid=rid)

    def requeue(self, rid):
        return self.request("requeue", rid=rid)

    def subscribe(self, rid):
        return self.request("subscribe", rid=rid)

    def shutdown(self):
        return self.request("shutdown")
