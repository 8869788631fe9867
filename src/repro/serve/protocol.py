"""The campaign wire: line-delimited JSON RPC, one server, one client.

One message per line, each line one JSON object, over a stream socket.
Every socket in the codebase speaks it through the same two classes:
:class:`LineServer` carries both the ``repro serve`` Unix socket and
the TCP runner port (which answers ``runner_*`` methods only), and
:class:`LineClient` carries both ``repro runner`` and
:class:`~repro.serve.client.ServeClient`.  So framing, error replies
and connection lifetime are one code path, and both ports answer
malformed input identically.  Three message shapes travel the wire:

* **Request** (client → master)::

      {"id": 3, "method": "submit", "params": {"spec": {...},
       "priority": 5, "stream": true}}

* **Response** (master → client, matched by ``id``)::

      {"id": 3, "ok": true, "result": {"rid": 12, ...}}
      {"id": 3, "ok": false, "error": {"code": "bad_params",
       "message": "..."}}

* **Stream event** (master → subscribed client, tagged by run id)::

      {"stream": 12, "event": "point", "row": {...}}
      {"stream": 12, "event": "state", "state": "done", ...}

The framing rules are deliberately strict, because a long-lived master
must shrug off anything a confused (or hostile) client throws at it:

* a line is at most :data:`MAX_LINE_BYTES`; longer input is discarded
  up to the next newline and answered with an ``oversized`` error —
  the connection survives, the master's memory is bounded;
* every malformed frame — truncated JSON, a non-object, a missing or
  mistyped field, an unknown method, an unknown parameter — maps to a
  structured error response (see the ``E_*`` codes), never to a
  master-side exception;
* requests are validated *before* they acquire any server state, so a
  rejected ``submit`` can never leak a run id.

Parsing is split into small pure functions (:func:`decode`,
:func:`parse_request`, :class:`LineReader`) precisely so the test
battery can fuzz them without a socket in sight.
"""

import collections
import json
import os
import socket
import threading

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_SCHEMA",
    "RUNNER_METHODS",
    "Connection",
    "LineClient",
    "LineReader",
    "LineServer",
    "Oversized",
    "ProtocolError",
    "ServeError",
    "decode",
    "encode",
    "error_response",
    "parse_request",
    "request",
    "response",
    "stream_event",
]

PROTOCOL_SCHEMA = 1

#: Hard per-line ceiling (requests *and* responses).  Generous enough
#: for a many-thousand-point campaign spec, small enough that a
#: newline-free firehose cannot balloon the master.
MAX_LINE_BYTES = 1 << 20

# -- error codes -----------------------------------------------------------

E_PARSE = "parse_error"          #: line is not valid JSON
E_OVERSIZED = "oversized"        #: line exceeded MAX_LINE_BYTES
E_BAD_REQUEST = "bad_request"    #: frame shape wrong (not an object, ...)
E_BAD_PARAMS = "bad_params"      #: params missing/mistyped/unknown
E_UNKNOWN_METHOD = "unknown_method"
E_NOT_FOUND = "not_found"        #: no such run id
E_BAD_STATE = "bad_state"        #: run exists but transition is illegal
E_SHUTTING_DOWN = "shutting_down"
E_SERVER = "server_error"        #: master-side bug, reported not fatal


class ProtocolError(Exception):
    """A violation of the wire protocol, carrying its error code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# -- parameter validation --------------------------------------------------

def _typename(value):
    return type(value).__name__


def _check_int(value):
    # bool is an int subclass; a priority of `true` is a client bug we
    # want surfaced, not silently coerced.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_number(value):
    return ((isinstance(value, (int, float))
             and not isinstance(value, bool)))


def _check_str(value):
    return isinstance(value, str)


def _check_bool(value):
    return isinstance(value, bool)


def _check_dict(value):
    return isinstance(value, dict)


_CHECKS = {
    "int": _check_int,
    "number": _check_number,
    "str": _check_str,
    "bool": _check_bool,
    "dict": _check_dict,
}

#: method -> {param: (required, type tag, nullable)}
METHOD_PARAMS = {
    "hello": {},
    "submit": {
        "spec": (True, "dict", False),
        "priority": (False, "int", False),
        "jobs": (False, "int", True),
        "point_timeout_s": (False, "number", True),
        "chunk_size": (False, "int", True),
        "stream": (False, "bool", False),
        "out": (False, "str", True),
    },
    "queue": {},
    "status": {"rid": (False, "int", False)},
    "cancel": {"rid": (True, "int", False)},
    "pause": {"rid": (True, "int", False)},
    "requeue": {"rid": (True, "int", False)},
    "subscribe": {"rid": (True, "int", False)},
    "shutdown": {},
    # Runner-facing methods (repro runner <-> master).  Rows travel as
    # plain dicts — batch kernel stats ride the same method as result
    # rows, tagged by their "__batch__" key, exactly like the local
    # pool's result queue.
    "runner_register": {
        "name": (False, "str", True),
        "pid": (False, "int", True),
        "slots": (False, "int", True),
    },
    # ``wait_s``: hold an empty lease up to this long (long polling);
    # omitted, the master answers at once.
    "runner_lease": {
        "runner": (True, "int", False),
        "wait_s": (False, "number", True),
    },
    "runner_row": {
        "runner": (True, "int", False),
        "chunk": (True, "int", False),
        "epoch": (True, "int", False),
        "row": (True, "dict", False),
    },
    "runner_heartbeat": {"runner": (True, "int", False)},
}

#: The methods the TCP runner port answers (everything else there is a
#: ``bad_request``).
RUNNER_METHODS = frozenset(m for m in METHOD_PARAMS
                           if m.startswith("runner_"))


def parse_request(obj):
    """Validate a decoded frame as a request; ``(id, method, params)``.

    Raises :class:`ProtocolError` on any violation.  Validation is
    strict — unknown parameters are rejected, ``bool`` does not pass
    for ``int`` — so protocol drift between client and master surfaces
    as a clean error instead of a silent misbehaviour.
    """
    request_id = obj.get("id")
    if not isinstance(request_id, (int, str, type(None))) \
            or isinstance(request_id, bool):
        raise ProtocolError(
            E_BAD_REQUEST, f"id must be an int, string or null, "
                           f"not {_typename(request_id)}")
    method = obj.get("method")
    if not isinstance(method, str):
        raise ProtocolError(
            E_BAD_REQUEST, "request needs a string 'method' field")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"params must be an object, "
                           f"not {_typename(params)}")
    schema = METHOD_PARAMS.get(method)
    if schema is None:
        raise ProtocolError(
            E_UNKNOWN_METHOD,
            f"unknown method {method!r} (know: "
            f"{', '.join(sorted(METHOD_PARAMS))})")
    for name in params:
        if name not in schema:
            raise ProtocolError(
                E_BAD_PARAMS, f"{method}: unknown parameter {name!r}")
    for name, (required, tag, nullable) in schema.items():
        if name not in params:
            if required:
                raise ProtocolError(
                    E_BAD_PARAMS, f"{method}: missing required "
                                  f"parameter {name!r}")
            continue
        value = params[name]
        if value is None and nullable:
            continue
        if not _CHECKS[tag](value):
            raise ProtocolError(
                E_BAD_PARAMS,
                f"{method}: parameter {name!r} must be {tag}"
                f"{' or null' if nullable else ''}, "
                f"got {_typename(value)}")
    return request_id, method, params


# -- message builders ------------------------------------------------------

def request(method, params=None, request_id=0):
    return {"id": request_id, "method": method, "params": params or {}}


def response(request_id, result):
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code, message):
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def stream_event(rid, event, **fields):
    record = {"stream": rid, "event": event}
    record.update(fields)
    return record


# -- framing ---------------------------------------------------------------

def encode(message):
    """One message as a complete wire line (bytes, newline included)."""
    line = json.dumps(message, sort_keys=True,
                      separators=(",", ":"), default=str)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            E_OVERSIZED, f"encoded message is {len(data)} bytes "
                         f"(limit {MAX_LINE_BYTES})")
    return data


def decode(line):
    """One wire line back into a message dict (raises on violations)."""
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            E_OVERSIZED, f"line is {len(line)} bytes "
                         f"(limit {MAX_LINE_BYTES})")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(E_PARSE, f"not a JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"frame must be a JSON object, "
                           f"not {_typename(obj)}")
    return obj


class Oversized:
    """Yielded by :class:`LineReader` in place of a too-long line."""

    __slots__ = ("size",)

    def __init__(self, size):
        self.size = size

    def __repr__(self):
        return f"Oversized({self.size})"


class LineReader:
    """Incremental newline framer over arbitrary byte chunks.

    Feed whatever ``recv`` returned; get back complete lines (without
    the newline) plus :class:`Oversized` markers for lines that blew
    the budget.  An oversized line is emitted as **one** marker the
    moment the budget breaks, and everything up to its terminating
    newline is discarded without buffering — a newline-free flood
    costs O(chunk), not O(stream).
    """

    def __init__(self, max_line=MAX_LINE_BYTES):
        self.max_line = max_line
        self._buffer = bytearray()
        self._discarding = False

    def feed(self, data):
        """Absorb ``data``; return the newly-complete items."""
        items = []
        self._buffer += data
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    # Still inside the poisoned line: drop what we have.
                    self._buffer.clear()
                elif len(self._buffer) > self.max_line:
                    items.append(Oversized(len(self._buffer)))
                    self._discarding = True
                    self._buffer.clear()
                break
            line = bytes(self._buffer[:newline])
            del self._buffer[:newline + 1]
            if self._discarding:
                # The tail of a line already reported as oversized.
                self._discarding = False
                continue
            if len(line) > self.max_line:
                items.append(Oversized(len(line)))
                continue
            if line.strip():
                items.append(line)
        return items


# -- the one server --------------------------------------------------------

def _claim_unix(path):
    """Bind a Unix socket at ``path``, evicting only a *dead* owner."""
    if os.path.exists(path):
        try:
            LineClient(("unix", path, None), connect_timeout=1.0).close()
        except OSError:
            os.unlink(path)  # stale: owner is gone
        else:
            raise RuntimeError(
                f"another master is already serving on {path}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    return sock


class Connection:
    """One accepted connection.  Replies come from its reader thread
    and broadcasts from others, so sends are serialized."""

    def __init__(self, sock, peer):
        self.sock = sock
        self.peer = peer
        self._send_lock = threading.Lock()

    def send(self, message):
        """Send a message (or an already-encoded line); ``False`` when
        the peer is gone or the message cannot be framed."""
        try:
            data = message if isinstance(message, bytes) else \
                encode(message)
            with self._send_lock:
                self.sock.sendall(data)
        except (OSError, ProtocolError):
            return False
        return True


class LineServer:
    """Serve the line protocol on ``address`` until :meth:`stop`.

    ``address`` is a ``(kind, host_or_path, port)`` triple as
    :func:`repro.campaign.remote.parse_address` returns it: a Unix
    path (claimed like :func:`_claim_unix`) or a TCP ``host:port``.
    Binding happens here, so :attr:`address` is final on return, and
    the accept loop starts at once.  Each connection gets one thread
    that answers every frame with exactly one response, in order:
    ``dispatch(conn, method, params)`` for a valid request whose
    method is in ``methods`` (all methods when ``None``), a structured
    error for anything else.  ``on_close(conn)`` runs when a
    connection ends, whichever side ended it.
    """

    def __init__(self, address, dispatch, methods=None, on_close=None,
                 name="wire"):
        kind, host, port = address
        if kind == "unix":
            self._sock = _claim_unix(host)
            self.address = host
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                                  1)
            self._sock.bind((host, port))
            self.address = "%s:%d" % self._sock.getsockname()[:2]
        self.kind = kind
        self.name = name
        self.methods = methods
        self._dispatch = dispatch
        self._on_close = on_close
        self._conns = {}   # Connection -> its thread
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._sock.listen(16)
        self._sock.settimeout(0.2)  # poll the stop flag
        self._acceptor = threading.Thread(
            target=self._accept, name=f"{name}-accept", daemon=True)
        self._acceptor.start()

    def _accept(self):
        while not self._stopping.is_set():
            try:
                sock, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            peer = (f"{peer[0]}:{peer[1]}" if self.kind == "tcp"
                    else f"fd{sock.fileno()}")
            conn = Connection(sock, peer)
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      name=f"{self.name}-{peer}",
                                      daemon=True)
            with self._lock:
                self._conns[conn] = thread
            thread.start()

    def _serve(self, conn):
        reader = LineReader()
        try:
            # Serve until either side closes: a graceful shutdown still
            # answers in-flight requests (with ``shutting_down``), and
            # :meth:`stop` wakes this loop by shutting the socket down.
            while True:
                try:
                    data = conn.sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                for item in reader.feed(data):
                    conn.send(self._answer(conn, item))
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            if self._on_close is not None:
                self._on_close(conn)
            conn.sock.close()

    def _answer(self, conn, item):
        """One frame in, its one encoded response out — whatever
        happens.  The id is recovered before validation, so every
        error a request can earn echoes it."""
        request_id = None
        try:
            if isinstance(item, Oversized):
                raise ProtocolError(
                    E_OVERSIZED, f"line exceeded {MAX_LINE_BYTES} bytes "
                                 f"({item.size} seen); frame dropped")
            frame = decode(item)
            raw_id = frame.get("id")
            if isinstance(raw_id, (int, str)) \
                    and not isinstance(raw_id, bool):
                request_id = raw_id
            request_id, method, params = parse_request(frame)
            if self.methods is not None and method not in self.methods:
                raise ProtocolError(
                    E_BAD_REQUEST, f"this port only answers "
                                   f"{', '.join(sorted(self.methods))}, "
                                   f"not {method!r}")
            return encode(response(request_id,
                                   self._dispatch(conn, method, params)))
        except ProtocolError as exc:
            return encode(error_response(request_id, exc.code,
                                         exc.message))
        except Exception as exc:  # noqa: BLE001 — a server-side bug
            # must become this request's error, never a dead server.
            return encode(error_response(
                request_id, E_SERVER, f"{type(exc).__name__}: {exc}"))

    def stop(self, timeout=5.0):
        """Stop accepting, shut every connection down, join them all."""
        self._stopping.set()
        self._acceptor.join(timeout)
        self._sock.close()
        if self.kind == "unix":
            try:
                os.unlink(self.address)
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns.items())
        for conn, _ in conns:
            try:
                # shutdown() (unlike close()) wakes a thread in recv()
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _, thread in conns:
            thread.join(timeout)


# -- the one client --------------------------------------------------------

class ServeError(Exception):
    """An error response from the server (or a broken conversation)."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _result(reply):
    if reply.get("ok"):
        return reply.get("result")
    error = reply.get("error") or {}
    raise ServeError(error.get("code", "unknown"),
                     error.get("message", "(no message)"))


class LineClient:
    """One connection to a :class:`LineServer`.

    :meth:`call` is one round trip.  :meth:`cast` fires a request
    without waiting and :meth:`flush` drains every pending reply: the
    server answers a connection's frames in order, so rows can stream
    with one drain per chunk.  Stream events that arrive while a reply
    is awaited are buffered for :meth:`next_event`.  Sends are
    serialized, so a helper thread may :meth:`cast` while the owner
    reads; reads stay on one thread.  Errors raise
    :class:`ServeError`; a dead socket raises :class:`OSError`.
    """

    def __init__(self, address, timeout=None, connect_timeout=10.0):
        kind, host, port = address
        if kind == "tcp":
            sock = socket.create_connection((host, port),
                                            timeout=connect_timeout)
            self.address = f"{host}:{port}"
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(connect_timeout)
            try:
                sock.connect(host)
            except OSError:
                sock.close()
                raise
            self.address = host
        sock.settimeout(timeout)
        self._sock = sock
        self._reader = LineReader()
        self._lines = collections.deque()
        self._events = collections.deque()
        self._pending = 0
        self._next_id = 0
        self._send_lock = threading.Lock()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def cast(self, method, params=None):
        """Send a request without waiting for its reply."""
        with self._send_lock:
            self._next_id += 1
            self._sock.sendall(encode(request(method, params,
                                              request_id=self._next_id)))
            self._pending += 1
            return self._next_id

    def flush(self):
        """Drain every pending reply; raise on the first error."""
        while self._pending:
            _result(self._reply())

    def call(self, method, params=None):
        """One round trip (pending casts drain first); the result."""
        self.flush()
        self.cast(method, params)
        return _result(self._reply())

    def next_event(self):
        """The next stream event (buffered ones first)."""
        while not self._events:
            message = self._message()
            if "stream" in message:
                return message
            self._replied()  # a reply nobody awaits; drop it
        return self._events.popleft()

    def _replied(self):
        with self._send_lock:
            self._pending = max(0, self._pending - 1)

    def _reply(self):
        while True:
            message = self._message()
            if "stream" not in message:
                self._replied()
                return message
            self._events.append(message)

    def _message(self):
        while not self._lines:
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                raise ServeError(
                    "timeout", f"no reply from {self.address} within "
                               f"the socket timeout") from None
            if not data:
                raise ServeError("disconnected",
                                 f"{self.address} closed the connection")
            self._lines.extend(self._reader.feed(data))
        line = self._lines.popleft()
        if isinstance(line, Oversized):
            raise ServeError(E_OVERSIZED, f"{self.address} sent an "
                                          f"oversized line ({line.size} "
                                          f"bytes)")
        return decode(line)
