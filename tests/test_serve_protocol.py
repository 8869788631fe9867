"""Property and fuzz tests for the ``repro serve`` wire protocol.

Three layers, in increasing realism:

* pure round-trips — every method's request, plus responses, errors,
  and stream events survive ``encode``/``decode``/``parse_request``;
* adversarial parsing — truncated JSON, non-objects, mistyped and
  unknown fields, oversized lines, byte-at-a-time framing — each maps
  to the documented structured error, never an uncaught exception;
* a live master fed garbage on both of its ports, the serve socket and
  the TCP runner port: every frame gets exactly one structured error,
  the same on either port, the connection and the master survive, a
  rejected ``submit`` never leaks a run id, and the runner port
  refuses every non-``runner_*`` method.
"""

import json
import os
import socket
import tempfile
import time

import pytest

from repro.perf.service import ExecutionService
from repro.serve import protocol
from repro.serve.master import Master
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    LineReader,
    Oversized,
    ProtocolError,
    decode,
    encode,
    error_response,
    parse_request,
    request,
    response,
    stream_event,
)

# Representative valid params per method (used by the round-trip
# parameterization below).
VALID_REQUESTS = {
    "hello": {},
    "submit": {"spec": {"name": "s", "points": []}, "priority": 3,
               "jobs": 2, "point_timeout_s": 1.5, "chunk_size": 4,
               "stream": True, "out": "results.jsonl"},
    "queue": {},
    "status": {"rid": 7},
    "cancel": {"rid": 1},
    "pause": {"rid": 2},
    "requeue": {"rid": 3},
    "subscribe": {"rid": 4},
    "shutdown": {},
    "runner_register": {"name": "node3", "pid": 4242, "slots": 1},
    "runner_lease": {"runner": 1, "wait_s": 0.5},
    "runner_row": {"runner": 1, "chunk": 0, "epoch": 2,
                   "row": {"point_id": "p", "index": 0, "ok": True}},
    "runner_heartbeat": {"runner": 1},
}


@pytest.mark.quick
class TestRoundTrip:
    @pytest.mark.parametrize("method", sorted(protocol.METHOD_PARAMS))
    def test_every_method_round_trips(self, method):
        params = VALID_REQUESTS[method]
        wire = encode(request(method, params, request_id=42))
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        rid, got_method, got_params = parse_request(decode(wire[:-1]))
        assert rid == 42
        assert got_method == method
        assert got_params == params

    def test_methods_table_covers_all_valid_requests(self):
        assert set(VALID_REQUESTS) == set(protocol.METHOD_PARAMS)

    def test_response_round_trip(self):
        wire = encode(response(9, {"rid": 1, "state": "queued"}))
        obj = decode(wire[:-1])
        assert obj == {"id": 9, "ok": True,
                       "result": {"rid": 1, "state": "queued"}}

    def test_error_response_round_trip(self):
        wire = encode(error_response(None, protocol.E_BAD_PARAMS, "nope"))
        obj = decode(wire[:-1])
        assert obj["id"] is None and obj["ok"] is False
        assert obj["error"] == {"code": "bad_params", "message": "nope"}

    def test_stream_event_round_trip(self):
        wire = encode(stream_event(5, "point", row={"point_id": "x"}))
        obj = decode(wire[:-1])
        assert obj == {"stream": 5, "event": "point",
                       "row": {"point_id": "x"}}

    def test_string_and_null_ids_accepted(self):
        for request_id in ("abc", None):
            rid, _, _ = parse_request(
                decode(encode(request("hello", request_id=request_id))[:-1]))
            assert rid == request_id

    def test_encode_is_compact_single_line(self):
        wire = encode({"a": [1, 2], "b": "x\ny"})
        assert wire.count(b"\n") == 1  # embedded newline is escaped
        assert b": " not in wire and b", " not in wire

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError) as err:
            encode({"blob": "x" * MAX_LINE_BYTES})
        assert err.value.code == protocol.E_OVERSIZED


def _bad_code(raw):
    """Parse ``raw`` like the master would; return the error code."""
    try:
        parse_request(decode(raw))
    except ProtocolError as exc:
        return exc.code
    raise AssertionError(f"{raw!r} unexpectedly parsed")


@pytest.mark.quick
class TestAdversarialParsing:
    @pytest.mark.parametrize("raw", [
        b"{",                           # truncated object
        b'{"id": 1, "method": "hel',    # truncated mid-string
        b"not json at all",
        b'{"a": 1,}',                   # trailing comma
        b"\xff\xfe\x00",                # invalid UTF-8
        b"",
    ])
    def test_unparseable_lines(self, raw):
        assert _bad_code(raw) == protocol.E_PARSE

    @pytest.mark.parametrize("raw", [
        b"[1, 2, 3]",
        b'"just a string"',
        b"42",
        b"null",
        b"true",
    ])
    def test_non_object_frames(self, raw):
        assert _bad_code(raw) == protocol.E_BAD_REQUEST

    @pytest.mark.parametrize("frame", [
        {},                                  # no method at all
        {"id": 1},
        {"id": 1, "method": 7},              # method wrong type
        {"id": 1, "method": None},
        {"id": 1, "method": "hello", "params": [1]},   # params not dict
        {"id": 1, "method": "hello", "params": "x"},
        {"id": [1], "method": "hello"},      # id wrong type
        {"id": {"n": 1}, "method": "hello"},
        {"id": 1.5, "method": "hello"},
        {"id": True, "method": "hello"},     # bool is not an int here
    ])
    def test_bad_frame_shapes(self, frame):
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_unknown_method(self):
        with pytest.raises(ProtocolError) as err:
            parse_request({"id": 1, "method": "fire_the_missiles"})
        assert err.value.code == protocol.E_UNKNOWN_METHOD
        assert "submit" in err.value.message  # names the known ones

    @pytest.mark.parametrize("params", [
        {"rid": "1"},            # string where int expected
        {"rid": 1.0},            # float where int expected
        {"rid": True},           # bool sneaking in as int
        {"rid": None},           # not nullable
        {},                      # missing required
        {"rid": 1, "extra": 2},  # unknown parameter
    ])
    def test_cancel_param_violations(self, params):
        with pytest.raises(ProtocolError) as err:
            parse_request({"id": 1, "method": "cancel", "params": params})
        assert err.value.code == protocol.E_BAD_PARAMS

    @pytest.mark.parametrize("params", [
        {},                                       # spec is required
        {"spec": []},                             # spec wrong type
        {"spec": "name"},
        {"spec": {}, "priority": "high"},         # priority wrong type
        {"spec": {}, "priority": True},
        {"spec": {}, "jobs": 1.5},                # jobs must be int
        {"spec": {}, "stream": 1},                # stream must be bool
        {"spec": {}, "stream": None},             # and not nullable
        {"spec": {}, "out": 7},                   # out must be str
        {"spec": {}, "point_timeout_s": "3"},
    ])
    def test_submit_param_violations(self, params):
        with pytest.raises(ProtocolError) as err:
            parse_request({"id": 1, "method": "submit", "params": params})
        assert err.value.code == protocol.E_BAD_PARAMS

    @pytest.mark.parametrize("params", [
        {"runner": 1, "wait_s": "0.5"},   # wait_s must be a number
        {"runner": 1, "wait_s": True},
    ])
    def test_runner_lease_param_violations(self, params):
        with pytest.raises(ProtocolError) as err:
            parse_request({"id": 1, "method": "runner_lease",
                           "params": params})
        assert err.value.code == protocol.E_BAD_PARAMS

    def test_submit_nullable_params_accept_null(self):
        _, _, params = parse_request({
            "id": 1, "method": "submit",
            "params": {"spec": {}, "jobs": None, "point_timeout_s": None,
                       "chunk_size": None, "out": None}})
        assert params["jobs"] is None

    def test_status_rid_is_optional(self):
        _, _, params = parse_request({"id": 1, "method": "status"})
        assert params == {}

    def test_point_timeout_accepts_int_and_float(self):
        for value in (3, 3.5):
            parse_request({"id": 1, "method": "submit",
                           "params": {"spec": {},
                                      "point_timeout_s": value}})

    def test_oversized_decode_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode(b"x" * (MAX_LINE_BYTES + 1))
        assert err.value.code == protocol.E_OVERSIZED


@pytest.mark.quick
class TestLineReader:
    def test_single_line(self):
        reader = LineReader()
        assert reader.feed(b'{"a":1}\n') == [b'{"a":1}']

    def test_multiple_lines_one_feed(self):
        reader = LineReader()
        assert reader.feed(b"one\ntwo\nthree\n") == [b"one", b"two",
                                                    b"three"]

    def test_partial_line_held_back(self):
        reader = LineReader()
        assert reader.feed(b'{"a"') == []
        assert reader.feed(b":1}\n") == [b'{"a":1}']

    def test_byte_at_a_time(self):
        reader = LineReader()
        got = []
        for byte in b'{"id":1}\n{"id":2}\n':
            got.extend(reader.feed(bytes([byte])))
        assert got == [b'{"id":1}', b'{"id":2}']

    def test_blank_lines_skipped(self):
        reader = LineReader()
        assert reader.feed(b"\n \n\t\nreal\n") == [b"real"]

    def test_line_at_exact_budget_passes(self):
        reader = LineReader(max_line=8)
        assert reader.feed(b"12345678\n") == [b"12345678"]

    def test_line_over_budget_is_one_marker(self):
        reader = LineReader(max_line=8)
        items = reader.feed(b"123456789\n")
        assert len(items) == 1 and isinstance(items[0], Oversized)
        assert items[0].size == 9

    def test_newline_free_flood_reports_once_and_discards(self):
        reader = LineReader(max_line=8)
        items = reader.feed(b"x" * 20)
        assert len(items) == 1 and isinstance(items[0], Oversized)
        # keep flooding: already reported, nothing new, nothing kept
        assert reader.feed(b"y" * 50) == []
        assert len(reader._buffer) == 0  # memory stays bounded

    def test_recovery_after_oversized(self):
        reader = LineReader(max_line=8)
        assert isinstance(reader.feed(b"z" * 9)[0], Oversized)
        # the poisoned line ends; the next line parses normally
        assert reader.feed(b"zzz\ngood\n") == [b"good"]

    def test_oversized_then_good_in_one_chunk(self):
        reader = LineReader(max_line=8)
        items = reader.feed(b"123456789\nok\n")
        assert isinstance(items[0], Oversized)
        assert items[1:] == [b"ok"]

    def test_split_oversized_across_feeds(self):
        reader = LineReader(max_line=8)
        assert reader.feed(b"12345") == []
        items = reader.feed(b"6789a")   # budget breaks here
        assert len(items) == 1 and isinstance(items[0], Oversized)
        assert reader.feed(b"bc\nfine\n") == [b"fine"]


# -- live fuzz against a real master, over both of its ports --------------


@pytest.fixture(scope="module")
def fuzz_master():
    state_dir = tempfile.mkdtemp(prefix="fz", dir="/tmp")
    master = Master(state_dir=state_dir, service=ExecutionService(),
                    runners="127.0.0.1:0")
    master.start()
    yield master
    master.stop()


#: port -> the request a healthy connection on it answers ``ok``: the
#: serve socket speaks every method, the runner port ``runner_*`` only.
PROBES = {
    "serve": ("hello", {}),
    "runner": ("runner_register", {"name": "fuzz"}),
}


def probe(port, request_id):
    method, params = PROBES[port]
    return encode(request(method, params, request_id=request_id))


class RawConn:
    """A raw byte-level client (no protocol help beyond buffering)."""

    def __init__(self, master, timeout=10.0, port="serve"):
        if port == "serve":
            self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.conn.settimeout(timeout)
            self.conn.connect(master.socket_path)
        else:
            host, _, number = master.runner_server.address.rpartition(":")
            self.conn = socket.create_connection((host, int(number)),
                                                 timeout=timeout)
        self.buffer = b""

    def sendall(self, raw):
        self.conn.sendall(raw)

    def read_line(self):
        while b"\n" not in self.buffer:
            data = self.conn.recv(65536)
            assert data, "master closed the connection"
            self.buffer += data
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def raw_conn(master, timeout=10.0, port="serve"):
    return RawConn(master, timeout=timeout, port=port)


def transact(conn, raw):
    """Send raw bytes, read one response line back."""
    conn.sendall(raw)
    return conn.read_line()


def read_line(conn):
    return conn.read_line()


def master_alive(master, port="serve"):
    """The port still answers its probe on a new connection."""
    with raw_conn(master, port=port) as conn:
        reply = transact(conn, probe(port, 1))
    return reply["ok"]


#: Serve-socket frames that name a client method, rephrased in
#: ``runner_*`` methods for the runner port: the same malformation.
RUNNER_PORT_FRAMES = {
    b'{"id": 1, "method": "cancel", "params": {"rid": true}}\n':
        b'{"id": 1, "method": "runner_lease", "params": {"runner": true}}\n',
    b'{"id": 1, "method": "submit", "params": {}}\n':
        b'{"id": 1, "method": "runner_row", "params": {}}\n',
    b'{"id": true, "method": "hello"}\n':
        b'{"id": true, "method": "runner_lease"}\n',
}


class FramingBattery:
    """The framing half of the live fuzz battery, run once per port
    (one subclass each): one server answers both, so every
    malformation must earn the same reply on either."""

    port = None

    def conn(self, master, timeout=10.0):
        return raw_conn(master, timeout=timeout, port=self.port)

    @pytest.mark.parametrize("raw,code", [
        (b"garbage\n", "parse_error"),
        (b'{"truncated": \n', "parse_error"),
        (b"\xff\xfe garbage \xff\n", "parse_error"),
        (b"[1,2,3]\n", "bad_request"),
        (b'"string frame"\n', "bad_request"),
        (b'{"id": 1, "method": "nope"}\n', "unknown_method"),
        (b'{"id": 1, "method": "cancel", "params": {"rid": true}}\n',
         "bad_params"),
        (b'{"id": 1, "method": "submit", "params": {}}\n', "bad_params"),
        (b'{"id": true, "method": "hello"}\n', "bad_request"),
    ])
    def test_malformed_frame_gets_structured_error(self, fuzz_master,
                                                   raw, code):
        if self.port == "runner":
            raw = RUNNER_PORT_FRAMES.get(raw, raw)
        with self.conn(fuzz_master) as conn:
            reply = transact(conn, raw)
            assert reply["ok"] is False
            assert reply["error"]["code"] == code
            # same connection still serves a good request afterwards
            reply = transact(conn, probe(self.port, 2))
            assert reply["ok"] and reply["id"] == 2

    def test_error_echoes_request_id_when_recoverable(self, fuzz_master):
        with self.conn(fuzz_master) as conn:
            reply = transact(
                conn, b'{"id": 77, "method": "definitely_not"}\n')
            assert reply["id"] == 77
            reply = transact(conn, b'{"id": "str-id", "method": "x"}\n')
            assert reply["id"] == "str-id"
            # a known method with bad params echoes its id too
            reply = transact(conn, b'{"id": 7, "method": "runner_lease", '
                                   b'"params": {}}\n')
            assert reply["error"]["code"] == "bad_params"
            assert reply["id"] == 7
            # unparseable frames cannot echo an id
            reply = transact(conn, b"{{{\n")
            assert reply["id"] is None

    def test_oversized_line_survives_connection(self, fuzz_master):
        with self.conn(fuzz_master, timeout=30.0) as conn:
            flood = b"x" * (MAX_LINE_BYTES + 100) + b"\n"
            reply = transact(conn, flood)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "oversized"
            reply = transact(conn, probe(self.port, 3))
            assert reply["ok"] and reply["id"] == 3

    def test_interleaved_partial_writes(self, fuzz_master):
        wire = probe(self.port, 5)
        with self.conn(fuzz_master) as conn:
            for start in range(0, len(wire), 3):
                conn.sendall(wire[start:start + 3])
                time.sleep(0.002)
            reply = read_line(conn)
            assert reply["ok"] and reply["id"] == 5

    def test_pipelined_requests_answered_in_order(self, fuzz_master):
        wire = b"".join(probe(self.port, i) for i in range(1, 6))
        with self.conn(fuzz_master) as conn:
            conn.sendall(wire)
            for expected in range(1, 6):
                assert read_line(conn)["id"] == expected

    def test_dropped_connection_releases_runner_leases(self):
        class Drive:
            """Hands out one empty unit per lease; records releases."""

            def __init__(self):
                self.released = []

            def lease_payload(self, owner):
                return {"chunk": 0, "epoch": 0, "campaign": "fuzz",
                        "timeout_s": None, "points": []}

            def release(self, owner):
                self.released.append(owner)
                return []

        # A master of its own: the shared one releases the runners
        # earlier tests registered whenever it sees their connections
        # close, and such a late release would land in this drive.
        master = Master(state_dir=tempfile.mkdtemp(prefix="fz", dir="/tmp"),
                        service=ExecutionService(), runners="127.0.0.1:0")
        master.start()
        drive = Drive()
        master.hub.attach(drive)
        try:
            with self.conn(master) as conn:
                runner = transact(conn, probe("runner", 1))[
                    "result"]["runner"]
                reply = transact(conn, encode(request(
                    "runner_lease", {"runner": runner}, request_id=2)))
                assert reply["result"]["work"]["chunk"] == 0
            deadline = time.monotonic() + 10.0
            while (("runner", runner) not in drive.released
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            master.hub.detach()
            master.stop()
        assert drive.released == [("runner", runner)]

    def test_abrupt_disconnect_mid_frame(self, fuzz_master):
        conn = self.conn(fuzz_master)
        conn.sendall(probe(self.port, 1)[:12])   # never finished
        conn.close()                             # client vanishes
        time.sleep(0.1)
        assert master_alive(fuzz_master, port=self.port)

    def test_random_binary_noise(self, fuzz_master):
        from repro.common.prng import DeterministicRng
        rng = DeterministicRng("serve-fuzz")
        with self.conn(fuzz_master, timeout=30.0) as conn:
            for trial in range(20):
                size = rng.randint(1, 200)
                noise = bytes(rng.randint(0, 255) for _ in range(size))
                conn.sendall(noise.replace(b"\n", b" ") + b"\n")
                reply = read_line(conn)
                assert reply["ok"] is False, noise
        assert master_alive(fuzz_master, port=self.port)


@pytest.mark.quick
class TestLiveMasterFuzz(FramingBattery):
    port = "serve"

    def test_rejected_submit_leaks_no_rid(self, fuzz_master):
        bad_specs = [
            {},                                  # no name/points
            {"name": "x"},                       # no points or grid
            {"name": "x", "points": [[]]},       # a point is not a dict
        ]
        before = fuzz_master.scheduler.counter.value
        with raw_conn(fuzz_master) as conn:
            for i, spec in enumerate(bad_specs):
                reply = transact(conn, encode(request(
                    "submit", {"spec": spec}, request_id=i)))
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad_params"
        assert fuzz_master.scheduler.counter.value == before
        assert fuzz_master.scheduler.queue_snapshot() == []

    def test_unknown_rid_everywhere(self, fuzz_master):
        with raw_conn(fuzz_master) as conn:
            for method in ("status", "cancel", "pause", "requeue",
                           "subscribe"):
                reply = transact(conn, encode(request(
                    method, {"rid": 999}, request_id=1)))
                assert reply["ok"] is False
                assert reply["error"]["code"] == "not_found"

    def test_master_survived_the_whole_battery(self, fuzz_master):
        # Runs last in file order within the class; a sanity seal.
        assert master_alive(fuzz_master)
        assert fuzz_master.scheduler.queue_snapshot() == []


@pytest.mark.quick
class TestLiveRunnerPortFuzz(FramingBattery):
    port = "runner"

    def test_runner_port_refuses_client_methods(self, fuzz_master):
        before = fuzz_master.scheduler.counter.value
        refused = [
            request("submit", {"spec": {"name": "x", "points": []}},
                    request_id=1),
            request("shutdown", request_id=2),
            request("hello", request_id=3),
        ]
        with self.conn(fuzz_master) as conn:
            for frame in refused:
                reply = transact(conn, encode(frame))
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad_request"
                assert reply["id"] == frame["id"]
            reply = transact(conn, probe(self.port, 4))
            assert reply["ok"] and reply["id"] == 4
        assert not fuzz_master._shutdown.is_set()
        assert fuzz_master.scheduler.counter.value == before
        assert master_alive(fuzz_master, port=self.port)
        assert master_alive(fuzz_master)
