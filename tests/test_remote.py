"""Distributed transport drills: TCP runners, mixed fleets, loss.

The contract under test is the one the transport layer exists for:
**rows and coverage artifacts are bit-identical to a serial run no
matter which transport carried the points** — a local pool, two
remote ``repro runner`` processes over loopback TCP, or a mixture of
both — and that contract survives every loss mode the scheduler
models:

* a runner SIGKILLed mid-lease (connection death → immediate requeue);
* a wedged-but-connected runner (lease expiry → requeue);
* a runner that leaves mid-campaign while a second keeps stealing;
* an aborted campaign resumed over a fresh fleet;
* one source SIGKILLed from outside — a pool shard, a runner, or the
  shard of a mixed fleet — with one outcome on every fleet.

Runners here are mostly hosted in threads of this process (they speak
real TCP to a real :func:`serve_runners` port, but share the test's
task registry); the SIGKILL drill uses genuine ``repro runner``
subprocesses because you cannot SIGKILL a thread.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.coverage import coverage_path_for
from repro.campaign import (CampaignPoint, CampaignSpec, ResultStore,
                            run_campaign, task)
from repro.campaign.executor import CampaignAborted
from repro.campaign import transport
from repro.campaign.pool import WorkerPool
from repro.campaign.remote import (Drive, RunnerHub, handle_runner_method,
                                   parse_address, run_runner,
                                   serve_runners)
from repro.campaign.sched import ChunkScheduler
from repro.obs.live import attach_live
from repro.serve.protocol import ServeError

SMALL = 1500


# -- throwaway tasks (thread-hosted runners evaluate in this process,
# so registration here is visible to them) ---------------------------------


@task("remote_echo")
def _remote_echo(point, campaign_name=""):
    return {"value": point.seed * 10 + point.params.get("k", 0)}


@task("remote_slow")
def _remote_slow(point, campaign_name=""):
    time.sleep(float(point.params.get("sleep_s", 0.5)))
    return {"value": point.seed}


def echo_spec(name="rem", n=10, k=0):
    return CampaignSpec(name=name, points=[
        CampaignPoint(task="remote_echo", workload="w",
                      instructions=100, seed=seed, params={"k": k})
        for seed in range(n)])


def slow_spec(name="rem-slow", n=2, sleep_s=0.5):
    return CampaignSpec(name=name, points=[
        CampaignPoint(task="remote_slow", workload="w",
                      instructions=100, seed=seed,
                      params={"sleep_s": sleep_s})
        for seed in range(n)])


def inject_spec(name="rem-cov", trials=4, instructions=SMALL):
    """Real fault-injection points: runs in subprocess runners too,
    and exercises the coverage.json artifact path."""
    return CampaignSpec(name=name, points=[
        CampaignPoint(task="inject", workload="dedup",
                      instructions=instructions, seed=0,
                      params={"rate": 0.05, "trial": trial,
                              "rng_key": f"rem/{trial}"})
        for trial in range(trials)])


def rows_of(store_path):
    """The store reduced to its deterministic content (bookkeeping
    like elapsed_s and worker excluded by construction)."""
    results = ResultStore.load(store_path)
    return {pid: (r.ok, r.metrics, r.error)
            for pid, r in results.items()}


def workers_of(store_path):
    return {r.worker for r in ResultStore.load(store_path).values()}


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def run_to_store(spec, tmp_path, tag, hub=None, jobs=1, **kwargs):
    """One campaign with a file store + live status (so coverage.json
    persists); returns the store path and the campaign result."""
    store_path = str(tmp_path / f"{tag}.jsonl")
    with ResultStore(path=store_path) as store:
        live = attach_live(spec, jobs, store=store)
        result = run_campaign(spec, jobs=jobs, store=store, live=live,
                              hub=hub, **kwargs)
    return store_path, result


# -- thread-hosted runner fleets -------------------------------------------


def _runner_main(address, name, kwargs, outcome):
    try:
        outcome["chunks"] = run_runner(address, name=name, **kwargs)
    except (OSError, ConnectionError) as exc:
        outcome["error"] = exc  # listener teardown; expected


def _subprocess_env():
    """The environment a ``repro`` subprocess needs to import this
    checkout's package."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_dir)
    return env


@contextlib.contextmanager
def thread_fleet(count, hub=None, **runner_kwargs):
    """``count`` in-process runners speaking real TCP to a listener."""
    hub = hub if hub is not None else RunnerHub()
    listener = serve_runners(hub, "127.0.0.1:0")
    kwargs = {"poll_s": 0.01, "reconnect": False}
    kwargs.update(runner_kwargs)
    threads, outcomes = [], []
    for i in range(count):
        outcome = {}
        thread = threading.Thread(
            target=_runner_main,
            args=(listener.address, f"t{i}", dict(kwargs), outcome),
            name=f"test-runner-{i}", daemon=True)
        thread.start()
        threads.append(thread)
        outcomes.append(outcome)
    assert hub.wait_for(count, timeout_s=15.0) >= count, \
        "runners never registered"
    try:
        yield hub, listener
    finally:
        listener.stop()
        for thread in threads:
            thread.join(timeout=10.0)


# -- address parsing --------------------------------------------------------


@pytest.mark.quick
class TestParseAddress:
    def test_bare_port_is_loopback_tcp(self):
        assert parse_address("7100") == ("tcp", "127.0.0.1", 7100)

    def test_host_port(self):
        assert parse_address("node3:7100") == ("tcp", "node3", 7100)

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":7100") == ("tcp", "127.0.0.1", 7100)

    def test_paths_are_unix_sockets(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock",
                                                None)
        # A path with a colon but no numeric port is still a path.
        assert parse_address("/tmp/a:b")[0] == "unix"


# -- long-poll leases --------------------------------------------------------


def _holding(hub):
    """Patch ``hub.wait_change`` to report, through the returned
    event, that a caller on another thread is waiting on the hub."""
    entered = threading.Event()
    real = hub.wait_change

    def wait_change(since, timeout_s):
        if threading.current_thread() is not threading.main_thread():
            entered.set()
        return real(since, timeout_s)
    hub.wait_change = wait_change
    return entered


def _in_thread(target, *args):
    outcome = {}

    def main():
        outcome["value"] = target(*args)
    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread, outcome


class TestLongPoll:
    def test_held_lease_returns_work_soon_after_attach(self):
        hub = RunnerHub()
        runner = hub.register(object(), name="held")
        entered = _holding(hub)
        thread, outcome = _in_thread(hub.lease, runner, 5.0)
        assert entered.wait(10.0), "the lease never held"
        pairs = list(enumerate(echo_spec(n=2).points))
        start = time.monotonic()
        hub.attach(Drive(ChunkScheduler(pairs), "held"))
        thread.join(10.0)
        waited = time.monotonic() - start
        assert outcome["value"] is not None
        assert outcome["value"]["points"][0][0] == 0
        assert waited < 1.0

    def test_closed_hub_answers_held_lease_with_bye(self):
        hub = RunnerHub()
        runner = hub.register(object(), name="bye")
        entered = _holding(hub)
        params = {"runner": runner, "wait_s": 30.0}
        thread, outcome = _in_thread(handle_runner_method, hub, None,
                                     "runner_lease", params)
        assert entered.wait(10.0), "the lease never held"
        start = time.monotonic()
        hub.close(timeout_s=30.0)  # returns once the runner was told
        thread.join(10.0)
        assert time.monotonic() - start < 1.0
        assert outcome["value"] == {"work": None, "bye": True}
        # Later leases say bye at once, held or not.
        assert handle_runner_method(hub, None, "runner_lease", params) \
            == {"work": None, "bye": True}

    def test_held_leases_under_thread_stress(self):
        """Six holders on a short switch interval: every unit is leased
        exactly once, and closing the hub frees every holder at once
        (a lost wake-up would leave one holding for its 30 s)."""
        hub = RunnerHub()
        pairs = list(enumerate(echo_spec(n=48).points))
        leased = []
        all_leased = threading.Event()

        def holder(runner):
            while True:
                work = hub.lease(runner, 30.0)
                if work is None:
                    return
                leased.append(work["chunk"])
                if len(leased) == len(pairs):
                    all_leased.set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(
                target=holder, args=(hub.register(object()),),
                daemon=True) for _ in range(6)]
            for thread in threads:
                thread.start()
            hub.attach(Drive(ChunkScheduler(pairs, chunk_size=1),
                             "stress"))
            assert all_leased.wait(20.0), len(leased)
            hub.close(timeout_s=0.0)
            for thread in threads:
                thread.join(5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(leased) == list(range(len(pairs)))

    @pytest.mark.parametrize("reply, expected", [
        ({"work": None, "bye": True}, "bye"),
        ({"work": None}, None),
        ({"work": {"chunk": 0}}, {"chunk": 0}),
        ({"job": None}, ServeError),         # unexpected replies
        ({"work": [1]}, ServeError),
        ("work", ServeError),
    ])
    def test_lease_reply_outcomes(self, reply, expected):
        from repro.campaign import remote

        class Channel:
            def call(self, method, params):
                assert method == "runner_lease"
                assert params == {"runner": 3, "wait_s": 0.5}
                return reply
        if expected is ServeError:
            with pytest.raises(ServeError, match="bad_reply"):
                remote._lease(Channel(), 3, 0.5)
            return
        work = remote._lease(Channel(), 3, 0.5)
        assert (work is remote._BYE) if expected == "bye" \
            else work == expected

    def test_runner_only_drive_folds_rows_without_a_nap(
            self, tmp_path, monkeypatch):
        """Every wait of the drive loop ends on a hub change — the
        last row included — never on its ``POLL_S`` bound, which is
        set far beyond the test's length."""
        monkeypatch.setattr(transport, "POLL_S", 30.0)
        spec = echo_spec(name="rem-wake", n=6)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        hub = RunnerHub()
        woken = []
        real = hub.wait_change

        def wait_change(since, timeout_s):
            changed = real(since, timeout_s)
            if threading.current_thread() is threading.main_thread():
                woken.append(changed)
            return changed
        hub.wait_change = wait_change
        with thread_fleet(1, hub=hub, poll_s=0.5):
            path, result = run_to_store(spec, tmp_path, "wake",
                                        chunk_size=2, batch=1, hub=hub)
        assert result.all_ok
        assert rows_of(path) == rows_of(serial_path)
        assert woken and all(woken), woken

    def test_runner_exits_zero_when_its_master_finishes(self, tmp_path):
        """No ``--idle-exit``: the finishing ``campaign --runners``
        master says bye, and the runner leaves at once with exit 0."""
        env = _subprocess_env()
        master = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "--task",
             "inject", "--workloads", "dedup", "--seeds", "0",
             "--trials", "2", "--instructions", str(SMALL), "--rate",
             "0.05", "--jobs", "1", "--runners", "127.0.0.1:0",
             "--min-runners", "1", "--runner-wait", "60",
             "--out", str(tmp_path / "bye.jsonl")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        runner = None
        try:
            banner = master.stderr.readline()
            assert "accepting runners on " in banner, banner
            address = banner.split("accepting runners on ")[1].split()[0]
            runner = subprocess.Popen(
                [sys.executable, "-m", "repro", "runner", "--connect",
                 address, "--name", "bye"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            assert master.wait(timeout=120.0) == 0, master.stderr.read()
            assert runner.wait(timeout=2.0) == 0
        finally:
            for proc in (master, runner):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            master.stderr.close()
        assert len(rows_of(str(tmp_path / "bye.jsonl"))) == 2


# -- byte-identity battery --------------------------------------------------


class TestBitIdentity:
    def test_two_tcp_runners_match_serial(self, tmp_path):
        spec = echo_spec(n=12)
        serial_path, serial = run_to_store(spec, tmp_path, "serial")
        assert serial.all_ok
        with thread_fleet(2) as (hub, _):
            remote_path, remote = run_to_store(
                spec, tmp_path, "remote", chunk_size=2,
                hub=hub)
        assert remote.all_ok
        assert rows_of(remote_path) == rows_of(serial_path)
        assert workers_of(remote_path) <= {"t0", "t1"}

    def test_mixed_local_pool_and_runner_match_serial(self, tmp_path):
        spec = echo_spec(name="rem-mixed", n=16, k=3)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        with thread_fleet(1) as (hub, _):
            pool = WorkerPool(2)
            try:
                mixed_path, mixed = run_to_store(
                    spec, tmp_path, "mixed", chunk_size=2,
                    hub=hub, pool=pool)
            finally:
                pool.close()
        assert mixed.all_ok
        assert rows_of(mixed_path) == rows_of(serial_path)

    def test_coverage_json_identical_across_transports(self, tmp_path):
        """The acceptance artifact: ``coverage.json`` bytes match
        across serial, local-pool, and all-remote runs."""
        spec = inject_spec(trials=4)
        serial_path, serial = run_to_store(spec, tmp_path, "serial")
        assert serial.all_ok
        pool_path, _ = run_to_store(spec, tmp_path, "pool", jobs=2)
        with thread_fleet(2) as (hub, _):
            remote_path, _ = run_to_store(
                spec, tmp_path, "remote", chunk_size=1,
                hub=hub)
        assert rows_of(pool_path) == rows_of(serial_path)
        assert rows_of(remote_path) == rows_of(serial_path)
        reference = read_bytes(coverage_path_for(serial_path))
        assert read_bytes(coverage_path_for(pool_path)) == reference
        assert read_bytes(coverage_path_for(remote_path)) == reference

    def test_abort_then_resume_over_tcp_matches_uninterrupted(
            self, tmp_path):
        # Slow enough that rows trickle into the drain loop one at a
        # time — the abort must genuinely interrupt the campaign.
        spec = inject_spec(name="rem-resume", trials=6,
                           instructions=SMALL * 30)
        ref_path, ref = run_to_store(spec, tmp_path, "ref")
        assert ref.all_ok
        out = str(tmp_path / "tcp.jsonl")
        stop = threading.Event()
        seen = []

        def progress(result):
            seen.append(result)
            if len(seen) >= 2:
                stop.set()

        with thread_fleet(2) as (hub, _):
            with ResultStore(path=out) as store:
                live = attach_live(spec, 2, store=store)
                # batch=1 keeps the points in single-point chunks
                # (they are lane-compatible, so auto-batching would
                # evaluate them all in one kernel call and deliver
                # every row in a single drain — nothing left to
                # abort).  Rows are bit-identical either way.
                with pytest.raises(CampaignAborted):
                    run_campaign(
                        spec, store=store, live=live, progress=progress,
                        abort=stop.is_set, chunk_size=1, batch=1,
                        hub=hub)
            aborted_rows = rows_of(out)
            assert 0 < len(aborted_rows) < len(spec.points)
            # Resume over the same fleet finishes the remainder.
            with ResultStore(path=out) as store:
                live = attach_live(spec, 2, store=store)
                result = run_campaign(
                    spec, store=store, live=live, resume_from=out,
                    chunk_size=1,
                    hub=hub)
        assert result.all_ok
        assert rows_of(out) == rows_of(ref_path)
        assert read_bytes(coverage_path_for(out)) == \
            read_bytes(coverage_path_for(ref_path))


# -- fleet spread -----------------------------------------------------------


def meek12_spec(name="rem-meek12"):
    """Twelve unbatchable meek points (workloads x cores x fabric)."""
    return CampaignSpec(name=name, points=[
        CampaignPoint(task="meek", workload=workload,
                      instructions=SMALL * 4, seed=0,
                      params={"cores": cores, "fabric": fabric})
        for workload in ("streamcluster", "gcc")
        for cores in (2, 4, 8)
        for fabric in ("f2", "axi")])


SPREAD_SPECS = {"inject32": lambda: inject_spec(name="rem-i32", trials=32),
                "meek12": meek12_spec}


class TestFleetSpread:
    """Units are sized to the fleet present when the campaign starts,
    so a 32-trial inject group or twelve meek points reach every
    runner (and, mixed, the local shard too) — with rows and
    coverage.json unchanged from a serial scalar run."""

    @staticmethod
    def reference(spec, tmp_path):
        path, result = run_to_store(spec, tmp_path, "serial", batch=1)
        assert result.all_ok
        return path

    @staticmethod
    def assert_same(path, reference):
        assert rows_of(path) == rows_of(reference)
        cov, ref_cov = coverage_path_for(path), coverage_path_for(reference)
        assert os.path.exists(cov) == os.path.exists(ref_cov)
        if os.path.exists(ref_cov):
            assert read_bytes(cov) == read_bytes(ref_cov)

    @pytest.mark.parametrize("name", sorted(SPREAD_SPECS))
    def test_two_tcp_runners_both_get_rows(self, tmp_path, name):
        spec = SPREAD_SPECS[name]()
        reference = self.reference(spec, tmp_path)
        with thread_fleet(2) as (hub, _):
            path, result = run_to_store(
                spec, tmp_path, "remote",
                hub=hub)
        assert result.all_ok
        assert workers_of(path) == {"t0", "t1"}
        self.assert_same(path, reference)

    @pytest.mark.parametrize("name", sorted(SPREAD_SPECS))
    def test_mixed_shard_and_runner_both_get_rows(self, tmp_path, name):
        spec = SPREAD_SPECS[name]()
        reference = self.reference(spec, tmp_path)
        with thread_fleet(1) as (hub, _):
            pool = WorkerPool(1)
            try:
                path, result = run_to_store(
                    spec, tmp_path, "mixed",
                    hub=hub, pool=pool)
            finally:
                pool.close()
        assert result.all_ok
        assert workers_of(path) == {0, "t0"}
        self.assert_same(path, reference)


# -- lease renewal ----------------------------------------------------------


class TestLeaseRenewal:
    def test_in_evaluation_heartbeat_outlives_short_lease(self, tmp_path):
        """A unit slower than the bare lease timeout completes anyway:
        the runner's heartbeat thread renews the lease while the point
        evaluates.  Before the fix this livelocked — the lease expired
        mid-evaluation, its rows were blackholed by the epoch bump,
        and the requeued chunk hit the same wall forever."""
        spec = slow_spec(n=2, sleep_s=0.6)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        with thread_fleet(1, hub=RunnerHub(lease_timeout_s=0.25),
                          heartbeat_s=0.05) as (hub, _):
            # batch=1 keeps chunk_size honoured (auto lanes floor it).
            path, result = run_to_store(
                spec, tmp_path, "slow", chunk_size=1, batch=1, hub=hub)
        assert result.all_ok
        assert rows_of(path) == rows_of(serial_path)

    def test_local_pool_lease_renews_while_shards_alive(self, tmp_path):
        """Mixed-mode local chunks outlive the bare lease timeout:
        shard leases carry no deadline (the drive loop sees a shard
        die directly), so a chunk whose total runtime exceeds the
        timeout streams to completion instead of expiring mid-chunk
        and duplicating its tail."""
        spec = slow_spec(name="rem-slow-local", n=3, sleep_s=0.2)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        # no runners: the pool is the only source
        hub = RunnerHub(lease_timeout_s=0.35)
        pool = WorkerPool(1)
        try:
            path, result = run_to_store(
                spec, tmp_path, "local", chunk_size=3, batch=1,
                hub=hub, pool=pool)
        finally:
            pool.close()
        assert result.all_ok
        assert rows_of(path) == rows_of(serial_path)

    @pytest.mark.quick
    def test_effective_lease_timeout_scales_with_unit_budget(self):
        from repro.campaign.transport import effective_lease_timeout
        # No per-point budget (or no lease timeout at all): unchanged.
        assert effective_lease_timeout(60.0, None, 16) == 60.0
        assert effective_lease_timeout(None, 5.0, 16) is None
        # With a budget, the deadline covers a full batch run plus the
        # scalar re-run of the same group, on top of the base margin.
        assert effective_lease_timeout(60.0, 5.0, 16) == 60.0 + 160.0
        assert effective_lease_timeout(60.0, 5.0, 1) == 70.0


# -- loss drills ------------------------------------------------------------


class TestLoss:
    def test_runner_leaving_mid_campaign_is_harmless(self, tmp_path):
        """t0 evaluates one chunk and disconnects (clean exit); t1
        keeps stealing and finishes the campaign."""
        spec = echo_spec(name="rem-leave", n=12)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        with thread_fleet(2, max_chunks=1) as (hub, listener):
            # t0/t1 both exit after one chunk; a third, unrestricted
            # runner joins late and sweeps up whatever remains.
            sweeper = {}
            thread = threading.Thread(
                target=_runner_main,
                args=(listener.address, "sweeper",
                      {"poll_s": 0.01, "reconnect": False}, sweeper),
                daemon=True)
            thread.start()
            assert hub.wait_for(3, timeout_s=15.0) >= 3
            path, result = run_to_store(
                spec, tmp_path, "leave", chunk_size=2,
                hub=hub)
        thread.join(timeout=10.0)
        assert result.all_ok
        assert rows_of(path) == rows_of(serial_path)
        assert workers_of(path) <= {"t0", "t1", "sweeper"}

    def test_transient_total_runner_loss_waits_for_rejoin(self, tmp_path):
        """All runners dropping is not instant death: the transport
        grace-waits for a re-registration (the runner client retries
        for ~30s on a blip), and a rejoining runner leases the
        requeued chunks and finishes the campaign — before the fix
        the whole remainder failed as WorkerDied the moment the last
        connection closed."""
        spec = echo_spec(name="rem-blip", n=6)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        hub = RunnerHub()
        listener = serve_runners(hub, "127.0.0.1:0")
        try:
            first = {}
            t_first = threading.Thread(
                target=_runner_main,
                args=(listener.address, "first",
                      {"poll_s": 0.01, "reconnect": False,
                       "max_chunks": 1}, first),
                daemon=True)
            t_first.start()
            assert hub.wait_for(1, timeout_s=15.0) >= 1
            outcome = {}

            def campaign():
                try:
                    # batch=1 keeps chunk_size honoured, so the first
                    # runner's single chunk leaves work behind.
                    outcome["path"], outcome["result"] = run_to_store(
                        spec, tmp_path, "blip", chunk_size=2, batch=1,
                        hub=hub)
                except BaseException as exc:  # noqa: BLE001 — surface
                    outcome["exc"] = exc      # in the main thread
            t_campaign = threading.Thread(target=campaign, daemon=True)
            t_campaign.start()
            # The only runner evaluates one chunk and disconnects,
            # leaving the fleet empty with work still pending.
            t_first.join(timeout=15.0)
            assert not t_first.is_alive(), "first runner never left"
            assert t_campaign.is_alive(), \
                "campaign ended while the fleet was empty"
            # A replacement joins inside the grace window.
            second = {}
            t_second = threading.Thread(
                target=_runner_main,
                args=(listener.address, "second",
                      {"poll_s": 0.01, "reconnect": False}, second),
                daemon=True)
            t_second.start()
            t_campaign.join(timeout=30.0)
            assert not t_campaign.is_alive(), "campaign wedged"
            assert "exc" not in outcome, outcome.get("exc")
        finally:
            listener.stop()
        assert outcome["result"].all_ok
        assert rows_of(outcome["path"]) == rows_of(serial_path)
        assert workers_of(outcome["path"]) <= {"first", "second"}

    def test_idle_exit_ends_retries_after_master_is_gone(self):
        """A finished master closes its port: a runner with an idle
        budget exits cleanly once it passes, not after ``retry_s`` of
        retries with an error."""
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        start = time.monotonic()
        chunks = run_runner(f"127.0.0.1:{port}", idle_exit_s=0.3,
                            retry_s=30.0)
        assert chunks == 0
        assert time.monotonic() - start < 2.0

    def test_no_fleet_ever_still_fails_fast(self, tmp_path):
        """The grace window only applies to a fleet that existed: a
        campaign pointed at a hub no runner ever registered with fails
        its points as WorkerDied immediately, not after the grace."""
        spec = echo_spec(name="rem-empty", n=4)
        hub = RunnerHub()
        start = time.monotonic()
        path, result = run_to_store(
            spec, tmp_path, "empty",
            hub=hub)
        assert time.monotonic() - start < 5.0
        assert not result.all_ok
        assert all("WorkerDied" in r.error for r in result.results)

    def test_wedged_runner_lease_expires_and_requeues(self, tmp_path):
        """A registered runner that leases a chunk and then never
        reports: its lease deadline lapses, the chunk requeues, and a
        healthy runner re-runs it — rows identical to serial."""
        spec = echo_spec(name="rem-wedge", n=6)
        serial_path, _ = run_to_store(spec, tmp_path, "serial")
        hub = RunnerHub(lease_timeout_s=0.3)
        listener = serve_runners(hub, "127.0.0.1:0")
        wedged = hub.register(object(), name="wedged")
        stolen = {}
        failure = {}

        def campaign():
            try:
                stolen["store"], stolen["result"] = run_to_store(
                    spec, tmp_path, "wedge", chunk_size=2, hub=hub)
            except BaseException as exc:  # noqa: BLE001 — surface in
                failure["exc"] = exc      # the main thread's assert
        thread = threading.Thread(target=campaign, daemon=True)
        thread.start()
        try:
            # Steal a lease onto the wedged runner the moment the
            # drive attaches, before any healthy runner exists.
            deadline = time.monotonic() + 15.0
            work = None
            while work is None and time.monotonic() < deadline:
                work = hub.lease(wedged)
                if work is None:
                    time.sleep(0.005)
            assert work is not None, "wedged runner never got a lease"
            # Now bring up the healthy runner that must finish
            # everything, including the expired chunk.
            healthy = {}
            runner_thread = threading.Thread(
                target=_runner_main,
                args=(listener.address, "healthy",
                      {"poll_s": 0.01, "reconnect": False}, healthy),
                daemon=True)
            runner_thread.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "campaign wedged"
            assert "exc" not in failure, failure.get("exc")
        finally:
            listener.stop()
        assert stolen["result"].all_ok
        assert rows_of(stolen["store"]) == rows_of(serial_path)
        # Every row came from the healthy runner — the wedged one
        # never reported a thing, so its chunk demonstrably re-ran.
        assert workers_of(stolen["store"]) == {"healthy"}

    @pytest.mark.slow
    def test_sigkill_runner_mid_campaign_rows_identical(self, tmp_path):
        """The CI acceptance drill with real processes: two ``repro
        runner`` subprocesses over loopback TCP, one SIGKILLed while
        the campaign runs; the survivor re-runs the lost lease and the
        store matches the serial reference byte-for-byte."""
        spec = inject_spec(name="rem-kill", trials=8)
        serial_path, serial = run_to_store(spec, tmp_path, "serial")
        assert serial.all_ok
        env = _subprocess_env()
        hub = RunnerHub()
        listener = serve_runners(hub, "127.0.0.1:0")
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "runner",
             "--connect", listener.address, "--name", f"sub{i}",
             "--poll", "0.02", "--no-reconnect"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL) for i in range(2)]
        try:
            assert hub.wait_for(2, timeout_s=60.0) >= 2, \
                "subprocess runners never registered"
            killed = []

            def progress(result):
                if not killed:
                    procs[0].kill()  # SIGKILL mid-campaign
                    killed.append(True)

            path, result = run_to_store(
                spec, tmp_path, "kill", chunk_size=1, progress=progress,
                hub=hub)
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=30.0)
            listener.stop()
        assert killed, "campaign finished before the kill fired"
        assert result.all_ok
        assert rows_of(path) == rows_of(serial_path)
        assert read_bytes(coverage_path_for(path)) == \
            read_bytes(coverage_path_for(serial_path))


# -- same failure, same outcome --------------------------------------------


@contextlib.contextmanager
def subprocess_runners(count):
    """``count`` genuine ``repro runner`` processes on a loopback
    listener (a thread cannot be SIGKILLed); yields the hub and the
    processes."""
    env = _subprocess_env()
    hub = RunnerHub()
    listener = serve_runners(hub, "127.0.0.1:0")
    procs = [subprocess.Popen(
        [sys.executable, "-m", "repro", "runner",
         "--connect", listener.address, "--name", f"sub{i}",
         "--poll", "0.02", "--no-reconnect"],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for i in range(count)]
    try:
        assert hub.wait_for(count, timeout_s=60.0) >= count, \
            "subprocess runners never registered"
        yield hub, procs
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=30.0)
        listener.stop()


#: fleet -> (local shards, subprocess runners)
KILL_FLEETS = {"pool": (2, 0), "runners": (0, 2), "mixed": (1, 1)}


class TestSameFailureSameOutcome:
    """An outside SIGKILL of any one source mid-campaign has one
    outcome whatever the fleet: the lost lease requeues to the
    survivors (a dead shard is re-forked in place), and the campaign
    ends all_ok with rows and coverage.json identical to serial."""

    @pytest.mark.parametrize("fleet", [
        "pool",
        pytest.param("runners", marks=pytest.mark.slow),
        pytest.param("mixed", marks=pytest.mark.slow),
    ])
    def test_sigkill_one_source_ends_all_ok(self, tmp_path, fleet):
        spec = inject_spec(name=f"rem-same-{fleet}", trials=8,
                           instructions=SMALL * 4)
        serial_path, serial = run_to_store(spec, tmp_path, "serial")
        assert serial.all_ok
        shards, runners = KILL_FLEETS[fleet]
        with contextlib.ExitStack() as stack:
            hub, procs = (stack.enter_context(subprocess_runners(runners))
                          if runners else (None, []))
            pool = stack.enter_context(WorkerPool(shards)) if shards \
                else None
            killed = []

            def victim(result):
                if fleet == "pool":
                    # The shard that did not just report: mid-unit.
                    return pool.pids[1 - result.worker]
                return pool.pids[0] if pool else procs[0].pid

            def progress(result):
                if not killed:
                    killed.append(victim(result))
                    os.kill(killed[0], signal.SIGKILL)

            # batch=1: one point per unit, so every source always
            # holds an unreported lease when the kill lands.
            path, result = run_to_store(
                spec, tmp_path, fleet, chunk_size=1, batch=1,
                progress=progress, hub=hub, pool=pool)
            if pool is not None:
                assert killed[0] not in pool.pids  # re-forked in place
                assert pool.healthy and pool.jobs == shards
        assert killed, "campaign finished before the kill fired"
        assert result.all_ok, [r.error for r in result.failed]
        assert rows_of(path) == rows_of(serial_path)
        assert read_bytes(coverage_path_for(path)) == \
            read_bytes(coverage_path_for(serial_path))
