"""Robustness and determinism tests for the ``repro serve`` master.

The contract under test, layer by layer:

* the persistence units — rid counter, run registry, scheduler — are
  monotonic, crash-safe, and enforce the run-state machine;
* a live master executes submitted campaigns to done, streams rows,
  orders the queue by priority, and keeps every client's run id
  distinct;
* the failure drills: a client dying mid-stream never touches its
  run, a SIGKILLed pool worker surfaces as ``WorkerDied`` failures
  (not a dead master), and a master killed mid-campaign restarts into
  a resume that finishes the same run id with rows bit-identical to a
  campaign that never saw a master at all.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.campaign import (CampaignPoint, CampaignSpec, ResultStore,
                            run_campaign, task)
from repro.perf.service import ExecutionService
from repro.serve import scheduler as sched
from repro.serve.client import ServeClient, ServeError, find_socket
from repro.serve.master import Master, contact_path, read_contact
from repro.serve.scheduler import (
    BadTransition,
    RidCounter,
    RunRecord,
    RunRegistry,
    Scheduler,
    UnknownRun,
)

SMALL = 1500


# -- throwaway tasks (workers fork from this process, so registration
# here is visible to every shard) ------------------------------------------


@task("serve_echo")
def _serve_echo(point, campaign_name=""):
    return {"value": point.seed * 100 + point.params.get("k", 0),
            "workload": point.workload}


@task("serve_sleep")
def _serve_sleep(point, campaign_name=""):
    time.sleep(float(point.params.get("sleep_s", 0.05)))
    return {"value": point.seed}


@task("serve_kill")
def _serve_kill(point, campaign_name=""):
    if point.params.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)  # a real worker SIGKILL
    return {"value": point.seed}


@task("serve_stubborn")
def _serve_stubborn(point, campaign_name=""):
    # A shard that ignores SIGTERM and never finishes its unit.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60.0)
    return {"value": point.seed}


def echo_spec(name="srv", n=4, k=0):
    return CampaignSpec(name=name, points=[
        CampaignPoint(
            task="serve_echo", workload="w", instructions=100,
            seed=seed, params={"k": k})
        for seed in range(n)])


def sleep_spec(name="slow", n=20, sleep_s=0.05):
    return CampaignSpec(name=name, points=[
        CampaignPoint(
            task="serve_sleep", workload="w", instructions=100,
            seed=seed, params={"sleep_s": sleep_s})
        for seed in range(n)])


def rows_of(store_path):
    """The store reduced to its deterministic content."""
    results = ResultStore.load(store_path)
    return {pid: (r.ok, r.metrics, r.error)
            for pid, r in results.items()}


def direct_rows(spec, jobs=None):
    """The same spec run with no master anywhere near it."""
    with tempfile.NamedTemporaryFile(suffix=".jsonl",
                                     delete=False) as handle:
        path = handle.name
    os.unlink(path)
    try:
        with ResultStore(path=path) as store:
            run_campaign(spec, jobs=jobs, store=store)
        return rows_of(path)
    finally:
        if os.path.exists(path):
            os.unlink(path)


def wait_for(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def wait_state(client, rid, states, timeout=30.0):
    return wait_for(
        lambda: (lambda run: run if run["state"] in states else None)(
            client.status(rid)["run"]),
        timeout=timeout, message=f"run {rid} -> {states}")


@pytest.fixture()
def state_dir():
    return tempfile.mkdtemp(prefix="sv", dir="/tmp")


@pytest.fixture()
def master(state_dir):
    instance = Master(state_dir=state_dir, service=ExecutionService())
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(master):
    with ServeClient(master.socket_path) as instance:
        yield instance


# -- persistence units -----------------------------------------------------


@pytest.mark.quick
class TestRidCounter:
    def test_monotonic(self, state_dir):
        counter = RidCounter(os.path.join(state_dir, "rid"))
        assert [counter.next() for _ in range(3)] == [1, 2, 3]

    def test_survives_restart(self, state_dir):
        path = os.path.join(state_dir, "rid")
        assert RidCounter(path).next() == 1
        assert RidCounter(path).next() == 2  # a new "master"

    def test_corrupt_counter_restarts_at_zero(self, state_dir):
        path = os.path.join(state_dir, "rid")
        with open(path, "w") as handle:
            handle.write("not a number")
        assert RidCounter(path).next() == 1

    def test_persisted_before_handed_out(self, state_dir):
        path = os.path.join(state_dir, "rid")
        counter = RidCounter(path)
        counter.next()
        # A crash right now must not reuse rid 1.
        assert RidCounter(path).next() == 2


@pytest.mark.quick
class TestRunRegistry:
    def record(self, rid=1, **overrides):
        fields = dict(rid=rid, name="r", spec={"name": "r", "points": []},
                      priority=2, store="s.jsonl", points_total=3)
        fields.update(overrides)
        return RunRecord(**fields)

    def test_round_trip(self, state_dir):
        registry = RunRegistry(state_dir)
        record = self.record(completed=2, failed=1, error="boom")
        registry.save(record)
        loaded = registry.load(1)
        assert loaded.to_dict() == record.to_dict()

    def test_interrupt_is_transient(self, state_dir):
        registry = RunRegistry(state_dir)
        record = self.record()
        record.interrupt = "cancel"
        registry.save(record)
        assert registry.load(1).interrupt is None

    def test_load_all_sorted_and_corruption_tolerant(self, state_dir):
        registry = RunRegistry(state_dir)
        for rid in (3, 1, 2):
            registry.save(self.record(rid=rid))
        os.makedirs(registry.runs_dir, exist_ok=True)
        with open(os.path.join(registry.runs_dir, "2.json"), "w") as h:
            h.write("{ truncated")
        with open(os.path.join(registry.runs_dir,
                               "9.results.status.json"), "w") as h:
            h.write("{}")  # a live-status sibling, not a record
        assert [r.rid for r in registry.load_all()] == [1, 3]

    def test_load_missing_returns_none(self, state_dir):
        assert RunRegistry(state_dir).load(42) is None


@pytest.mark.quick
class TestScheduler:
    def scheduler(self, state_dir):
        return Scheduler(RunRegistry(state_dir),
                         RidCounter(os.path.join(state_dir, "rid")))

    def submit(self, scheduler, priority=0):
        return scheduler.submit("r", {"name": "r", "points": []},
                                priority=priority)

    def test_submit_assigns_increasing_rids(self, state_dir):
        scheduler = self.scheduler(state_dir)
        assert [self.submit(scheduler).rid for _ in range(3)] == [1, 2, 3]

    def test_priority_order_with_rid_ties(self, state_dir):
        scheduler = self.scheduler(state_dir)
        self.submit(scheduler, priority=0)    # rid 1
        self.submit(scheduler, priority=10)   # rid 2
        self.submit(scheduler, priority=10)   # rid 3
        self.submit(scheduler, priority=-5)   # rid 4
        order = [scheduler.next_run(timeout=0).rid for _ in range(4)]
        assert order == [2, 3, 1, 4]

    def test_next_run_times_out_empty(self, state_dir):
        assert self.scheduler(state_dir).next_run(timeout=0.01) is None

    def test_cancel_queued_is_immediate_and_lazy_deleted(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        other = self.submit(scheduler)
        assert scheduler.cancel(record.rid).state == sched.CANCELLED
        popped = scheduler.next_run(timeout=0)
        assert popped.rid == other.rid  # stale heap entry skipped
        assert scheduler.next_run(timeout=0) is None

    def test_cancel_running_sets_interrupt_only(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        scheduler.next_run(timeout=0)
        result = scheduler.cancel(record.rid)
        assert result.state == sched.RUNNING
        assert result.interrupt == "cancel"

    def test_cancel_done_raises_bad_transition(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        scheduler.next_run(timeout=0)
        scheduler.finish(record.rid, sched.DONE)
        with pytest.raises(BadTransition):
            scheduler.cancel(record.rid)

    def test_pause_queued_then_requeue(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        assert scheduler.pause(record.rid).state == sched.PAUSED
        assert scheduler.next_run(timeout=0) is None
        assert scheduler.requeue(record.rid).state == sched.QUEUED
        assert scheduler.next_run(timeout=0).rid == record.rid

    def test_requeue_done_rejected(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        scheduler.next_run(timeout=0)
        scheduler.finish(record.rid, sched.DONE)
        with pytest.raises(BadTransition):
            scheduler.requeue(record.rid)

    def test_unknown_rid_raises(self, state_dir):
        scheduler = self.scheduler(state_dir)
        with pytest.raises(UnknownRun):
            scheduler.cancel(99)
        with pytest.raises(UnknownRun):
            scheduler.get(99)

    def test_finish_back_to_queued_is_poppable(self, state_dir):
        scheduler = self.scheduler(state_dir)
        record = self.submit(scheduler)
        scheduler.next_run(timeout=0)
        scheduler.finish(record.rid, sched.QUEUED, completed=2)
        assert scheduler.next_run(timeout=0).rid == record.rid

    def test_recover_requeues_interrupted_only(self, state_dir):
        scheduler = self.scheduler(state_dir)
        interrupted = self.submit(scheduler)       # rid 1
        finished = self.submit(scheduler)          # rid 2
        never_ran = self.submit(scheduler)         # rid 3
        assert scheduler.next_run(timeout=0).rid == interrupted.rid
        record = scheduler.next_run(timeout=0)     # rid 2
        scheduler.finish(record.rid, sched.DONE)
        # a fresh scheduler over the same registry: the crash case
        fresh = self.scheduler(state_dir)
        requeued = {r.rid for r in fresh.recover()}
        assert requeued == {interrupted.rid, never_ran.rid}
        states = {r["rid"]: r["state"] for r in fresh.queue_snapshot()}
        assert states[interrupted.rid] == sched.QUEUED
        assert states[finished.rid] == sched.DONE

    def test_counts(self, state_dir):
        scheduler = self.scheduler(state_dir)
        self.submit(scheduler)
        self.submit(scheduler)
        scheduler.next_run(timeout=0)
        assert scheduler.counts() == {"queued": 1, "running": 1}


# -- the live master -------------------------------------------------------


@pytest.mark.quick
class TestMasterBasics:
    def test_hello_reports_identity(self, master, client):
        hello = client.hello()
        assert hello["schema"] == 1
        assert hello["pid"] == os.getpid()
        assert hello["state_dir"] == master.state_dir
        assert hello["runs"] == {}
        assert hello["pool"] is None  # nothing sharded yet

    def test_contact_file_written_and_removed(self, state_dir):
        master = Master(state_dir=state_dir, service=ExecutionService())
        master.start()
        try:
            contact = read_contact(state_dir)
            assert contact["socket"] == master.socket_path
            assert contact["pid"] == os.getpid()
            assert find_socket(state_dir=state_dir) == master.socket_path
        finally:
            master.stop()
        assert read_contact(state_dir) is None
        assert not os.path.exists(master.socket_path)

    def test_runner_port_open_before_socket_answers(self, state_dir,
                                                    monkeypatch):
        """A client that sees the socket answer reads the runner port
        from hello and starts runners against it, so the port must be
        open first (it read None, and crashed, when the socket came up
        first)."""
        from repro.campaign import remote

        master = Master(state_dir=state_dir, service=ExecutionService(),
                        runners="127.0.0.1:0")
        socket_seen = []
        original = remote.serve_runners

        def serve_runners(hub, address):
            socket_seen.append(os.path.exists(master.socket_path))
            return original(hub, address)

        monkeypatch.setattr(remote, "serve_runners", serve_runners)
        master.start()
        try:
            assert socket_seen == [False]
            with ServeClient(master.socket_path) as client:
                assert client.hello()["runner_port"] == \
                    master.runner_server.address
        finally:
            master.stop()

    def test_second_master_refuses_live_socket(self, master, state_dir):
        second = Master(state_dir=state_dir, service=ExecutionService())
        with pytest.raises(RuntimeError, match="another master"):
            second.start()

    def test_stale_socket_evicted(self, state_dir):
        first = Master(state_dir=state_dir, service=ExecutionService())
        first.start()
        first.stop()
        # leave a stale socket file behind deliberately
        with open(os.path.join(state_dir, "serve.sock"), "w"):
            pass
        second = Master(state_dir=state_dir, service=ExecutionService())
        second.start()
        try:
            with ServeClient(second.socket_path) as probe:
                assert probe.hello()["schema"] == 1
        finally:
            second.stop()

    def test_submit_runs_to_done_and_streams(self, client):
        spec = echo_spec(n=3)
        submitted = client.submit(spec.to_dict(), stream=True)
        assert submitted["rid"] == 1
        # the executor thread may have claimed — or with a warm pool
        # even finished — the run by the time the response is built
        assert submitted["state"] in ("queued", "running", "done")
        assert submitted["points"] == 3
        events = list(client.events(rid=1))
        assert events[0]["event"] == "state"
        assert events[0]["state"] == "running"
        point_rows = [e["row"] for e in events
                      if e["event"] == "point"]
        assert len(point_rows) == 3
        assert all(row["ok"] for row in point_rows)
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        assert events[-1]["failed"] == 0

    def test_store_rows_match_directly_run_campaign(self, client):
        spec = echo_spec(n=4)
        submitted = client.submit(spec.to_dict())
        wait_state(client, submitted["rid"], ("done",))
        assert rows_of(submitted["store"]) == direct_rows(spec)

    def test_queue_and_status_rpcs(self, client):
        submitted = client.submit(echo_spec(n=2).to_dict(), priority=7)
        run = wait_state(client, submitted["rid"], ("done",))
        assert run["priority"] == 7
        assert run["completed"] == 2
        runs = client.queue()
        assert [r["rid"] for r in runs] == [submitted["rid"]]
        info = client.status(submitted["rid"])
        assert info["run"]["state"] == "done"
        assert info["status"] is None  # not executing any more

    def test_status_snapshot_carries_rid_while_running(self, client):
        submitted = client.submit(sleep_spec(n=10).to_dict())
        rid = submitted["rid"]
        snap = wait_for(
            lambda: client.status(rid)["status"],
            message="live snapshot")
        assert snap["rid"] == rid
        assert snap["campaign"] == "slow"
        wait_state(client, rid, ("done",))

    def test_distinct_rids_across_concurrent_clients(self, master):
        rids = []
        lock = threading.Lock()

        def submitter(tag):
            with ServeClient(master.socket_path) as mine:
                for i in range(5):
                    got = mine.submit(
                        echo_spec(name=f"c{tag}-{i}", n=1).to_dict())
                    with lock:
                        rids.append(got["rid"])

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(rids) == list(range(1, 16))

    def test_submit_while_shutting_down_rejected(self, master, client):
        master._shutdown.set()
        with pytest.raises(ServeError) as err:
            client.submit(echo_spec(n=1).to_dict())
        assert err.value.code == "shutting_down"


class TestMasterScheduling:
    def test_priority_preempts_queue_order(self, client):
        blocker = client.submit(sleep_spec(n=15, sleep_s=0.05).to_dict())
        wait_state(client, blocker["rid"], ("running",))
        low = client.submit(echo_spec(name="low", n=1).to_dict(),
                            priority=0)
        high = client.submit(echo_spec(name="high", n=1).to_dict(),
                             priority=10)
        for submitted in (blocker, low, high):
            wait_state(client, submitted["rid"], ("done",))
        started = {r["name"]: r["started_unix"]
                   for r in client.queue()}
        assert started["high"] <= started["low"]

    def test_determinism_two_clients_overlapping_grids(self, master):
        """The acceptance drill: two clients, overlapping sharded
        grids, different priorities — every run's rows bit-identical
        to the same spec run serially with no master involved."""
        spec_a = echo_spec(name="grid-a", n=6, k=1)
        spec_b = CampaignSpec(name="grid-b", points=(
            echo_spec(name="grid-b", n=4, k=1).points
            + echo_spec(name="grid-b", n=3, k=2).points))
        submissions = {}

        def submit(tag, spec, priority):
            with ServeClient(master.socket_path) as mine:
                submissions[tag] = mine.submit(
                    spec.to_dict(), priority=priority, jobs=2)

        threads = [
            threading.Thread(target=submit, args=("a", spec_a, 1)),
            threading.Thread(target=submit, args=("b", spec_b, 5)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert submissions["a"]["rid"] != submissions["b"]["rid"]
        with ServeClient(master.socket_path) as probe:
            for tag in ("a", "b"):
                run = wait_state(probe, submissions[tag]["rid"],
                                 ("done",))
                assert run["failed"] == 0
        # sharded-via-master == serial-no-master, per point
        assert rows_of(submissions["a"]["store"]) == direct_rows(spec_a)
        assert rows_of(submissions["b"]["store"]) == direct_rows(spec_b)

    def test_cancel_running_then_requeue_completes_identically(
            self, client):
        spec = sleep_spec(n=15, sleep_s=0.05)
        submitted = client.submit(spec.to_dict())
        rid = submitted["rid"]
        wait_for(lambda: client.status(rid)["run"]["completed"] >= 2,
                 message="a few points done")
        result = client.cancel(rid)
        assert result["interrupt"] == "cancel"
        run = wait_state(client, rid, ("cancelled",))
        assert 0 < run["completed"] < len(spec.points)
        partial = len(rows_of(submitted["store"]))
        assert partial == run["completed"]
        # requeue resumes from the store: the finished whole equals a
        # run that was never interrupted
        client.requeue(rid)
        run = wait_state(client, rid, ("done",))
        assert run["resumed"] == partial
        assert rows_of(submitted["store"]) == direct_rows(spec)

    def test_pause_then_requeue(self, client):
        spec = sleep_spec(n=12, sleep_s=0.05)
        submitted = client.submit(spec.to_dict())
        rid = submitted["rid"]
        wait_for(lambda: client.status(rid)["run"]["completed"] >= 1,
                 message="first point done")
        client.pause(rid)
        run = wait_state(client, rid, ("paused",))
        assert run["completed"] < len(spec.points)
        client.requeue(rid)
        run = wait_state(client, rid, ("done",))
        assert run["completed"] == len(spec.points)

    def test_cancel_queued_never_runs(self, client):
        blocker = client.submit(sleep_spec(n=8).to_dict())
        victim = client.submit(echo_spec(n=2).to_dict())
        result = client.cancel(victim["rid"])
        assert result["state"] == "cancelled"
        wait_state(client, blocker["rid"], ("done",))
        run = client.status(victim["rid"])["run"]
        assert run["state"] == "cancelled"
        assert run["completed"] == 0
        assert not os.path.exists(victim["store"])


class TestMasterFailureDrills:
    def test_client_death_mid_stream_leaves_run_alive(self, master):
        victim = ServeClient(master.socket_path)
        submitted = victim.submit(sleep_spec(n=10).to_dict(),
                                  stream=True)
        rid = submitted["rid"]
        events = victim.events(rid=rid)
        assert next(events)["event"] == "state"   # saw it start
        next(events)                              # saw a point land
        victim.close()                            # client dies mid-run
        with ServeClient(master.socket_path) as witness:
            run = wait_state(witness, rid, ("done",))
            assert run["completed"] == 10
            assert run["failed"] == 0
        assert len(rows_of(submitted["store"])) == 10

    def test_worker_sigkill_drains_not_dies(self, master, client):
        points = [
            CampaignPoint(
                task="serve_kill", workload="w", instructions=100,
                seed=seed, params={"kill": seed == 3})
            for seed in range(8)
        ]
        spec = CampaignSpec(name="killer", points=points)
        submitted = client.submit(spec.to_dict(), jobs=2)
        run = wait_state(client, submitted["rid"], ("done",))
        assert run["failed"] >= 1
        rows = rows_of(submitted["store"])
        dead = [error for ok, _, error in rows.values()
                if not ok]
        assert dead and all("WorkerDied" in error for error in dead)
        # the pool is rebuilt: the next sharded run is untouched
        clean = echo_spec(name="after", n=4)
        second = client.submit(clean.to_dict(), jobs=2)
        run = wait_state(client, second["rid"], ("done",))
        assert run["failed"] == 0
        assert rows_of(second["store"]) == direct_rows(clean)

    def test_graceful_shutdown_requeues_in_flight_run(self, state_dir):
        master = Master(state_dir=state_dir, service=ExecutionService())
        master.start()
        spec = sleep_spec(n=20, sleep_s=0.05)
        with ServeClient(master.socket_path) as client:
            submitted = client.submit(spec.to_dict())
            rid = submitted["rid"]
            wait_for(
                lambda: client.status(rid)["run"]["completed"] >= 2,
                message="points landing")
        master.stop()
        record = RunRegistry(state_dir).load(rid)
        assert record.state == "queued"     # not lost, not done
        assert 0 < record.completed < len(spec.points)
        assert len(rows_of(submitted["store"])) == record.completed

    def test_restarted_master_resumes_same_rid(self, state_dir):
        first = Master(state_dir=state_dir, service=ExecutionService())
        first.start()
        spec = sleep_spec(n=16, sleep_s=0.05)
        with ServeClient(first.socket_path) as client:
            submitted = client.submit(spec.to_dict())
            rid = submitted["rid"]
            wait_for(
                lambda: client.status(rid)["run"]["completed"] >= 2,
                message="points landing")
        first.stop()
        partial = len(rows_of(submitted["store"]))
        assert 0 < partial < len(spec.points)

        second = Master(state_dir=state_dir, service=ExecutionService())
        recovered = second.start()
        try:
            assert [r.rid for r in recovered] == [rid]
            with ServeClient(second.socket_path) as client:
                run = wait_state(client, rid, ("done",))
                assert run["completed"] == len(spec.points)
                assert run["resumed"] >= partial
                # a fresh submit never reuses the old rid
                again = client.submit(echo_spec(n=1).to_dict())
                assert again["rid"] == rid + 1
        finally:
            second.stop()
        assert rows_of(submitted["store"]) == direct_rows(spec)

    def test_shutdown_rpc_stops_serving(self, state_dir):
        master = Master(state_dir=state_dir, service=ExecutionService())
        master.start()
        try:
            with ServeClient(master.socket_path) as client:
                reply = client.shutdown()
                assert reply["stopping"] is True
            wait_for(lambda: master._shutdown.is_set(),
                     message="shutdown flag")
        finally:
            master.stop()


@pytest.mark.slow
class TestMasterSubprocess:
    """The full acceptance drill with a real daemon process: SIGTERM
    mid-campaign, restart, resume completes under the same rid."""

    def spawn(self, state_dir):
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", state_dir],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), env=env)
        socket_path = os.path.join(state_dir, "serve.sock")
        wait_for(lambda: os.path.exists(socket_path), timeout=60.0,
                 message="master socket")
        return process, socket_path

    def test_sigterm_restart_resume(self, state_dir):
        # Enough points that the run cannot race to completion in
        # the gap between "first point landed" and SIGTERM delivery.
        spec = CampaignSpec.grid(
            "accept", workloads=("dedup", "hmmer"),
            seeds=(0, 1, 2, 3, 4, 5),
            instructions=SMALL, configs=[{"cores": 2}])
        process, socket_path = self.spawn(state_dir)
        try:
            with ServeClient(socket_path, timeout=120.0) as client:
                submitted = client.submit(spec.to_dict())
                rid = submitted["rid"]
                wait_for(
                    lambda: client.status(rid)["run"]["completed"] >= 1,
                    timeout=120.0, message="first point")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        record = RunRegistry(state_dir).load(rid)
        assert record.state == "queued"
        partial = len(rows_of(submitted["store"]))
        assert partial >= 1

        process, socket_path = self.spawn(state_dir)
        try:
            with ServeClient(socket_path, timeout=120.0) as client:
                run = wait_state(client, rid, ("done",),
                                 timeout=120.0)
                assert run["completed"] == len(spec.points)
                assert run["failed"] == 0
                assert run["resumed"] >= partial
                client.shutdown()
            assert process.wait(timeout=60.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert rows_of(submitted["store"]) == direct_rows(spec)


# -- no process outlives its owner ------------------------------------------


def child_pids():
    """Every live or unreaped process whose parent is this one."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesized command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs a /proc process table")
class TestNoProcessOutlives:
    """Shutting down a pool, a service or a serve fleet returns only
    once every process it started is reaped — on failed runs too."""

    def assert_no_new_children(self, before):
        """Neither ``multiprocessing`` nor the process table knows a
        child that was not already there (earlier tests may keep a
        pool of their own alive)."""
        import multiprocessing

        assert {proc.pid for proc in multiprocessing.active_children()} \
            <= before
        assert child_pids() <= before

    def test_pool_close_reaps_a_shard_that_ignores_sigterm(self):
        from types import SimpleNamespace

        from repro.campaign.pool import WorkerPool

        before = child_pids()
        pool = WorkerPool(1)
        point = CampaignPoint(task="serve_stubborn", workload="w",
                              instructions=100, seed=0)

        class OneUnit:
            leased = False

            def lease(self, owner):
                if self.leased:
                    return None
                self.leased = True
                return SimpleNamespace(chunk_id=0, epoch=0,
                                       pairs=[(0, point)])

            def record(self, chunk_id, epoch, row):
                pass

        pool.start_epoch()
        pool.pump(OneUnit(), SimpleNamespace(campaign_name="stubborn",
                                             timeout_s=None), 0.5)
        pool.close(join_timeout=0.5)
        self.assert_no_new_children(before)

    def test_service_shutdown_reaps_its_pool(self):
        before = child_pids()
        service = ExecutionService()
        try:
            result = service.run_campaign(echo_spec(n=4), jobs=2)
            assert result.all_ok
            assert service.pool_info()["jobs"] == 2
        finally:
            service.shutdown()
        self.assert_no_new_children(before)

    def test_master_and_runner_stop_after_a_failed_run(self, state_dir):
        import repro

        before = child_pids()
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        master = Master(state_dir=state_dir, service=ExecutionService(),
                        runners="127.0.0.1:0")
        master.start()
        runner = None
        try:
            runner = subprocess.Popen(
                [sys.executable, "-m", "repro", "runner", "--connect",
                 master.runner_server.address, "--name", "reap",
                 "--poll", "0.02", "--no-reconnect"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            assert master.hub.wait_for(1, timeout_s=60.0) >= 1, \
                "the runner never registered"
            spec = CampaignSpec(name="doomed", points=[
                CampaignPoint(task="inject", workload="nosuchload",
                              instructions=SMALL, seed=seed)
                for seed in range(4)])
            with ServeClient(master.socket_path) as client:
                submitted = client.submit(spec.to_dict(), jobs=2)
                run = wait_state(client, submitted["rid"], ("done",),
                                 timeout=60.0)
            assert run["failed"] == len(spec.points)
        finally:
            master.stop()
            if runner is not None:
                try:
                    # --no-reconnect: the runner leaves on its own
                    # once the master's port is gone.
                    runner.wait(timeout=60.0)
                finally:
                    if runner.poll() is None:
                        runner.kill()
                        runner.wait()
        assert runner.returncode is not None
        self.assert_no_new_children(before)

    def test_serve_stop_leaves_no_runner_or_master(self, state_dir):
        """``serve --stop`` says bye to the runners on both ports: the
        master and both runners (no ``--idle-exit``) exit 0 on their
        own, and nothing is left to reap."""
        before = child_pids()
        env = dict(os.environ, PYTHONPATH="src")
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def repro(*args):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", *args], env=env, cwd=cwd,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        procs = [repro("serve", "--runners", "127.0.0.1:0",
                       "--state-dir", state_dir)]
        try:
            contact = wait_for(lambda: read_contact(state_dir),
                               timeout=60.0, message="master contact")
            procs += [repro("runner", "--connect", contact["runners"],
                            "--name", "tcp"),
                      repro("runner", "--connect", contact["socket"],
                            "--name", "unix")]
            with ServeClient(contact["socket"], timeout=30.0) as client:
                wait_for(lambda: {r["name"] for r in
                                  client.hello()["runners"]
                                  if r["alive"]} >= {"tcp", "unix"},
                         timeout=60.0, message="both runners")
            stop = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--stop",
                 "--state-dir", state_dir], env=env, cwd=cwd,
                capture_output=True, timeout=60.0)
            assert stop.returncode == 0, stop.stderr
            assert [proc.wait(timeout=10.0) for proc in procs] \
                == [0, 0, 0]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.assert_no_new_children(before)
