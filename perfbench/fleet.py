"""Fleets the workloads run on, and what one campaign run observed.

:class:`PoolFleet` is the ``repro inject``/``campaign`` path: a warm
:class:`~repro.perf.service.ExecutionService` in the benchmark process
with a forked pool, a result store, live status and ``coverage.json``.
:class:`ServeFleet` is ``repro serve --runners`` with loopback
``repro runner`` processes and no local shards, driven by a
:class:`~repro.serve.client.ServeClient` in the benchmark process.
Both start their subprocesses through ``boot.py`` so a traced run can
install the layer wrappers in them.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT = os.path.join(HERE, "boot.py")

#: Per-point wall budget handed to the executor: a hung point becomes a
#: failed row instead of a stuck run.
POINT_TIMEOUT_S = 60.0


@dataclass
class CampaignRun:
    """What the benchmark saw of one campaign, in host seconds."""

    k: int
    rows: list
    coverage: bytes
    start: float
    first_row: float
    last_row: float
    end: float
    queue_wait: float = 0.0
    error: str = None
    #: Host slowness around this campaign (see calc.host_slowness).
    slowness: float = 1.0

    @property
    def first_row_s(self):
        """Time to first row, in nominal-host seconds."""
        return (self.first_row - self.start) / self.slowness


def _read_rows(path):
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_coverage(store_path):
    from repro.analysis.coverage import coverage_path_for
    path = coverage_path_for(store_path)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def peak_rss_mb(pids):
    """Largest VmHWM (peak resident set) among ``pids``, in MB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    if peak_kb == 0:  # no procfs: this process's own peak
        import resource
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak_kb / 1024.0


def _stop(proc, timeout_s=15.0):
    """Wait for ``proc``; terminate, then kill, if it lingers."""
    for action in (None, proc.terminate, proc.kill):
        if action is not None:
            action()
        try:
            proc.wait(timeout=timeout_s)
            return
        except subprocess.TimeoutExpired:
            continue


def probe_pool_setup(jobs, env):
    """Seconds from a fresh interpreter to a warm pool that answered
    a lease (``boot.py probe-pool``)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, BOOT, "probe-pool", str(jobs)],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"pool set-up probe failed (exit "
                           f"{proc.returncode})")
    return elapsed


class PoolFleet:
    """The local forked pool, in this process."""

    def __init__(self, jobs):
        from repro.perf.service import ExecutionService
        self.jobs = jobs
        self.service = ExecutionService()
        self.service.warm()
        self.pool = self.service.pool(jobs)

    def pids(self):
        return [os.getpid()] + (self.pool.pids if self.pool else [])

    def run(self, k, spec, store_path, deadline):
        from repro.campaign import CampaignAborted, ResultStore
        from repro.obs.live import attach_live

        marks = []

        def progress(result):
            marks.append(time.perf_counter())

        error = None
        start = time.perf_counter()
        try:
            with ResultStore(path=store_path) as store:
                live = attach_live(spec, jobs=self.jobs, store=store)
                self.service.run_campaign(
                    spec, jobs=self.jobs, store=store, live=live,
                    progress=progress, point_timeout_s=POINT_TIMEOUT_S,
                    abort=lambda: time.perf_counter() > deadline)
        except CampaignAborted as exc:
            error = f"aborted at the run deadline: {exc}"
        end = time.perf_counter()
        return CampaignRun(
            k=k, rows=_read_rows(store_path),
            coverage=_read_coverage(store_path), start=start,
            first_row=marks[0] if marks else end,
            last_row=marks[-1] if marks else end, end=end, error=error)

    def close(self):
        self.service.shutdown()


class ServeFleet:
    """``repro serve --runners`` plus ``runners`` loopback runners."""

    def __init__(self, workdir, env, runners):
        self.workdir = workdir
        self.env = env
        self.runners = runners
        self.master = None
        self.runner_procs = []
        self.client = None
        state_dir = os.path.join(workdir, "serve")
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        # A relative socket path keeps under the AF_UNIX length limit
        # however deep the checkout is.
        sock = os.path.join(state_dir, "s.sock")
        rel = os.path.relpath(sock)
        self.socket = rel if len(rel) < len(sock) else sock
        self._logs = []

    def _spawn(self, args, log_name):
        log = open(os.path.join(self.workdir, log_name), "w",
                   encoding="utf-8")
        self._logs.append(log)
        return subprocess.Popen([sys.executable, BOOT] + args, env=self.env,
                                stdout=log, stderr=subprocess.STDOUT)

    def start(self, timeout_s=60.0):
        """Start master and runners; returns seconds until the fleet
        can lease (every runner registered)."""
        from repro.serve.client import ServeClient, server_available

        start = time.perf_counter()
        deadline = start + timeout_s
        self.master = self._spawn(
            ["serve", "--runners", "127.0.0.1:0", "--state-dir",
             self.state_dir, "--socket", self.socket], "master.log")
        while not server_available(self.socket, timeout=0.5):
            if (self.master.poll() is not None
                    or time.perf_counter() > deadline):
                raise RuntimeError("serve master did not come up")
            time.sleep(0.01)
        self.client = ServeClient(self.socket, timeout=30.0)
        address = self.client.hello()["runner_port"]
        for i in range(self.runners):
            self.runner_procs.append(self._spawn(
                ["runner", "--connect", address, "--name", f"runner{i}",
                 "--no-reconnect"], f"runner{i}.log"))
        while True:
            alive = [r for r in self.client.hello()["runners"] if r["alive"]]
            if len(alive) >= self.runners:
                return time.perf_counter() - start
            if time.perf_counter() > deadline or any(
                    p.poll() is not None for p in self.runner_procs):
                raise RuntimeError("runners did not register")
            time.sleep(0.01)

    def pids(self):
        return [os.getpid(), self.master.pid] + [
            p.pid for p in self.runner_procs]

    def run(self, k, spec, store_path, deadline):
        from repro.serve.client import ServeError

        start = time.perf_counter()
        first = last = running = None
        error = None
        try:
            submitted = self.client.submit(spec.to_dict(), stream=True,
                                           out=os.path.abspath(store_path))
            submitted_at = time.perf_counter()
            for event in self.client.events(rid=submitted["rid"]):
                now = time.perf_counter()
                if event["event"] == "point":
                    first = first or now
                    last = now
                elif event["state"] == "running":
                    running = now
                elif event["state"] != "done":
                    error = f"run ended {event['state']}: {event.get('error')}"
                if now > deadline:
                    error = "run deadline passed"
                    break
        except ServeError as exc:
            error = f"serve: {exc}"
            submitted_at = start
        end = time.perf_counter()
        return CampaignRun(
            k=k, rows=_read_rows(store_path),
            coverage=_read_coverage(store_path), start=start,
            first_row=first or end, last_row=last or end, end=end,
            queue_wait=(running or end) - submitted_at, error=error)

    def close(self):
        from repro.serve.client import ServeError
        if self.client is not None:
            try:
                self.client.shutdown()
            except (OSError, ServeError):
                pass
            self.client.close()
        for proc in [self.master] + self.runner_procs:
            if proc is not None:
                _stop(proc)
        for log in self._logs:
            log.close()
