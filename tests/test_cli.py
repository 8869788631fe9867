"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "hmmer"])
        assert args.cores == 4
        assert args.fabric == "f2"

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "mcf", "--cores", "6", "--fabric", "axi"])
        assert args.cores == 6
        assert args.fabric == "axi"

    def test_bad_fabric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mcf", "--fabric", "pcie"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "tab3"])
        assert args.name == "tab3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and "mcf" in out

    def test_run_small(self, capsys):
        code = main(["run", "hmmer", "--instructions", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowdown" in out
        assert "all verified    : True" in out

    def test_inject_small(self, capsys):
        code = main(["inject", "dedup", "--instructions", "4000",
                     "--trials", "1", "--rate", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injections" in out

    def test_figure_tab3(self, capsys):
        assert main(["figure", "tab3"]) == 0
        assert "25.8%" in capsys.readouterr().out


class TestBatch:
    def test_batch_parses(self):
        args = build_parser().parse_args(["batch", "-", "--keep-going"])
        assert args.command == "batch" and args.keep_going

    def test_batch_runs_commands_in_one_process(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "list\n"
            "repro run hmmer --instructions 2000\n")
        assert main(["batch", str(script)]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out          # from `list`
        assert "slowdown" in out           # from `run`
        assert "2 command(s), 0 failed" in out

    def test_batch_stops_on_failure_without_keep_going(self, tmp_path,
                                                       capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("definitely-not-a-command\nlist\n")
        assert main(["batch", str(script)]) == 1
        out = capsys.readouterr().out
        assert "swaptions" not in out      # second line never ran

    def test_batch_keep_going_runs_rest(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("definitely-not-a-command\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert "1 failed" in out

    def test_batch_malformed_line_is_counted_failure(self, tmp_path,
                                                     capsys):
        """An unbalanced quote must be a per-line failure (honouring
        --keep-going), never an uncaught shlex traceback."""
        script = tmp_path / "cmds.txt"
        script.write_text('run swaptions --note "oops\nlist\n')
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out  # the good line still ran
        assert "1 failed" in out

    def test_batch_handler_exception_is_counted_failure(self, tmp_path,
                                                        capsys):
        """A command whose handler raises (e.g. unknown workload ->
        ConfigError) fails that line only; --keep-going proceeds."""
        script = tmp_path / "cmds.txt"
        script.write_text("run nosuchworkload --instructions 100\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out  # `list` still ran
        assert "2 command(s), 1 failed" in out

    def test_batch_rejects_nesting(self, tmp_path):
        inner = tmp_path / "inner.txt"
        inner.write_text("list\n")
        outer = tmp_path / "outer.txt"
        outer.write_text(f"batch {inner}\n")
        assert main(["batch", str(outer)]) == 1

    def test_batch_missing_file(self, capsys):
        assert main(["batch", "/no/such/command/file"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestWatchCommand:
    def test_watch_parses(self):
        args = build_parser().parse_args(
            ["watch", "r.jsonl", "--once", "--interval", "0.5"])
        assert args.command == "watch"
        assert args.once and args.interval == 0.5

    def test_watch_once_on_finished_campaign(self, tmp_path, capsys):
        """campaign --out publishes status.json; watch --once reads it."""
        out = tmp_path / "results.jsonl"
        assert main(["campaign", "--workloads", "hmmer", "--seeds", "0",
                     "--instructions", "2000", "--out", str(out)]) == 0
        assert (tmp_path / "results.jsonl.status.json").exists()
        capsys.readouterr()
        assert main(["watch", "--once", str(out)]) == 0
        view = capsys.readouterr().out
        assert "finished" in view
        assert "points    : 2/2" in view
        assert "instrs" in view

    def test_watch_once_in_flight_sharded_campaign(self, tmp_path):
        """The acceptance path: a sharded campaign is *running* in
        another process while `repro watch --once` renders its live
        percentiles/throughput/shard table from status.json."""
        import os
        import subprocess
        import sys
        import time

        import repro
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        out = tmp_path / "inflight.jsonl"
        status = tmp_path / "inflight.jsonl.status.json"
        argv = [sys.executable, "-m", "repro", "campaign",
                "--workloads", "hmmer,dedup", "--seeds", "0,1",
                "--task", "inject", "--trials", "4",
                "--instructions", "4000", "--jobs", "2",
                "--out", str(out)]
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not status.exists() and time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert status.exists(), "campaign never published status.json"
            watched = subprocess.run(
                [sys.executable, "-m", "repro", "watch", "--once",
                 str(out)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=60.0)
            assert watched.returncode == 0, watched.stderr.decode()
            view = watched.stdout.decode()
            assert "campaign cli —" in view
            assert "points    :" in view
            assert "rate      :" in view
        finally:
            assert proc.wait(timeout=120.0) == 0

    def test_watch_missing_path_fails(self, tmp_path, capsys):
        assert main(["watch", "--once", "--wait", "0",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "watch:" in capsys.readouterr().err


class TestBenchTrend:
    def test_trend_flags_parse(self):
        args = build_parser().parse_args(["bench", "--trend"])
        assert args.trend and args.history.endswith("BENCH_history.jsonl")

    def test_trend_empty_history(self, tmp_path, capsys):
        assert main(["bench", "--trend", "--history",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "no history" in capsys.readouterr().out

    def test_trend_renders_recorded_runs(self, tmp_path, capsys):
        from repro.perf.history import append_history

        history = tmp_path / "hist.jsonl"
        for meek in (2.0, 2.2, 1.9):
            result = {"workloads": {"hmmer": {"meek": {
                          "instrs_per_s": 100_000.0 * meek}}},
                      "kernels": {"meek_speedup": meek,
                                  "vanilla_speedup": 2.4},
                      "config": {"instructions": 20_000, "cores": 4}}
            append_history(result, path=str(history), sha="abc1234")
        assert main(["bench", "--trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "kernels/meek_speedup" in out
        assert "hmmer/meek/instrs_per_s" in out
        assert "+" in out or "-" in out  # the change column rendered

    def test_trend_gate_fails_on_declining_history(self, tmp_path):
        """The gate as CI runs it — a fresh ``python -m repro bench
        --trend`` process — exits 1 on a sustained decline."""
        import os
        import subprocess
        import sys

        import repro
        from repro.perf.history import append_history

        history = tmp_path / "declining.jsonl"
        for speedup in (2.0, 1.8, 1.6, 1.4, 1.2):
            append_history({"kernels": {"meek_speedup": speedup},
                            "config": {"instructions": 20_000, "cores": 4}},
                           path=str(history), sha="abc1234")
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--trend",
             "--history", str(history)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DECLINING   : kernels/meek_speedup" in proc.stdout


# -- the serve family: serve / submit / queue / cancel / watch-by-rid ------


class TestServeParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--jobs", "4", "--state-dir", "/tmp/sd",
             "--socket", "/tmp/sd/s.sock", "--events", "ev.jsonl"])
        assert args.command == "serve"
        assert args.jobs == 4 and not args.stop
        assert args.state_dir == "/tmp/sd"

    def test_serve_stop_flag(self):
        args = build_parser().parse_args(["serve", "--stop"])
        assert args.stop

    def test_submit_shares_campaign_grid_flags(self):
        args = build_parser().parse_args(
            ["submit", "--workloads", "dedup,hmmer", "--seeds", "0,1",
             "--cores", "2,4", "--priority", "5", "--detach",
             "--jobs", "2"])
        assert args.command == "submit"
        assert args.workloads == ["dedup", "hmmer"]
        assert args.cores == [2, 4]
        assert args.priority == 5 and args.detach

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "--spec", "s.json"])
        assert args.priority == 0
        assert not args.detach
        assert args.socket is None and args.state_dir is None

    def test_queue_parses(self):
        args = build_parser().parse_args(["queue", "--socket", "/tmp/x"])
        assert args.command == "queue" and args.socket == "/tmp/x"

    def test_cancel_rid_and_modes(self):
        args = build_parser().parse_args(["cancel", "7", "--pause"])
        assert args.rid == 7 and args.pause and not args.requeue
        with pytest.raises(SystemExit):  # mutually exclusive
            build_parser().parse_args(["cancel", "7", "--pause",
                                       "--requeue"])

    def test_watch_takes_serve_flags(self):
        args = build_parser().parse_args(
            ["watch", "3", "--state-dir", "/tmp/sd", "--once"])
        assert args.path == "3" and args.state_dir == "/tmp/sd"

    def test_batch_rejects_serve_line(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("serve --jobs 2\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr()
        assert "start the master outside the batch" in out.err
        assert "swaptions" in out.out  # the rest of the batch still ran

    def test_batch_jobs_flag_parses(self):
        args = build_parser().parse_args(["batch", "x.txt",
                                          "--jobs", "4"])
        assert args.jobs == 4

    def test_batch_jobs_fans_out_and_replays_in_order(self, tmp_path,
                                                      capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("# comment\nlist\nlist\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("swaptions") >= 2
        assert "2 command(s), 0 failed" in out

    def test_batch_jobs_counts_failures(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("list\nrun nosuchworkload\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 1
        out = capsys.readouterr()
        assert "1 failed" in out.out

    def test_batch_jobs_blocks_runner_lines(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("runner --connect 127.0.0.1:9\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 1
        assert "cannot run inside a batch" in capsys.readouterr().err

    def test_runner_parser_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runner"])
        args = build_parser().parse_args(
            ["runner", "--connect", "host:7100", "--name", "r1",
             "--max-chunks", "3", "--idle-exit", "5"])
        assert args.connect == "host:7100" and args.name == "r1"
        assert args.max_chunks == 3 and args.idle_exit == 5.0

    def test_runner_without_master_fails_cleanly(self, capsys):
        code = main(["runner", "--connect", "127.0.0.1:1",
                     "--no-reconnect"])
        assert code == 2
        assert "runner:" in capsys.readouterr().err

    def test_campaign_runner_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--workloads", "dedup", "--runners", "7100",
             "--min-runners", "2", "--runner-wait", "5"])
        assert args.runners == "7100"
        assert args.min_runners == 2 and args.runner_wait == 5.0


class TestEventsSummarize:
    def _log(self, tmp_path):
        from repro.obs.events import EventLog

        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("campaign_start", campaign="c", points=2, pending=2,
                 resumed=0)
        log.emit("chunk_lease", worker=0, chunk=0, points=2)
        log.emit("point_complete", worker=0, point_id="p/slow",
                 ok=True, elapsed_s=0.5)
        log.emit("point_complete", worker=0, point_id="p/fast",
                 ok=False, elapsed_s=0.1)
        log.emit("campaign_end", campaign="c", dur_s=0.7, failed=1)
        return path

    def test_summarize_reports_all_sections(self, tmp_path, capsys):
        path = self._log(tmp_path)
        assert main(["events", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "wall time by phase" in out
        assert "campaigns" in out and "shards and runners" in out
        assert "chunks    : 1 lease(s), 2 point(s)" in out
        assert "p/slow" in out and "FAIL" in out

    def test_top_limits_the_slowest_table(self, tmp_path, capsys):
        path = self._log(tmp_path)
        assert main(["events", "summarize", path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "slowest 1 point(s)" in out
        assert "p/fast" not in out  # only the slowest survives

    def test_empty_log_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["events", "summarize", str(empty)]) == 2
        assert "no events" in capsys.readouterr().err


class TestServeCommands:
    @pytest.fixture()
    def serve_env(self, monkeypatch):
        import tempfile

        from repro.perf.service import ExecutionService
        from repro.serve.master import Master

        state_dir = tempfile.mkdtemp(prefix="sc", dir="/tmp")
        monkeypatch.setenv("REPRO_SERVE_DIR", state_dir)
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        master = Master(state_dir=state_dir, service=ExecutionService())
        master.start()
        yield master
        master.stop()

    def spec_file(self, tmp_path, n=3):
        import json

        from repro.campaign import task

        @task("cli_serve_echo")
        def _cli_serve_echo(point, campaign_name=""):
            return {"value": point.seed + 1}

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-serve", "points": [
                {"task": "cli_serve_echo", "workload": "w",
                 "instructions": 100, "seed": seed}
                for seed in range(n)]}))
        return str(path)

    def test_submit_streams_rows_and_summary(self, serve_env, tmp_path,
                                             capsys):
        assert main(["submit", "--spec",
                     self.spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "submitted run 1: cli-serve (3 points" in out
        assert "3/3 ok" in out

    def test_submit_detach_just_prints_rid(self, serve_env, tmp_path,
                                           capsys):
        assert main(["submit", "--detach", "--spec",
                     self.spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "submitted run 1" in out
        assert "ok" not in out  # no summary: we did not wait

    def test_queue_lists_runs_after_submit(self, serve_env, tmp_path,
                                           capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["queue"]) == 0
        out = capsys.readouterr().out
        assert "cli-serve" in out and "done" in out
        assert "master pid" in out

    def test_cancel_finished_run_is_bad_state(self, serve_env, tmp_path,
                                              capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cancel", "1"]) == 2
        assert "bad_state" in capsys.readouterr().err

    def test_cancel_unknown_rid_not_found(self, serve_env, capsys):
        assert main(["cancel", "99"]) == 2
        assert "not_found" in capsys.readouterr().err

    def test_watch_rid_live_over_socket(self, serve_env, tmp_path,
                                        capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["watch", "1", "--once"]) == 0
        view = capsys.readouterr().out
        assert "run 1" in view and "cli-serve" in view

    def test_watch_rid_falls_back_to_store_after_master_dies(
            self, serve_env, tmp_path, capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        serve_env.stop()                     # master gone; store remains
        capsys.readouterr()
        assert main(["watch", "1", "--once", "--wait", "2"]) == 0
        view = capsys.readouterr().out
        assert "cli-serve" in view
        assert "points    : 3/3" in view

    def test_watch_unknown_rid_fails_cleanly(self, serve_env, capsys):
        assert main(["watch", "42", "--once", "--wait", "0"]) == 2
        assert "42" in capsys.readouterr().err

    def test_submit_without_master_fails_cleanly(self, monkeypatch,
                                                 tmp_path, capsys):
        import tempfile

        monkeypatch.setenv("REPRO_SERVE_DIR",
                           tempfile.mkdtemp(prefix="nm", dir="/tmp"))
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        assert main(["submit", "--spec",
                     self.spec_file(tmp_path)]) == 2
        assert "no master" in capsys.readouterr().err

    def test_serve_stop_without_master_fails_cleanly(self, monkeypatch,
                                                     capsys):
        import tempfile

        monkeypatch.setenv("REPRO_SERVE_DIR",
                           tempfile.mkdtemp(prefix="nm", dir="/tmp"))
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        assert main(["serve", "--stop"]) == 2
        assert "cannot stop" in capsys.readouterr().err

    def test_serve_stop_shuts_down_live_master(self, serve_env, capsys):
        assert main(["serve", "--stop"]) == 0
        out = capsys.readouterr().out
        assert "shutdown requested" in out
        import time

        deadline = time.monotonic() + 10.0
        while (not serve_env._shutdown.is_set()
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert serve_env._shutdown.is_set()

    def test_submit_bad_spec_is_rejected_before_rid(self, serve_env,
                                                    tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["submit", "--spec", str(bad)]) == 2
        assert "bad spec" in capsys.readouterr().err
        assert serve_env.scheduler.counter.value == 0


class TestWatchAbortedState:
    def test_watch_treats_aborted_as_terminal(self, tmp_path):
        import io

        from repro.obs.live import LiveStatus
        from repro.obs.watch import watch

        status = tmp_path / "status.json"
        live = LiveStatus("abandoned", total=5, path=str(status))
        live.publish(force=True)
        live.aborted()
        stream = io.StringIO()
        # not --once: the loop must still return because "aborted"
        # is terminal (a hang here is the regression)
        assert watch(str(status), interval_s=0.01, once=False,
                     stream=stream, max_wait_s=1.0) == 0
        assert "aborted" in stream.getvalue()

    def test_render_snapshot_shows_rid(self):
        from repro.obs.watch import render_snapshot

        view = render_snapshot({"campaign": "c", "state": "running",
                                "rid": 9, "points": {"total": 4},
                                "updated_unix": 0.0}, now_unix=1.0)
        assert view.splitlines()[0].startswith("run 9 · campaign c")


#: The execution flags ``inject``, ``figure``, ``campaign`` and
#: ``difftest`` share:
#: (argv that sets the flag, dest, default, value parsed from that argv).
EXEC_FLAGS = [
    (["--jobs", "3"], "jobs", None, 3),
    (["--out", "r.jsonl"], "out", None, "r.jsonl"),
    (["--resume"], "resume", False, True),
    (["--status", "s.json"], "status", None, "s.json"),
    (["--events", "e.jsonl"], "events", None, "e.jsonl"),
    (["--progress"], "progress", False, True),
    (["--batch", "8"], "batch", None, "8"),
    (["--point-timeout", "2.5"], "point_timeout", None, 2.5),
    (["--runners", "7100"], "runners", None, "7100"),
    (["--min-runners", "2"], "min_runners", 1, 2),
    (["--runner-wait", "5"], "runner_wait", 60.0, 5.0),
    (["--lease-timeout", "9"], "lease_timeout", 60.0, 9.0),
]
_EXEC_DEFAULTS = {dest: default for _, dest, default, _ in EXEC_FLAGS}
_GRID_DEFAULTS = {
    "spec": None, "name": "cli", "task": "meek", "workloads": [],
    "seeds": [0], "instructions": 20_000, "cores": [4], "fabric": ["f2"],
    "trials": 3, "rate": 0.008, "fault_model": None, "fault_targets": None,
}
_SERVE_CLIENT_DEFAULTS = {"socket": None, "state_dir": None}

#: Each command's ``vars(Namespace)`` less ``command`` and the
#: arguments :data:`PINNED_ARGV` always gives it (positionals,
#: ``runner --connect``).
COMMAND_DEFAULTS = {
    "run": {"instructions": 20_000, "cores": 4, "fabric": "f2", "seed": 0},
    "inject": {"instructions": 15_000, "trials": 2, "rate": 0.008,
               "seed": 0, "cores": 4, "fabric": "f2", "fault_model": None,
               "fault_targets": None, **_EXEC_DEFAULTS},
    "campaign": {**_GRID_DEFAULTS, **_EXEC_DEFAULTS},
    "difftest": {"programs": 50, "seed": 0, "shrink": False,
                 "self_check": False, "instructions": 10_000,
                 "artifacts": "artifacts/difftest", **_EXEC_DEFAULTS},
    "bench": {"workloads": ["swaptions", "mcf", "streamcluster"],
              "instructions": 20_000, "seed": 0, "cores": 4, "repeat": 3,
              "figures": ["fig7"], "figure_instructions": 2_000,
              "skip_figures": False, "skip_kernels": False,
              "skip_warm_start": False, "skip_campaign": False,
              "campaign_jobs": 2, "skip_batch_kernel": False,
              "out": "BENCH_perf.json", "baseline": "BENCH_perf.json",
              "check": False, "tolerance": 0.5, "kernel_tolerance": 0.5,
              "history": "benchmarks/BENCH_history.jsonl", "trend": False,
              "trend_last": 20, "trend_window": 6,
              "trend_tolerance": 0.15},
    "batch": {"keep_going": False, "jobs": None},
    "watch": {"interval": 1.0, "once": False, "wait": 10.0,
              **_SERVE_CLIENT_DEFAULTS},
    "coverage": {},
    "runner": {"name": None, "poll": 0.5, "retry": 30.0,
               "no_reconnect": False, "max_chunks": None,
               "idle_exit": None, "heartbeat": 10.0, "events": None},
    "serve": {"stop": False, "jobs": None, "events": None, "runners": None,
              "lease_timeout": 60.0, **_SERVE_CLIENT_DEFAULTS},
    "submit": {**_GRID_DEFAULTS, "jobs": None, "point_timeout": None,
               "progress": False, "priority": 0, "out": None,
               "detach": False, **_SERVE_CLIENT_DEFAULTS},
    "queue": dict(_SERVE_CLIENT_DEFAULTS),
    "cancel": {"pause": False, "requeue": False, **_SERVE_CLIENT_DEFAULTS},
}

_INJECT_CI = ("inject dedup --trials 3 --rate 0.02 --instructions 4000 "
              "--jobs 2 --fault-model burst:width=3 --fault-targets all ")
_INJECT_CI_SET = {"workload": "dedup", "trials": 3, "rate": 0.02,
                  "instructions": 4000, "jobs": 2,
                  "fault_model": "burst:width=3", "fault_targets": "all",
                  "out": "artifacts/obs/coverage_results.jsonl"}
_GRID_CI = ("campaign --task inject --workloads dedup,hmmer --seeds 0,1 "
            "--trials 4 --instructions 30000 --rate 0.02 ")
_GRID_CI_SET = {"task": "inject", "workloads": ["dedup", "hmmer"],
                "seeds": [0, 1], "trials": 4, "instructions": 30_000,
                "rate": 0.02}

#: Every ``repro`` line the CI workflow runs and the two that start
#: perfbench's serve-fleet (shell variables replaced by placeholders),
#: with the keys it sets away from :data:`COMMAND_DEFAULTS`.  Pinned so
#: that no flag these scripts use changes its name, dest or default.
PINNED_ARGV = [
    ("serve --runners 127.0.0.1:0 --state-dir D --socket S",
     {"runners": "127.0.0.1:0", "state_dir": "D", "socket": "S"}),
    ("runner --connect A --name runner0 --no-reconnect",
     {"connect": "A", "name": "runner0", "no_reconnect": True}),
    ("run swaptions --instructions 2000",
     {"workload": "swaptions", "instructions": 2000}),
    ("bench --check --tolerance 0.8 --kernel-tolerance 0.5 "
     "--out BENCH_perf_current.json",
     {"check": True, "tolerance": 0.8, "out": "BENCH_perf_current.json"}),
    ("bench --trend", {"trend": True}),
    ("difftest --programs 50 --seed 7 --jobs 4 "
     "--out artifacts/obs/difftest_results.jsonl "
     "--events artifacts/obs/difftest_events.jsonl",
     {"programs": 50, "seed": 7, "jobs": 4,
      "out": "artifacts/obs/difftest_results.jsonl",
      "events": "artifacts/obs/difftest_events.jsonl"}),
    ("difftest --self-check", {"self_check": True}),
    ("batch -", {"file": "-"}),
    ("campaign --task inject --workloads dedup,hmmer --seeds 0,1 "
     "--trials 2 --instructions 4000 --jobs 2 "
     "--out artifacts/obs/campaign_results.jsonl "
     "--events artifacts/obs/campaign_events.jsonl",
     {"task": "inject", "workloads": ["dedup", "hmmer"], "seeds": [0, 1],
      "trials": 2, "instructions": 4000, "jobs": 2,
      "out": "artifacts/obs/campaign_results.jsonl",
      "events": "artifacts/obs/campaign_events.jsonl"}),
    ("watch --once artifacts/obs/campaign_results.jsonl",
     {"once": True, "path": "artifacts/obs/campaign_results.jsonl"}),
    ("watch --once artifacts/obs/difftest_results.jsonl",
     {"once": True, "path": "artifacts/obs/difftest_results.jsonl"}),
    (_INJECT_CI + "--out artifacts/obs/coverage_results.jsonl",
     _INJECT_CI_SET),
    (_INJECT_CI + "--resume --out artifacts/obs/coverage_results.jsonl",
     {**_INJECT_CI_SET, "resume": True}),
    ("coverage artifacts/obs/coverage_results.jsonl",
     {"path": "artifacts/obs/coverage_results.jsonl"}),
    (_GRID_CI + "--jobs 1 --out DIST/serial.jsonl",
     {**_GRID_CI_SET, "jobs": 1, "out": "DIST/serial.jsonl"}),
    (_GRID_CI + "--jobs 1 --runners 7123 --min-runners 2 "
     "--runner-wait 120 --out DIST/dist.jsonl "
     "--events DIST/dist_events.jsonl",
     {**_GRID_CI_SET, "jobs": 1, "runners": "7123", "min_runners": 2,
      "runner_wait": 120.0, "out": "DIST/dist.jsonl",
      "events": "DIST/dist_events.jsonl"}),
    ("runner --connect 127.0.0.1:7123 --name victim",
     {"connect": "127.0.0.1:7123", "name": "victim"}),
    ("runner --connect 127.0.0.1:7123 --name survivor --idle-exit 10",
     {"connect": "127.0.0.1:7123", "name": "survivor", "idle_exit": 10.0}),
    (_GRID_CI + "--jobs 2 --out DIST/pool.jsonl "
     "--events DIST/pool_events.jsonl",
     {**_GRID_CI_SET, "jobs": 2, "out": "DIST/pool.jsonl",
      "events": "DIST/pool_events.jsonl"}),
    ("serve --runners 127.0.0.1:7124 --events SERVE/serve_events.jsonl",
     {"runners": "127.0.0.1:7124", "events": "SERVE/serve_events.jsonl"}),
    ("runner --connect 127.0.0.1:7124 --name tcp",
     {"connect": "127.0.0.1:7124", "name": "tcp"}),
    ("runner --connect SERVE/serve.sock --name unix",
     {"connect": "SERVE/serve.sock", "name": "unix"}),
    ("submit --workloads dedup,hmmer --seeds 0,1 --instructions 4000 "
     "--priority 1",
     {"workloads": ["dedup", "hmmer"], "seeds": [0, 1],
      "instructions": 4000, "priority": 1}),
    ("submit --detach --workloads swaptions --seeds 0,1,2 "
     "--instructions 4000",
     {"detach": True, "workloads": ["swaptions"], "seeds": [0, 1, 2],
      "instructions": 4000}),
    ("queue", {}),
    ("watch 1 --once", {"path": "1", "once": True}),
    ("cancel 2", {"rid": 2}),
    ("watch 2 --once --wait 30", {"path": "2", "once": True, "wait": 30.0}),
    (_GRID_CI + "--name ci-fleet --jobs 1 --out SERVE/serial.jsonl",
     {**_GRID_CI_SET, "name": "ci-fleet", "jobs": 1,
      "out": "SERVE/serial.jsonl"}),
    (_GRID_CI.replace("campaign", "submit")
     + "--name ci-fleet --out SERVE/fleet.jsonl",
     {**_GRID_CI_SET, "name": "ci-fleet", "out": "SERVE/fleet.jsonl"}),
    ("serve --stop", {"stop": True}),
]


class TestParserContract:
    @pytest.mark.parametrize("argv,dest,default,value", EXEC_FLAGS,
                             ids=[flag[0][0] for flag in EXEC_FLAGS])
    def test_execution_flag_on_every_preset(self, argv, dest, default,
                                            value):
        for preset in (["inject", "dedup"], ["figure", "tab3"],
                       ["campaign"], ["difftest"]):
            assert vars(build_parser().parse_args(preset))[dest] == default
            assert vars(build_parser().parse_args(preset + argv))[dest] \
                == value

    @pytest.mark.parametrize("line,changed", PINNED_ARGV,
                             ids=[line for line, _ in PINNED_ARGV])
    def test_pinned_namespace(self, line, changed):
        command = line.split()[0]
        expected = {"command": command, **COMMAND_DEFAULTS[command],
                    **changed}
        assert vars(build_parser().parse_args(line.split())) == expected


class TestCampaignFrontDoor:
    """``inject`` is a preset over the same engine path as
    ``campaign``: the same points give the same rows and the same
    ``coverage.json``, and every execution flag works on it."""

    INJECT = ["inject", "dedup", "--instructions", "4000", "--trials", "2",
              "--rate", "0.05"]

    @staticmethod
    def rows(path):
        from repro.campaign import ResultStore

        return {pid: (r.ok, r.metrics, r.error)
                for pid, r in ResultStore.load(str(path)).items()}

    def test_inject_matches_campaign_spec_and_resumes(self, tmp_path,
                                                      capsys):
        import json

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.INJECT + ["--out", str(a)]) == 0
        report = capsys.readouterr().out
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "inject-dedup", "points": [
            {"task": "inject", "workload": "dedup", "instructions": 4000,
             "seed": 0, "params": {"rate": 0.05, "trial": trial,
                                   "cores": 4, "fabric": "f2",
                                   "rng_key": f"cli/dedup/0/{trial}"}}
            for trial in range(2)]}))
        assert main(["campaign", "--spec", str(spec), "--out", str(b)]) == 0
        rows = self.rows(a)
        assert len(rows) == 2 and rows == self.rows(b)
        coverage = (tmp_path / "a.jsonl.coverage.json").read_bytes()
        assert coverage
        assert coverage == (tmp_path / "b.jsonl.coverage.json").read_bytes()

        store = a.read_bytes()
        capsys.readouterr()
        assert main(self.INJECT + ["--resume", "--out", str(a)]) == 0
        assert capsys.readouterr().out == report
        assert a.read_bytes() == store  # nothing re-ran or re-appended
        assert (tmp_path / "a.jsonl.coverage.json").read_bytes() == coverage
        status = json.loads(
            (tmp_path / "a.jsonl.status.json").read_text())["points"]
        assert status["resumed"] == 2 and status["completed"] == 0

    def test_inject_resume_needs_out(self, capsys):
        assert main(self.INJECT + ["--resume"]) == 2
        assert "inject: --resume needs --out" in capsys.readouterr().err


class TestFigureFrontDoor:
    """``figure`` is a preset over the same engine path as ``inject``:
    any ``--jobs`` and a resumed store print the same figure, and a
    failed point fails the figure without a traceback."""

    FIG10 = ["figure", "fig10", "--instructions", "2000"]

    def test_jobs_and_resume_print_the_same(self, tmp_path, capsys):
        assert main(self.FIG10 + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert "Fig. 10" in serial
        store = tmp_path / "f.jsonl"
        assert main(self.FIG10 + ["--jobs", "2", "--out", str(store)]) == 0
        assert capsys.readouterr().out == serial
        rows = store.read_bytes()
        assert main(self.FIG10 + ["--resume", "--out", str(store)]) == 0
        assert capsys.readouterr().out == serial
        assert store.read_bytes() == rows  # nothing re-ran

    def test_failed_point_fails_the_figure(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.campaign import tasks

        def broken(point, campaign_name=""):
            raise RuntimeError("broken on purpose")

        monkeypatch.setitem(tasks.TASKS, "little_ipc", broken)
        store = tmp_path / "f.jsonl"
        argv = self.FIG10 + ["--jobs", "1", "--out", str(store)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "figure: 16/16 points failed; first failure at "
            "little_ipc/blackscholes/2000/0/core=optimized: "
            "RuntimeError: broken on purpose\n")
        # The failed rows stay in the store; --resume retries them.
        monkeypatch.undo()
        assert main(argv + ["--resume"]) == 0
        assert "Fig. 10" in capsys.readouterr().out

    def test_difftest_self_check_refuses_execution_flags(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["difftest", "--self-check", "--out", "x.jsonl",
                     "--jobs", "2", "--artifacts", "art"]) == 2
        assert capsys.readouterr().err == (
            "difftest: --self-check does not take --jobs, --out\n")
        assert not (tmp_path / "x.jsonl").exists()
