"""Tests for the campaign engine (spec, executor, results, CLI).

The three contract tests the subsystem was built around:

* sharded execution is bit-identical to serial execution,
* resume-from-JSONL skips completed points,
* a worker exception is a failed point, not a crashed campaign.
"""

import json

import pytest

from repro.campaign import (
    CampaignPoint,
    CampaignSpec,
    PointResult,
    PointTimeout,
    ResultStore,
    aggregate,
    format_summary,
    run_campaign,
    task,
)
from repro.cli import main
from repro.common.errors import ConfigError
from repro.common.prng import DeterministicRng

SMALL = 1500

# -- throwaway tasks (serial executor shares this process, so module
# state observes evaluations) ---------------------------------------------

CALLS = []


@task("test_echo")
def _echo_task(point, campaign_name=""):
    CALLS.append(point.point_id)
    return {"value": point.params.get("value", 0) * 2,
            "workload": point.workload}


@task("test_boom")
def _boom_task(point, campaign_name=""):
    if point.params.get("explode"):
        raise ValueError("intentional failure")
    return {"value": 1}


@task("test_sleep")
def _sleep_task(point, campaign_name=""):
    import time
    time.sleep(float(point.params.get("sleep_s", 10.0)))
    return {"value": 1}


@task("test_die")
def _die_task(point, campaign_name=""):
    if point.params.get("die"):
        import os
        os._exit(3)  # hard shard death: no exception, no result row
    return {"value": 1}


def small_spec(workloads=("dedup", "hmmer"), seeds=(0, 1)):
    return CampaignSpec.grid("t", workloads=workloads, seeds=seeds,
                             instructions=SMALL,
                             configs=[{"cores": 2}])


@pytest.mark.quick
class TestSpec:
    def test_point_id_canonical_and_param_order_independent(self):
        a = CampaignPoint(task="meek", workload="dedup", instructions=100,
                          seed=1, params={"cores": 2, "fabric": "f2"})
        b = CampaignPoint(task="meek", workload="dedup", instructions=100,
                          seed=1, params={"fabric": "f2", "cores": 2})
        assert a.point_id == b.point_id
        assert a.point_id == "meek/dedup/100/1/cores=2/fabric=f2"

    def test_grid_expansion_and_baseline(self):
        spec = small_spec()
        # per (workload, seed): one vanilla + one meek point
        assert len(spec.points) == 2 * 2 * 2
        tasks = [p.task for p in spec.points]
        assert tasks.count("vanilla") == 4
        assert tasks.count("meek") == 4

    def test_injection_grid(self):
        spec = CampaignSpec.grid("t", workloads=["dedup"],
                                 instructions=SMALL, trials=3,
                                 injection={"rate": 0.01})
        inject_points = [p for p in spec.points if p.task == "inject"]
        assert len(inject_points) == 3
        assert {p.params["trial"] for p in inject_points} == {0, 1, 2}

    def test_duplicate_points_rejected(self):
        point = CampaignPoint(task="vanilla", workload="dedup",
                              instructions=SMALL)
        with pytest.raises(ConfigError):
            CampaignSpec(name="t", points=[point, point]).validate()

    def test_non_scalar_params_rejected(self):
        with pytest.raises(ConfigError):
            CampaignPoint(task="meek", workload="dedup",
                          params={"config": {"cores": 2}})

    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        loaded = CampaignSpec.from_file(path)
        assert [p.point_id for p in loaded.points] == \
            [p.point_id for p in spec.points]

    def test_grid_shorthand_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "sweep", "workloads": ["dedup"], "seeds": [0, 1],
            "instructions": SMALL, "configs": [{"cores": 2}],
            "injection": {"rate": 0.05}, "trials": 2}))
        spec = CampaignSpec.from_file(path)
        assert len(spec.points) == 4
        assert all(p.task == "inject" for p in spec.points)

    def test_rng_key_stable_across_processes(self):
        # fork() derivation must not depend on PYTHONHASHSEED: two
        # streams with the same key always agree.
        a = DeterministicRng("campaign/x", name="a").fork("salt")
        b = DeterministicRng("campaign/x", name="b").fork("salt")
        assert [a.bit64() for _ in range(4)] == \
            [b.bit64() for _ in range(4)]


class TestExecutor:
    def test_sharded_identical_to_serial(self):
        """Contract (a): same spec, same metrics, any job count."""
        spec = small_spec()
        serial = run_campaign(spec, jobs=1)
        sharded = run_campaign(spec, jobs=3, chunk_size=1)
        assert serial.all_ok and sharded.all_ok
        assert serial.metrics() == sharded.metrics()
        assert [r.point_id for r in serial.results] == \
            [r.point_id for r in sharded.results]

    def test_persistent_pool_reused_across_campaigns(self):
        """Contract (a) extended to the warm path: one pool, many
        campaigns, still bit-identical to serial — and the pool stays
        open between them (the executor must not close what it does
        not own)."""
        from repro.campaign.pool import WorkerPool

        specs = [small_spec(workloads=("dedup",), seeds=(s, s + 1))
                 for s in range(3)]
        serial = [run_campaign(spec, jobs=1).metrics() for spec in specs]
        with WorkerPool(2) as pool:
            for spec, expect in zip(specs, serial):
                result = run_campaign(spec, pool=pool, chunk_size=1)
                assert result.all_ok
                assert result.metrics() == expect
                assert pool.healthy  # still alive for the next campaign

    def test_pool_single_pending_point_stays_serial(self):
        """A one-point campaign never pays pool streaming even when a
        pool is supplied (matches the jobs>1 serial short-circuit)."""
        from repro.campaign.pool import WorkerPool

        spec = CampaignSpec(name="one", points=[
            CampaignPoint(task="test_echo", params={"value": 3})])
        CALLS.clear()
        with WorkerPool(2) as pool:
            result = run_campaign(spec, pool=pool)
        assert result.all_ok and result.metrics()[0]["value"] == 6
        assert CALLS  # evaluated in-process, not in a shard

    def test_closed_pool_rejects_runs(self):
        from repro.campaign.pool import WorkerPool

        pool = WorkerPool(2)
        pool.close()
        assert not pool.healthy
        spec = CampaignSpec(name="closed", points=[
            CampaignPoint(task="test_echo", workload=f"w{i}")
            for i in range(2)])
        with pytest.raises(RuntimeError):
            run_campaign(spec, pool=pool)

    def test_partial_shard_death_terminates_not_hangs(self):
        """A point that hard-exits its shard (os._exit, no traceback,
        no result) must not wedge the run or take innocent points
        down: its unit requeues once, kills a second owner, and fails
        alone as WorkerDied.  The dead shards are re-forked in place,
        so the caller's pool keeps its width and stays healthy."""
        from repro.campaign.pool import WorkerPool

        points = [CampaignPoint(task="test_die", workload=f"w{i}",
                                params={"die": i == 1})
                  for i in range(6)]
        spec = CampaignSpec(name="die", points=points)
        with WorkerPool(2) as pool:
            result = run_campaign(spec, pool=pool, chunk_size=1)
            assert pool.healthy and pool.jobs == 2
        assert len(result.results) == 6
        assert not result.results[1].ok
        assert "WorkerDied" in result.results[1].error
        assert all(r.ok for i, r in enumerate(result.results) if i != 1)

    def test_pool_factory_not_invoked_when_nothing_pending(self, tmp_path):
        """The service hands run_campaign a pool *factory*; a campaign
        with at most one pending point must never invoke it (no
        workers forked for a fully-resumed run)."""
        points = [CampaignPoint(task="test_echo", params={"value": 1})]
        spec = CampaignSpec(name="lazy", points=points)

        def factory():
            raise AssertionError("pool factory invoked for 1 point")

        result = run_campaign(spec, jobs=4, pool=factory)
        assert result.all_ok

    def test_resume_skips_completed_points(self, tmp_path):
        """Contract (b): points recorded OK are not re-evaluated."""
        path = tmp_path / "results.jsonl"
        points = [CampaignPoint(task="test_echo", workload=f"w{i}",
                                params={"value": i}) for i in range(4)]
        spec = CampaignSpec(name="resume", points=points)

        CALLS.clear()
        with ResultStore(path=str(path)) as store:
            first = run_campaign(spec, jobs=1, store=store)
        assert first.all_ok and len(CALLS) == 4

        CALLS.clear()
        with ResultStore(path=str(path)) as store:
            second = run_campaign(spec, jobs=1, store=store,
                                  resume_from=str(path))
        assert CALLS == []  # nothing re-ran
        assert second.metrics() == first.metrics()

    def test_resume_reruns_failed_and_missing_points(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = [CampaignPoint(task="test_echo", workload=f"w{i}",
                                params={"value": i}) for i in range(4)]
        spec = CampaignSpec(name="resume2", points=points)
        # Seed the store with one OK row and one failed row.
        with ResultStore(path=str(path)) as store:
            store.append(run_campaign(
                CampaignSpec(name="resume2", points=points[:1]),
                jobs=1).results[0])
            from repro.campaign import PointResult
            store.append(PointResult(point_id=points[1].point_id,
                                     index=1, ok=False, error="boom"))
        CALLS.clear()
        result = run_campaign(spec, jobs=1, resume_from=str(path))
        assert result.all_ok
        # point 0 skipped; points 1 (failed), 2, 3 (missing) re-ran
        assert len(CALLS) == 3 and points[0].point_id not in CALLS

    def test_worker_exception_is_failed_point_not_crash(self):
        """Contract (c): exceptions are captured per point."""
        points = [CampaignPoint(task="test_boom", workload=f"w{i}",
                                params={"explode": i == 1})
                  for i in range(4)]
        spec = CampaignSpec(name="boom", points=points)
        for jobs in (1, 2):
            result = run_campaign(spec, jobs=jobs)
            assert not result.all_ok
            assert len(result.failed) == 1
            failure = result.results[1]
            assert failure.ok is False
            assert "ValueError" in failure.error
            assert "intentional failure" in failure.error
            assert all(r.ok for i, r in enumerate(result.results)
                       if i != 1)

    def test_point_timeout_becomes_failed_point(self):
        points = [CampaignPoint(task="test_sleep",
                                params={"sleep_s": 5.0}),
                  CampaignPoint(task="test_echo", params={"value": 7})]
        spec = CampaignSpec(name="slow", points=points)
        result = run_campaign(spec, jobs=1, point_timeout_s=0.2)
        assert result.results[0].ok is False
        assert PointTimeout.__name__ in result.results[0].error
        assert result.results[1].ok
        assert result.results[1].metrics["value"] == 14

    def test_unknown_task_is_failed_point(self):
        spec = CampaignSpec(name="bad", points=[
            CampaignPoint(task="no_such_task")])
        result = run_campaign(spec, jobs=1)
        assert result.results[0].ok is False
        assert "no_such_task" in result.results[0].error


def spread_specs():
    """The fleet-spread drill: one batch-compatible group of 32 inject
    trials, and twelve unbatchable meek points (workloads x cores x
    fabric)."""
    inject = CampaignSpec(name="spread-inject", points=[
        CampaignPoint(task="inject", workload="dedup", instructions=SMALL,
                      seed=0, params={"rate": 0.05, "trial": trial,
                                      "rng_key": f"spread/{trial}"})
        for trial in range(32)])
    meek = CampaignSpec(name="spread-meek", points=[
        CampaignPoint(task="meek", workload=workload,
                      instructions=SMALL * 4, seed=0,
                      params={"cores": cores, "fabric": fabric})
        for workload in ("streamcluster", "gcc")
        for cores in (2, 4, 8)
        for fabric in ("f2", "axi")])
    return {"inject32": inject, "meek12": meek}


def store_run(spec, path, **kwargs):
    """Run ``spec`` into a store with live status.  Returns the rows'
    deterministic bytes per point id (bookkeeping excluded), the
    ``coverage.json`` bytes (``None`` when absent), and the set of
    workers that evaluated the points."""
    import os

    from repro.analysis.coverage import coverage_path_for
    from repro.obs.live import attach_live

    with ResultStore(path=str(path)) as store:
        live = attach_live(spec, kwargs.get("jobs") or 1, store=store)
        result = run_campaign(spec, store=store, live=live, **kwargs)
    assert result.all_ok
    loaded = ResultStore.load(str(path))
    rows = {pid: json.dumps([r.ok, r.metrics, r.error], sort_keys=True)
            for pid, r in loaded.items()}
    coverage = coverage_path_for(str(path))
    cov_bytes = None
    if os.path.exists(coverage):
        with open(coverage, "rb") as handle:
            cov_bytes = handle.read()
    return rows, cov_bytes, {r.worker for r in loaded.values()}


class TestFleetSpread:
    """Units are sized to the fleet, so a campaign smaller than the
    default batch width still reaches every shard — with rows and
    coverage.json unchanged from a serial scalar run."""

    @pytest.mark.parametrize("name", ["inject32", "meek12"])
    def test_pool_rows_spread_across_both_shards(self, tmp_path, name):
        spec = spread_specs()[name]
        ref_rows, ref_cov, _ = store_run(spec, tmp_path / "serial.jsonl",
                                         jobs=1, batch=1)
        rows, cov, workers = store_run(spec, tmp_path / "pool.jsonl",
                                       jobs=2)
        assert len(workers) >= 2, f"every row on one shard: {workers}"
        assert rows == ref_rows
        assert cov == ref_cov


@pytest.mark.quick
class TestResults:
    def test_aggregate_counts(self):
        points = [CampaignPoint(task="test_boom", workload=f"w{i}",
                                params={"explode": i == 0})
                  for i in range(3)]
        result = run_campaign(CampaignSpec(name="agg", points=points),
                              jobs=1)
        summary = aggregate(result.results)
        assert summary["points"] == 3
        assert summary["ok"] == 2
        assert summary["failed"] == 1

    def test_summary_deterministic_and_marks_failures(self):
        points = [CampaignPoint(task="test_boom", workload=f"w{i}",
                                params={"explode": i == 1})
                  for i in range(2)]
        spec = CampaignSpec(name="sum", points=points)
        a = format_summary(spec, run_campaign(spec, jobs=1).results)
        b = format_summary(spec, run_campaign(spec, jobs=2).results)
        assert a == b
        assert "FAILED" in a

    def test_store_appends_and_loads(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        spec = CampaignSpec(name="store", points=[
            CampaignPoint(task="test_echo", params={"value": 3})])
        with ResultStore(path=str(path)) as store:
            run_campaign(spec, jobs=1, store=store)
        loaded = ResultStore.load(str(path))
        [(point_id, row)] = loaded.items()
        assert point_id == spec.points[0].point_id
        assert row.metrics["value"] == 6
        assert ResultStore.completed_ids(str(path)) == {point_id}

    def test_load_skips_corrupt_trailing_line(self, tmp_path):
        """A campaign killed mid-write leaves a truncated final row;
        resume must skip it (with a warning) and re-run that point."""
        path = tmp_path / "rows.jsonl"
        points = [CampaignPoint(task="test_echo", workload=f"w{i}",
                                params={"value": i}) for i in range(3)]
        spec = CampaignSpec(name="trunc", points=points)
        with ResultStore(path=str(path)) as store:
            run_campaign(spec, jobs=1, store=store)
        # Truncate the last row mid-JSON, as a kill -9 would.
        text = path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n"
                        + lines[-1][:len(lines[-1]) // 2],
                        encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            loaded = ResultStore.load(str(path))
        assert set(loaded) == {p.point_id for p in points[:2]}
        # Resume re-runs exactly the point whose row was lost, and the
        # recovery row starts on a fresh line (not merged into the
        # truncated one) so the healed file loads completely.
        CALLS.clear()
        with pytest.warns(RuntimeWarning):
            with ResultStore(path=str(path)) as store:
                result = run_campaign(spec, jobs=1, store=store,
                                      resume_from=str(path))
        assert result.all_ok
        assert CALLS == [points[2].point_id]
        with pytest.warns(RuntimeWarning):  # truncated line remains
            healed = ResultStore.load(str(path))
        assert set(healed) == {p.point_id for p in points}

    def test_load_skips_interior_garbage_rows(self, tmp_path):
        """Non-JSON garbage and rows missing required keys are skipped
        without losing the valid rows around them."""
        path = tmp_path / "rows.jsonl"
        good = PointResult(point_id="p/ok", index=0, ok=True,
                           metrics={"v": 1})
        path.write_text(
            "not json at all\n"
            + json.dumps({"unrelated": True}) + "\n"
            + json.dumps(good.to_row()) + "\n",
            encoding="utf-8")
        with pytest.warns(RuntimeWarning) as caught:
            loaded = ResultStore.load(str(path))
        assert len(caught) == 2
        assert set(loaded) == {"p/ok"}
        assert loaded["p/ok"].metrics == {"v": 1}


class TestSimulationTasks:
    def test_meek_task_matches_direct_run(self):
        from repro.common.config import default_meek_config
        from repro.core.system import MeekSystem
        from repro.workloads import generate_program, get_profile

        point = CampaignPoint(task="meek", workload="dedup",
                              instructions=SMALL, params={"cores": 2})
        [metrics] = run_campaign(
            CampaignSpec(name="direct", points=[point]),
            jobs=1).metrics()
        program = generate_program(get_profile("dedup"),
                                   dynamic_instructions=SMALL, seed=0)
        direct = MeekSystem(
            default_meek_config(num_little_cores=2)).run(program)
        assert metrics["cycles"] == direct.cycles
        assert metrics["verified"] is True

    def test_run_result_stats_carry_fault_counts(self):
        from repro.common.config import default_meek_config
        from repro.core.faults import FaultInjector
        from repro.core.system import MeekSystem
        from repro.workloads import generate_program, get_profile

        program = generate_program(get_profile("dedup"),
                                   dynamic_instructions=3000, seed=0)
        plain = MeekSystem(default_meek_config()).run(program)
        assert plain.stats()["injections"] == 0
        assert plain.stats()["detected"] == 0

        injector = FaultInjector(DeterministicRng("stats/fault"),
                                 rate=0.05)
        faulted = MeekSystem(default_meek_config(),
                             injector=injector).run(program)
        stats = faulted.stats()
        assert stats["injections"] == len(injector.injections)
        assert stats["detected"] == injector.detected_count


class TestCli:
    @pytest.mark.quick
    def test_campaign_parser(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["campaign", "--workloads", "dedup,ferret", "--seeds", "0,1",
             "--cores", "2,4", "--jobs", "4"])
        assert args.workloads == ["dedup", "ferret"]
        assert args.seeds == [0, 1]
        assert args.cores == [2, 4]
        assert args.jobs == 4

    def test_campaign_jobs_output_identical(self, capsys):
        argv = ["campaign", "--workloads", "dedup", "--instructions",
                str(SMALL), "--cores", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        sharded_out = capsys.readouterr().out
        assert serial_out == sharded_out
        assert "Campaign — cli" in serial_out
        assert "vanilla/dedup" in serial_out

    def test_campaign_without_grid_is_usage_error(self, capsys):
        assert main(["campaign"]) == 2

    def test_campaign_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "filespec", "workloads": ["dedup"],
            "instructions": SMALL, "include_baseline": False}))
        assert main(["campaign", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "filespec" in out and "meek/dedup" in out

    def test_inject_reports_counts_when_zero_rate(self, capsys):
        # Satellite regression: zero injections must still print the
        # detected line instead of collapsing the whole print.
        code = main(["inject", "dedup", "--instructions", "2000",
                     "--trials", "1", "--rate", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injections      : 0" in out
        assert "detected        : 0 (no injections)" in out

    def test_inject_cores_fabric_flags(self, capsys):
        code = main(["inject", "dedup", "--instructions", "3000",
                     "--trials", "1", "--rate", "0.05",
                     "--cores", "2", "--fabric", "axi", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injections" in out


class TestExperimentsThroughEngine:
    def test_fig6_sharded_matches_serial(self):
        from repro.experiments import run
        serial = run("fig6", dynamic_instructions=SMALL,
                     workloads=["hmmer"], jobs=1)
        sharded = run("fig6", dynamic_instructions=SMALL,
                      workloads=["hmmer"], jobs=2)
        assert serial == sharded
        assert serial[0].meek < serial[0].lockstep

    def test_fig8_sharded_matches_serial(self):
        from repro.experiments import run
        serial = run("fig8", dynamic_instructions=SMALL,
                     core_counts=(2, 4), workloads=["swaptions"], jobs=1)
        sharded = run("fig8", dynamic_instructions=SMALL,
                      core_counts=(2, 4), workloads=["swaptions"], jobs=2)
        assert serial == sharded


class TestAbort:
    """The ``abort`` hook: stop at a point boundary, keep the partial
    store, resume to a bit-identical whole."""

    def abort_after(self, store, n):
        return lambda: len(store.rows) >= n

    def full_rows(self, spec):
        result = run_campaign(spec)
        return {r.point_id: (r.ok, r.metrics) for r in result.results}

    def test_serial_abort_keeps_partial_and_raises(self, tmp_path):
        from repro.campaign import CampaignAborted
        spec = small_spec()
        out = str(tmp_path / "aborted.jsonl")
        with ResultStore(path=out) as store:
            with pytest.raises(CampaignAborted) as err:
                run_campaign(spec, store=store,
                             abort=self.abort_after(store, 2))
        assert err.value.completed == 2
        assert len(ResultStore.load(out)) == 2

    def test_resume_after_abort_matches_uninterrupted(self, tmp_path):
        from repro.campaign import CampaignAborted
        spec = small_spec()
        out = str(tmp_path / "aborted.jsonl")
        with ResultStore(path=out) as store:
            with pytest.raises(CampaignAborted):
                run_campaign(spec, store=store,
                             abort=self.abort_after(store, 1))
        with ResultStore(path=out) as store:
            result = run_campaign(spec, store=store, resume_from=out)
        assert len(result.results) == len(spec.points)
        got = {r.point_id: (r.ok, r.metrics) for r in result.results}
        assert got == self.full_rows(spec)

    def test_pool_abort_raises_and_next_campaign_identical(self, tmp_path):
        from repro.campaign import CampaignAborted
        spec = small_spec(workloads=("dedup", "hmmer"), seeds=(0, 1, 2))
        out = str(tmp_path / "pool-aborted.jsonl")
        with ResultStore(path=out) as store:
            with pytest.raises(CampaignAborted):
                run_campaign(spec, jobs=2, store=store, chunk_size=1,
                             abort=self.abort_after(store, 1))
        assert 1 <= len(ResultStore.load(out)) < len(spec.points)
        # a fresh sharded campaign right after is undisturbed
        result = run_campaign(spec, jobs=2)
        got = {r.point_id: (r.ok, r.metrics) for r in result.results}
        assert got == self.full_rows(spec)

    def test_abort_publishes_aborted_live_state(self, tmp_path):
        from repro.campaign import CampaignAborted
        from repro.obs.live import LiveStatus, load_status
        spec = small_spec()
        status = str(tmp_path / "status.json")
        live = LiveStatus(spec.name, total=len(spec.points), path=status)
        with pytest.raises(CampaignAborted):
            run_campaign(spec, live=live, abort=lambda: True)
        snap = load_status(status)
        assert snap["state"] == "aborted"

    def test_no_abort_hook_changes_nothing(self):
        spec = small_spec()
        plain = run_campaign(spec)
        hooked = run_campaign(spec, abort=lambda: False)
        assert ([r.metrics for r in plain.results]
                == [r.metrics for r in hooked.results])


@pytest.mark.quick
class TestBatchGuardAlarm:
    def test_batch_alarm_disarmed_before_scalar_fallback(
            self, monkeypatch):
        """A batch failure must disarm the batch itimer *before* the
        scalar fallback runs: a still-pending batch alarm firing in a
        gap between the per-point guards would escape every guard and
        kill the whole evaluation loop (shard or remote runner)."""
        import signal

        from repro.campaign import work

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        before = signal.getsignal(signal.SIGALRM)
        observed = []

        def spy_eval(point, index, campaign_name, timeout_s, worker_id):
            observed.append((signal.getitimer(signal.ITIMER_REAL),
                             signal.getsignal(signal.SIGALRM)))
            return PointResult(point_id=point.point_id, index=index,
                               ok=True, metrics={})

        def boom(points, campaign_name=""):
            raise RuntimeError("kernel fell over")

        monkeypatch.setattr(work, "evaluate_guarded", spy_eval)
        monkeypatch.setattr(work, "run_inject_batch", boom)
        group = [(i, CampaignPoint(task="test_echo", workload="w",
                                   instructions=1, seed=i))
                 for i in range(2)]
        results, stats = work.evaluate_batch_guarded(group, "c", 5.0,
                                                     "w0")
        assert stats is None and len(results) == 2
        for timer, handler in observed:
            assert timer == (0.0, 0.0)
            assert handler == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == before
