"""Batched-lockstep-kernel differential suite.

The batch kernel (:mod:`repro.perf.batch`) advances N fault-injection
points in lockstep with SoA state, shared decode, and per-lane
divergence eviction; the segment memo (:mod:`repro.core.segmemo`)
skips re-executing clean checker replay bursts.  Both are pure
performance layers: these tests hold every path **bit-identical** to
the scalar kernel with both layers off — per-point metrics rows
(including injection/detection streams, latencies and coverage cells),
persisted coverage.json artifacts, across every workload profile,
every canonical fault model, forced mid-run evictions, batch widths
1/2/7/64, and sharded + resumed campaigns with batching on.
"""

import json
import os

import pytest

from repro.campaign.executor import resolve_batch_lanes, run_campaign
from repro.campaign.sched import batch_units
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.tasks import (_PROGRAM_CACHE, batch_group_key,
                                  run_inject_batch, run_inject_point)
from repro.core import segmemo
from repro.core.faults import CANONICAL_MODEL_SPECS
from repro.workloads import all_profiles

PROFILE_NAMES = [profile.name for profile in all_profiles()]


def _fresh(monkeypatch, no_segmemo=False, no_batch=False):
    """Reset every cross-run cache the perf layers key on."""
    monkeypatch.setenv("REPRO_NO_SEGMEMO", "1" if no_segmemo else "0")
    monkeypatch.setenv("REPRO_NO_BATCH", "1" if no_batch else "0")
    _PROGRAM_CACHE.clear()
    segmemo.clear()


def _points(workload, trials, instructions=1_500, rate=0.01, seed=0,
            model=None, targets=None):
    params = {"rate": rate}
    if model is not None:
        params["fault_model"] = model
    if targets is not None:
        params["fault_targets"] = targets
    return [CampaignPoint(task="inject", workload=workload,
                          instructions=instructions, seed=seed,
                          params={**params, "trial": trial,
                                  "rng_key": f"{seed}/{workload}/{trial}"})
            for trial in range(trials)]


def _scalar_rows(points, monkeypatch):
    """Reference rows: scalar kernel, memo off, caches cold per point —
    the exact pre-batch campaign loop."""
    _fresh(monkeypatch, no_segmemo=True)
    rows = []
    for point in points:
        _PROGRAM_CACHE.clear()
        rows.append(json.dumps(run_inject_point(point, "t"),
                               sort_keys=True))
    return rows


def _batch_rows(points, monkeypatch):
    _fresh(monkeypatch)
    metrics, _ = run_inject_batch(points, "t")
    return [json.dumps(m, sort_keys=True) for m in metrics]


@pytest.mark.parametrize("profile_name", PROFILE_NAMES)
def test_every_workload_profile_batch_bit_identical(profile_name,
                                                    monkeypatch):
    points = _points(profile_name, 3)
    assert _batch_rows(points, monkeypatch) == _scalar_rows(points,
                                                            monkeypatch)


@pytest.mark.parametrize("model_spec", CANONICAL_MODEL_SPECS)
def test_every_fault_model_batch_bit_identical(model_spec, monkeypatch):
    """Injection/detection streams and coverage cells survive batching
    under every canonical fault model (the coverage comparison is part
    of the row: ``metrics["coverage"]`` serializes into it)."""
    points = _points("ferret", 4, instructions=2_000, model=model_spec,
                     targets="all")
    scalar = _scalar_rows(points, monkeypatch)
    assert any(json.loads(row)["injections"] for row in scalar), \
        "fault model injected nothing — the comparison would be vacuous"
    assert _batch_rows(points, monkeypatch) == scalar


def test_scalar_memo_bit_identical(monkeypatch):
    """The segment memo alone (scalar kernel) changes nothing — cold
    store, then warm store on a second pass over the same points."""
    points = _points("bodytrack", 4, instructions=2_500)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    cold = [json.dumps(run_inject_point(p, "t"), sort_keys=True)
            for p in points]
    warm = [json.dumps(run_inject_point(p, "t"), sort_keys=True)
            for p in points]
    assert cold == reference
    assert warm == reference


@pytest.mark.parametrize("lanes", [1, 2, 7, 64])
def test_batch_widths_bit_identical(lanes, monkeypatch):
    """Any grouping of the same 14 points produces the same rows."""
    points = _points("gcc", 14, instructions=1_200)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    rows = [None] * len(points)
    for start in range(0, len(points), lanes):
        group = points[start:start + lanes]
        metrics, _ = run_inject_batch(group, "t")
        for offset, m in enumerate(metrics):
            rows[start + offset] = json.dumps(m, sort_keys=True)
    assert rows == reference


def test_forced_eviction_hook_bit_identical(monkeypatch):
    """Lanes forced out mid-run rerun scalar from cycle 0 — including
    lane 0, the lane most likely to lead in-flight memo recordings."""
    from repro.perf import batch as batch_kernel

    points = _points("dedup", 5, instructions=2_000)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    # >= because the hook is only consulted at per-lane events (entry
    # instructions, dormancy fires): the first event past the threshold
    # evicts, and eviction removes the lane, so each fires exactly once.
    monkeypatch.setattr(batch_kernel, "force_eviction_hook",
                        lambda lane, index: lane in (0, 3) and index >= 700)
    metrics, stats = run_inject_batch(points, "t")
    assert [json.dumps(m, sort_keys=True) for m in metrics] == reference
    assert stats["evictions"].get("forced") == 2


def test_forced_eviction_env_bit_identical(monkeypatch):
    """``REPRO_BATCH_FORCE_EVICT`` takes exact (lane, index) pairs, so
    probe a clean run for real per-lane event indices first."""
    from repro.perf import batch as batch_kernel

    points = _points("hmmer", 4, instructions=1_500)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    seen = []
    monkeypatch.setattr(batch_kernel, "force_eviction_hook",
                        lambda lane, index: seen.append((lane, index)) or
                        False)
    metrics, _ = run_inject_batch(points, "t")
    assert [json.dumps(m, sort_keys=True) for m in metrics] == reference
    lane1 = sorted(i for lane, i in seen if lane == 1)
    lane2 = sorted(i for lane, i in seen if lane == 2)
    assert lane1 and lane2, "no per-lane events to force-evict at"

    _fresh(monkeypatch)
    monkeypatch.setattr(batch_kernel, "force_eviction_hook", None)
    monkeypatch.setenv(
        "REPRO_BATCH_FORCE_EVICT",
        f"1:{lane1[len(lane1) // 2]},2:{lane2[len(lane2) // 2]}")
    metrics, stats = run_inject_batch(points, "t")
    assert [json.dumps(m, sort_keys=True) for m in metrics] == reference
    assert stats["evictions"].get("forced") == 2


class TestCampaignIntegration:
    """Batching as a campaign execution strategy: serial, sharded, and
    resumed runs all byte-identical to the scalar serial reference."""

    def spec(self):
        points = (_points("streamcluster", 6, instructions=1_500)
                  + _points("mcf", 6, instructions=1_500))
        return CampaignSpec(name="batchcmp", points=points)

    def reference(self, monkeypatch, tmp_path):
        from repro.obs.live import LiveStatus

        _fresh(monkeypatch, no_segmemo=True, no_batch=True)
        spec = self.spec()
        status = str(tmp_path / "ref.status.json")
        live = LiveStatus(spec.name, total=len(spec.points), path=status)
        result = run_campaign(spec, batch=1, live=live)
        assert result.all_ok
        coverage = status[:-len(".status.json")] + ".coverage.json"
        with open(coverage, "rb") as handle:
            cov_bytes = handle.read()
        return ([json.dumps(m, sort_keys=True) for m in result.metrics()],
                cov_bytes)

    def batched(self, monkeypatch, tmp_path, tag, jobs=None,
                abort_after=None):
        from repro.campaign.executor import CampaignAborted
        from repro.campaign.results import ResultStore
        from repro.obs.live import LiveStatus

        _fresh(monkeypatch)
        spec = self.spec()
        store_path = str(tmp_path / f"{tag}.jsonl")
        status = store_path + ".status.json"
        if abort_after is not None:
            with ResultStore(path=store_path) as store:
                with pytest.raises(CampaignAborted):
                    run_campaign(spec, jobs=jobs, batch=4, store=store,
                                 abort=lambda: len(store.rows)
                                 >= abort_after)
        with ResultStore(path=store_path) as store:
            live = LiveStatus(spec.name, total=len(spec.points),
                              path=status)
            result = run_campaign(spec, jobs=jobs, batch=4, store=store,
                                  resume_from=store_path, live=live)
        assert result.all_ok
        coverage = store_path + ".coverage.json"
        with open(coverage, "rb") as handle:
            cov_bytes = handle.read()
        return ([json.dumps(m, sort_keys=True) for m in result.metrics()],
                cov_bytes)

    def test_serial_sharded_resumed_byte_identical(self, monkeypatch,
                                                   tmp_path):
        ref_rows, ref_cov = self.reference(monkeypatch, tmp_path)
        serial = self.batched(monkeypatch, tmp_path, "serial")
        assert serial == (ref_rows, ref_cov)
        sharded = self.batched(monkeypatch, tmp_path, "sharded", jobs=2)
        assert sharded == (ref_rows, ref_cov)
        resumed = self.batched(monkeypatch, tmp_path, "resumed",
                               abort_after=5)
        assert resumed == (ref_rows, ref_cov)

    def test_no_batch_env_disables_grouping(self, monkeypatch):
        _fresh(monkeypatch, no_batch=True)
        assert resolve_batch_lanes(None) == 1
        assert resolve_batch_lanes(64) == 1


class TestGrouping:
    def test_resolve_batch_lanes(self, monkeypatch):
        from repro.perf.batch import DEFAULT_BATCH_LANES

        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch_lanes(None) == DEFAULT_BATCH_LANES
        assert resolve_batch_lanes("auto") == DEFAULT_BATCH_LANES
        assert resolve_batch_lanes(7) == 7
        assert resolve_batch_lanes(1) == 1
        monkeypatch.setenv("REPRO_BATCH", "5")
        assert resolve_batch_lanes(None) == 5

    def test_batch_units_group_compatible_points_only(self):
        inject = _points("dedup", 5, instructions=1_000)
        other_cfg = _points("dedup", 1, instructions=2_000)
        meek = CampaignPoint(task="meek", workload="dedup",
                             instructions=1_000, seed=0, params={})
        pairs = list(enumerate(inject + other_cfg + [meek]))
        units = batch_units(pairs, lanes=3)
        sizes = sorted(len(unit) for unit in units)
        # 5 compatible points at width 3 -> [3, 2]; the different
        # instruction count and the meek point stay scalar.
        assert sizes == [1, 1, 2, 3]
        assert all(
            len({batch_group_key(point) for _, point in unit}) == 1
            for unit in units if len(unit) > 1)

    def test_batch_group_key_ignores_lane_params_only(self):
        a, b = _points("dedup", 2, rate=0.01)
        assert batch_group_key(a) == batch_group_key(b)
        c = _points("dedup", 1, rate=0.02)[0]
        assert batch_group_key(a) == batch_group_key(c)
        d = _points("dedup", 1, instructions=9_999)[0]
        assert batch_group_key(a) != batch_group_key(d)


class TestBatchObservability:
    def test_live_status_batch_section_and_watch_line(self):
        from repro.obs.live import LiveStatus
        from repro.obs.watch import render_snapshot

        live = LiveStatus("obs", total=4, path=None)
        live.batch({"lanes": 4, "instructions": 100, "occupancy": 0.75,
                    "evictions": {"divergence": 1}})
        live.batch({"lanes": 4, "instructions": 100, "occupancy": 1.0,
                    "evictions": {}})
        snap = live.snapshot()
        assert snap["batch"] == {
            "batches": 2,
            "lanes": 8,
            "mean_lanes_active": 3.5,
            "evictions": 1,
            "evictions_by_cause": {"divergence": 1},
        }
        rendered = render_snapshot(snap)
        assert "batch" in rendered
        assert "divergence 1" in rendered

    def test_registry_instruments(self):
        from repro.obs.live import LiveStatus
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        try:
            live = LiveStatus("obs", total=1, path=None)
            live.batch({"lanes": 8, "instructions": 10, "occupancy": 0.5,
                        "evictions": {"forced": 2}})
            snapshot = get_registry().snapshot()
            assert snapshot["counters"]["batch.batches"] == 1
            assert snapshot["counters"]["batch.lanes"] == 8
            assert snapshot["counters"]["batch.evictions"] == 2
            assert snapshot["counters"]["batch.evictions.forced"] == 2
            assert snapshot["gauges"]["batch.lanes_active"] == 4.0
        finally:
            reset_registry()
