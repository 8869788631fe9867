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
import threading
from dataclasses import replace

import pytest

from repro.campaign.executor import resolve_batch_lanes, run_campaign
from repro.campaign.sched import batch_units
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.tasks import (_PROGRAM_CACHE, _inject_metrics,
                                  _make_injector, batch_group_key,
                                  build_config, build_program,
                                  run_inject_batch, run_inject_point,
                                  run_meek_point)
from repro.core import segmemo
from repro.core.checker import CheckerRun
from repro.core.faults import CANONICAL_MODEL_SPECS
from repro.core.system import MeekSystem
from repro.perf.decode import decode_program
from repro.workloads import all_profiles

PROFILE_NAMES = [profile.name for profile in all_profiles()]


def _fresh(monkeypatch, no_segmemo=False, no_batch=False):
    """Reset every cross-run cache the perf layers key on."""
    monkeypatch.setenv("REPRO_NO_SEGMEMO", "1" if no_segmemo else "0")
    if no_batch:
        monkeypatch.setenv("REPRO_BATCH", "1")
    else:
        monkeypatch.delenv("REPRO_BATCH", raising=False)
    # A fresh program is a fresh decode, and so a cold segment memo.
    _PROGRAM_CACHE.clear()


def _points(workload, trials, instructions=1_500, rate=0.01, seed=0,
            model=None, targets=None, lsl_kb=None, timeout=None):
    params = {"rate": rate}
    if model is not None:
        params["fault_model"] = model
    if targets is not None:
        params["fault_targets"] = targets
    if lsl_kb is not None:
        params["lsl_kb"] = lsl_kb
    if timeout is not None:
        params["timeout"] = timeout
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


@pytest.mark.quick
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
    """Forcing exact (lane, index) pairs through the hook: probe a
    clean run for real per-lane event indices first."""
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
    forced = {(1, lane1[len(lane1) // 2]), (2, lane2[len(lane2) // 2])}
    monkeypatch.setattr(batch_kernel, "force_eviction_hook",
                        lambda lane, index: (lane, index) in forced)
    metrics, stats = run_inject_batch(points, "t")
    assert [json.dumps(m, sort_keys=True) for m in metrics] == reference
    assert stats["evictions"].get("forced") == 2


# -- a small LSL: the credit check decides segment boundaries ---------------

def _small_lsl_points(workload, instructions, rate, trials=8):
    """Points with a 1 KB LSL (64 entries), so the LSL-full trigger
    closes most segments, at a rate where injected lanes' timing
    diverges from their siblings'.  The fast kernel advances each
    checker only when that trigger could fire, so these points are
    where an inexact advance rule would show."""
    return _points(workload, trials, instructions=instructions, rate=rate,
                   lsl_kb=1)


def _lane_facts(result, injector):
    """A lane's row plus its full controller stats (stall split, end
    reasons, DEU/fabric counters and ``lsl_peak_occupancy``)."""
    return (json.dumps(_inject_metrics(result, injector), sort_keys=True),
            repr(result.controller.stats()))


def _scalar_facts(points, config=None):
    facts = []
    for point in points:
        injector = _make_injector(point, "t")
        system = MeekSystem(config or build_config(point.params),
                            injector=injector)
        facts.append(_lane_facts(system.run(build_program(point)),
                                 injector))
    return facts


SMALL_LSL_CASES = [("swaptions", 6_000, 0.002),
                   ("streamcluster", 4_000, 0.005)]


class TestAdvanceOnDemand:
    """Batch = scalar and fast = slow kernel where the LSL fills."""

    def reference(self, points, monkeypatch):
        _fresh(monkeypatch, no_segmemo=True)
        facts = _scalar_facts(points)
        rows = [json.loads(row) for row, _ in facts]
        assert all(row["end_reasons"]["lsl_full"] > 0 for row in rows), \
            "the LSL never filled: the comparison would be vacuous"
        assert len({row["cycles"] for row in rows}) > 1, \
            "no lane diverged: the comparison would be vacuous"
        return facts

    @pytest.mark.parametrize("workload,instructions,rate", SMALL_LSL_CASES)
    def test_batch_matches_scalar_memo_off(self, workload, instructions,
                                           rate, monkeypatch):
        from repro.perf.batch import run_batch

        points = _small_lsl_points(workload, instructions, rate)
        reference = self.reference(points, monkeypatch)
        _fresh(monkeypatch)
        injectors = [_make_injector(point, "t") for point in points]
        outcome = run_batch(build_config(points[0].params),
                            build_program(points[0]), injectors)
        assert outcome.evicted == [None] * len(points)
        assert [_lane_facts(result, injector) for result, injector
                in zip(outcome.results, injectors)] == reference
        # The scalar kernel with the memo on, over the warm store.
        assert _scalar_facts(points) == reference

    @pytest.mark.parametrize("workload,instructions,rate", SMALL_LSL_CASES)
    def test_fast_matches_slow_kernel(self, workload, instructions, rate,
                                      monkeypatch):
        points = _small_lsl_points(workload, instructions, rate)
        reference = self.reference(points, monkeypatch)
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        assert _scalar_facts(points) == reference


def test_follower_drives_its_lazy_leader(monkeypatch):
    """Leaders advance on demand, so a follower must bring its leader's
    replay forward before trusting the end of the recording.  Odd lanes
    here advance at every commit (always exact), so they consult the
    recording while lane 0, their leader, has not replayed yet."""
    from repro.core.controller import MeekController
    from repro.perf.batch import run_batch

    point = _small_lsl_points("swaptions", 3_000, 0.0, trials=1)[0]
    config = build_config(point.params)
    program = build_program(point)
    _fresh(monkeypatch, no_segmemo=True)
    reference = _scalar_facts([point])[0]
    _fresh(monkeypatch)

    built = []
    original_init = MeekController.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._eager_advance = len(built) % 2 == 1
        built.append(self)

    checks = []
    original_follow = segmemo.follow_advance

    def follow(run):
        leader = run._follow.owner
        outcome = original_follow(run)
        if (outcome is None and leader is not None
                and leader.segment.instr_count == run.segment.instr_count):
            leader.advance()  # exact at any time
            checks.append(leader.next_entry - run.next_entry)
        return outcome

    monkeypatch.setattr(MeekController, "__init__", init)
    monkeypatch.setattr(segmemo, "follow_advance", follow)
    outcome = run_batch(config, program, [None] * 4)
    assert [repr(result.controller.stats()) for result in outcome.results] \
        == [reference[1]] * 4
    assert checks, "no follower consulted an in-flight recording"
    assert max(checks) == 0, "a follower stopped short of its log"


# -- big-core shapes no campaign point reaches -------------------------------

#: Campaign parameters never change the big core, so these widths and
#: window sizes run only here.  Each one changes bodytrack's cycle count
#: against the default core (checked below), so each is exercised.
BIG_CORE_CASES = {
    "int_alus=1": {"int_alus": 1},
    "int_alus=3": {"int_alus": 3},
    "int_alus=4": {"int_alus": 4},
    "mem_units=1": {"mem_units": 1},
    "mem_units=3": {"mem_units": 3},
    "commit_width=1": {"commit_width": 1},
    "commit_width=3": {"commit_width": 3},
    "small windows": {"rob_entries": 8, "issue_queue_entries": 6,
                      "ldq_entries": 2, "stq_entries": 2,
                      "int_phys_regs": 36, "fp_phys_regs": 36},
}


@pytest.mark.parametrize("case", list(BIG_CORE_CASES))
def test_big_core_shapes_batch_matches_scalar(case, monkeypatch):
    """Every functional-unit pool width, commit width and binding
    occupancy window: ``run_batch`` equals ``MeekSystem.run`` per lane."""
    from repro.perf.batch import run_batch

    points = _points("bodytrack", 4, instructions=2_000)
    default = build_config(points[0].params)
    config = replace(default, big_core=replace(default.big_core,
                                               **BIG_CORE_CASES[case]))
    _fresh(monkeypatch, no_segmemo=True)
    reference = _scalar_facts(points, config)
    baseline = _scalar_facts(points[:1], default)
    assert (json.loads(reference[0][0])["cycles"]
            != json.loads(baseline[0][0])["cycles"]), \
        f"{case} does not change the timing: the comparison is vacuous"
    _fresh(monkeypatch)
    injectors = [_make_injector(point, "t") for point in points]
    outcome = run_batch(config, build_program(points[0]), injectors)
    assert outcome.evicted == [None] * len(points)
    assert [_lane_facts(result, injector) for result, injector
            in zip(outcome.results, injectors)] == reference


def test_int_and_fp_sources_with_one_register_number():
    """``fsd f5, 0(x5)`` waits on both x5 and f5: the two scoreboards
    are separate even where the register numbers coincide."""
    from repro.common.config import default_meek_config
    from repro.isa.assembler import assemble
    from repro.perf.batch import run_batch

    source = "\n".join(
        ["addi x5, x0, 64", "addi x6, x0, 3", "fcvt.d.l f1, x6",
         "fcvt.d.l f2, x6"]
        + ["fdiv.d f5, f1, f2", "fsd f5, 0(x5)", "addi x5, x5, 8"] * 40
        + ["ecall"])
    program = assemble(source, name="int-fp-sources")
    config = default_meek_config()
    reference = MeekSystem(config).run(program)
    outcome = run_batch(config, program, [None, None])
    assert ([(result.cycles, repr(result.controller.stats()))
             for result in outcome.results]
            == [(reference.cycles, repr(reference.controller.stats()))] * 2)


def test_dormant_budgets_fire_apart_with_eviction(monkeypatch):
    """A 250-instruction timeout over a 1 KB LSL: lanes whose LSL
    filled at different instructions run out of budget at different
    instructions, so only some lanes enter the hook on those dormant
    commits.  Lane 1 is evicted after them, mid-run."""
    from repro.perf import batch as batch_kernel

    evict_from = 3_600
    points = _points("streamcluster", 5, instructions=4_000, rate=0.005,
                     lsl_kb=1, timeout=250)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    seen = []

    def hook(lane, index):
        seen.append((lane, index))
        return lane == 1 and index >= evict_from

    monkeypatch.setattr(batch_kernel, "force_eviction_hook", hook)
    metrics, stats = run_inject_batch(points, "t")
    assert [json.dumps(m, sort_keys=True) for m in metrics] == reference
    assert stats["evictions"] == {"forced": 1}
    entered = {}
    for lane, index in seen:
        if index < evict_from:
            entered.setdefault(index, set()).add(lane)
    assert any(lanes != set(range(len(points)))
               for lanes in entered.values()), \
        "every hook entry took every lane: no budget fired apart"


def test_swaptions_fractional_commit_times(monkeypatch):
    """Past about 6k instructions, swaptions commits at non-integral
    cycles; every lane-vector operation must stay exact on them."""
    from repro.core.controller import MeekController

    points = _points("swaptions", 4, instructions=8_000, rate=0.0005)
    reference = _scalar_rows(points, monkeypatch)
    _fresh(monkeypatch)
    fractional = []
    original = MeekController.fast_commit

    def fast_commit(self, index, pc, t, *args, **kwargs):
        if t != int(t):
            fractional.append(index)
        return original(self, index, pc, t, *args, **kwargs)

    monkeypatch.setattr(MeekController, "fast_commit", fast_commit)
    assert _batch_rows(points, monkeypatch) == reference
    assert fractional, "every commit was integral: the check is vacuous"


# -- segment-memo soundness ---------------------------------------------------

def test_memo_follows_only_leaders_of_its_own_thread(monkeypatch):
    """Two threads, one point: the first thread's leader stops inside
    its checker while it holds a recording, and the second thread runs
    the same point to the end meanwhile.  Following that frozen leader
    held back consumptions the follower's log already had, so its LSL
    read fuller than it was and a segment closed early (cycles and
    ``lsl_full`` differed from serial)."""
    point = CampaignPoint(task="meek", workload="streamcluster",
                          instructions=6_000, seed=0,
                          params={"cores": 8, "fabric": "axi"})
    _fresh(monkeypatch, no_segmemo=True)
    reference = json.dumps(run_meek_point(point), sort_keys=True)
    _fresh(monkeypatch)

    paused = threading.Event()
    resume = threading.Event()
    leader_ident = []
    original = CheckerRun.advance

    def advance(self):
        if (leader_ident and threading.get_ident() == leader_ident[0]
                and self._rec is not None and self.segment.entries
                and not paused.is_set()):
            paused.set()
            resume.wait(60)
        return original(self)

    followed = []
    original_prepare = segmemo.prepare

    def prepare(run):
        original_prepare(run)
        if run._follow is not None and paused.is_set():
            followed.append(threading.get_ident())

    monkeypatch.setattr(CheckerRun, "advance", advance)
    monkeypatch.setattr(segmemo, "prepare", prepare)
    leader_rows = []

    def lead():
        leader_ident.append(threading.get_ident())
        leader_rows.append(json.dumps(run_meek_point(point),
                                      sort_keys=True))

    thread = threading.Thread(target=lead, daemon=True)
    thread.start()
    try:
        assert paused.wait(60), "the leader never held a recording"
        rows = json.dumps(run_meek_point(point), sort_keys=True)
    finally:
        resume.set()
        thread.join(60)
    assert not thread.is_alive()
    assert followed == []
    assert rows == reference
    assert leader_rows == [reference]


def test_unwound_run_retires_its_recording(monkeypatch):
    """A run that raises mid-segment (the per-point timeout does) leaves
    no in-flight recording for a later run to follow."""
    program_point = _points("swaptions", 1, instructions=3_000)[0]
    _fresh(monkeypatch)
    original = CheckerRun.advance

    class Interrupt(Exception):
        pass

    def advance(self):
        if self._rec is not None and self.segment.entries:
            raise Interrupt
        return original(self)

    monkeypatch.setattr(CheckerRun, "advance", advance)
    with pytest.raises(Interrupt):
        run_inject_point(program_point, "t")
    memo = decode_program(build_program(program_point)).memo
    assert all(rec.committed for rec in memo.values())


#: Per-segment memo outcomes of :func:`_memo_batches`, cold memo then
#: warm.  These move only when the memo's decisions do.
COLD_MEMO_COUNTS = {
    "abandon.detection": 2, "abandon.icache-miss": 5,
    "abandon.late-load": 1, "commit": 1, "fallback.leader-abandoned": 25,
    "follow": 28, "record": 9, "unarmed": 54}
WARM_MEMO_COUNTS = {
    "abandon.detection": 1, "abandon.icache-miss": 5,
    "abandon.late-load": 1, "commit": 3, "fallback.entry": 6,
    "fallback.leader-abandoned": 31, "follow": 41, "hit": 5, "record": 10,
    "unarmed": 33}


def _memo_batches():
    """Two 8-lane batches of one program over a 1 KB LSL: the second
    runs on the memo the first left."""
    points = _points("streamcluster", 16, instructions=4_000, rate=0.003,
                     lsl_kb=1)
    return points[:8], points[8:]


@pytest.mark.quick
def test_memo_outcome_counts(monkeypatch):
    """Rows stay byte-identical whether the memo hits or not, so they
    cannot show a memo that silently stopped hitting; these counts do.
    Each segment is armed once (hit, follow, record or unarmed) and
    each commit, abandon and fallback is counted once, by cause."""
    from repro.obs.metrics import get_registry, reset_registry

    _fresh(monkeypatch)
    seen = []
    try:
        for batch in _memo_batches():
            reset_registry()
            run_inject_batch(batch, "t")
            counters = get_registry().snapshot().get("counters", {})
            seen.append({name[len("segmemo."):]: value
                         for name, value in counters.items()
                         if name.startswith("segmemo.")})
    finally:
        reset_registry()
    assert seen == [COLD_MEMO_COUNTS, WARM_MEMO_COUNTS]


def test_memo_dies_with_its_program(monkeypatch):
    """The memo table and the batch plans live on the decoded program,
    so once the campaign program cache drops a program, nothing keeps
    its decode alive."""
    import gc

    from repro.perf.decode import DecodedProgram

    def live_decodes():
        gc.collect()
        return sum(isinstance(obj, DecodedProgram)
                   for obj in gc.get_objects())

    _fresh(monkeypatch)
    before = live_decodes()
    batch = _memo_batches()[0]
    run_inject_batch(batch, "t")
    decoded = decode_program(build_program(batch[0]))
    assert decoded.memo and decoded.batch_plans, \
        "the batch left no memo: the check is vacuous"
    del decoded
    _PROGRAM_CACHE.clear()
    assert live_decodes() == before


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
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
        assert resolve_batch_lanes(64) == 1


class TestGrouping:
    def test_resolve_batch_lanes(self, monkeypatch):
        from repro.perf.batch import DEFAULT_BATCH_LANES

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
