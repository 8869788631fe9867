"""Property battery for the fault-model layer.

The invariants every :class:`~repro.core.faults.FaultModel` must hold,
checked across the canonical model sweep rather than one model at a
time:

* upset models (single/burst/correlated) are involutions — applying
  the same flip twice restores the word;
* planned bit positions always land inside the declared word width
  (and PC flips inside the 32-bit PC window), whatever the RNG draws;
* faults only ever touch the *transmitted* copies — the big core's
  architectural state after a saturated campaign is bit-identical to
  an uninjected run;
* the segment guard gap holds for every model, and a permanent model
  arms exactly once;
* two injectors built from equal RNG keys emit identical
  :class:`~repro.core.faults.InjectionRecord` streams;
* a target set with no candidates for an injection point makes that
  point a no-op (regression: the weighted choice used to index an
  empty draw and raise ``IndexError``).
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.prng import DeterministicRng
from repro.core.faults import (
    ALL_TARGET_WEIGHTS,
    CANONICAL_MODEL_SPECS,
    DEFAULT_TARGET_WEIGHTS,
    FaultInjector,
    FaultTarget,
    PC_BIT_HI,
    PC_BIT_LO,
    force_bits,
    parse_fault_model,
    parse_fault_targets,
)
from repro.fabric.packets import (
    Packet,
    PacketKind,
    RuntimeEntry,
    RuntimeKind,
    StatusSnapshot,
)

UPSET_SPECS = ("single", "burst:width=3", "correlated:span=2")


def make_entry(seq=0, addr=0x1000, data=0xDEAD_BEEF):
    return RuntimeEntry(RuntimeKind.LOAD, addr, data, 8, seq=seq)


def make_snapshot(seg_id=0, pc=0x2000):
    return StatusSnapshot(seg_id, seg_id, pc,
                          [0x1111 * i for i in range(32)],
                          [0x2222 * i for i in range(32)], {})


def make_status_packet(seg_id=0):
    return Packet(PacketKind.STATUS, make_snapshot(seg_id), seg_id,
                  created_cycle=0, dests=(1,))


def drive(injector, segments, per_segment_packets=2):
    """Offer runtime + status + dcbuf + fabric packets over many
    segments; returns the record stream as comparable tuples."""
    cycle = 0
    for seg_id in range(segments):
        for _ in range(per_segment_packets):
            injector.maybe_inject_runtime(make_entry(seq=cycle), cycle,
                                          seg_id)
            cycle += 1
        injector.maybe_inject_dcbuf(make_entry(seq=cycle), cycle, seg_id)
        cycle += 1
        injector.maybe_inject_status(make_snapshot(seg_id), cycle, seg_id)
        cycle += 1
        injector.maybe_inject_fabric(make_status_packet(seg_id), cycle)
        cycle += 1
    return [(r.cycle, r.seg_id, r.target, r.bit, r.bits, r.detail,
             r.model, r.permanent) for r in injector.injections]


# -- satellite regression: restricted target sets ---------------------------


@pytest.mark.quick
class TestRestrictedTargets:
    """A target mix that excludes an injection point must make that
    point return ``None`` — never raise on an empty candidate list."""

    def test_status_only_runtime_path_is_noop(self):
        injector = FaultInjector(DeterministicRng(1), rate=1.0,
                                 targets="status")
        entry = make_entry()
        for cycle in range(20):
            assert injector.maybe_inject_runtime(entry, cycle, cycle) \
                is None
        assert entry.addr == 0x1000 and entry.data == 0xDEAD_BEEF
        assert injector.injections == []

    def test_runtime_only_status_path_is_noop(self):
        injector = FaultInjector(DeterministicRng(1), rate=1.0,
                                 targets="runtime")
        snap = make_snapshot()
        baseline = (snap.pc, snap.int_regs, snap.fp_regs)
        for cycle in range(20):
            assert injector.maybe_inject_status(snap, cycle, cycle) is None
        assert (snap.pc, snap.int_regs, snap.fp_regs) == baseline

    def test_single_target_dict_other_paths_noop(self):
        # The original failing shape: an explicit one-target dict.
        injector = FaultInjector(DeterministicRng(2), rate=1.0,
                                 targets={FaultTarget.STATUS_PC: 1})
        assert injector.maybe_inject_runtime(make_entry(), 0, 0) is None
        assert injector.maybe_inject_dcbuf(make_entry(), 1, 0) is None
        assert injector.maybe_inject_fabric(make_status_packet(0), 2) \
            is None
        record = injector.maybe_inject_status(make_snapshot(), 3, 0)
        assert record is not None and record.target is FaultTarget.STATUS_PC

    def test_default_targets_exclude_dcbuf_and_fabric(self):
        injector = FaultInjector(DeterministicRng(3), rate=1.0)
        assert not injector.wants_dcbuf
        assert not injector.wants_fabric
        for cycle in range(20):
            assert injector.maybe_inject_dcbuf(make_entry(), cycle,
                                               cycle) is None
            assert injector.maybe_inject_fabric(
                make_status_packet(cycle), cycle) is None

    def test_fabric_ignores_runtime_packets(self):
        injector = FaultInjector(DeterministicRng(4), rate=1.0,
                                 targets="fabric")
        packet = Packet(PacketKind.RUNTIME, make_entry(), 0,
                        created_cycle=0, dests=(1,))
        assert injector.maybe_inject_fabric(packet, 0) is None


# -- model-plane properties -------------------------------------------------


@pytest.mark.quick
@pytest.mark.parametrize("spec", UPSET_SPECS)
def test_upset_models_are_involutions(spec):
    model = parse_fault_model(spec)
    rng = DeterministicRng(f"involution/{spec}")
    for _ in range(200):
        value = rng.bit64()
        bits = model.plan_bits(rng, 64)
        corrupted = model.apply(value, bits)
        assert corrupted != value  # a flip is never a no-op
        assert model.apply(corrupted, bits) == value


@pytest.mark.quick
@pytest.mark.parametrize("spec", CANONICAL_MODEL_SPECS)
def test_planned_bits_stay_inside_word(spec):
    model = parse_fault_model(spec)
    rng = DeterministicRng(f"bounds/{spec}")
    for _ in range(300):
        bits = model.plan_bits(rng, 64)
        assert bits, "a plan always names at least one bit"
        assert all(0 <= bit < 64 for bit in bits)
        assert list(bits) == sorted(bits)
        pc_bits = model.plan_pc_bits(rng)
        assert all(PC_BIT_LO <= bit <= PC_BIT_HI for bit in pc_bits)


@pytest.mark.quick
def test_burst_is_contiguous_and_respects_narrow_words():
    model = parse_fault_model("burst:width=5")
    rng = DeterministicRng("burst/narrow")
    for width in (3, 5, 8, 64):
        for _ in range(100):
            bits = model.plan_bits(rng, width)
            assert len(bits) == min(5, width)
            assert all(0 <= bit < width for bit in bits)
            assert bits == tuple(range(bits[0], bits[0] + len(bits)))


@pytest.mark.quick
def test_force_bits_is_idempotent_not_involutive():
    rng = DeterministicRng("stuck")
    for _ in range(100):
        value = rng.bit64()
        bits = (rng.bit_index(64),)
        for level in (0, 1):
            once = force_bits(value, bits, level)
            assert force_bits(once, bits, level) == once
            assert (once >> bits[0]) & 1 == level


@pytest.mark.quick
def test_model_and_target_spec_validation():
    for bad in ("burst:width=0", "burst:width=65", "correlated:span=1",
                "correlated:span=33", "stuckat:value=2", "stuckat:bit=64",
                "nosuchmodel", "burst:width", "burst:width=three",
                "single:width=2"):
        with pytest.raises(ConfigError):
            parse_fault_model(bad)
    for bad in ("nosuchgroup", "runtime.nosuch", ",,"):
        with pytest.raises(ConfigError):
            parse_fault_targets(bad)
    assert parse_fault_targets(None) == DEFAULT_TARGET_WEIGHTS
    assert parse_fault_targets("default") == DEFAULT_TARGET_WEIGHTS
    assert parse_fault_targets("all") == ALL_TARGET_WEIGHTS
    assert set(parse_fault_targets("dcbuf,fabric")) == {
        FaultTarget.DCBUF_RUNTIME, FaultTarget.FABRIC_STATUS}
    assert set(parse_fault_targets("runtime.addr")) == {
        FaultTarget.RUNTIME_ADDR}


@pytest.mark.quick
def test_canonical_specs_round_trip():
    for spec in CANONICAL_MODEL_SPECS:
        model = parse_fault_model(spec)
        assert model.spec == spec
        assert parse_fault_model(model.spec).spec == spec


# -- injector-plane properties ----------------------------------------------


@pytest.mark.quick
@pytest.mark.parametrize("spec", CANONICAL_MODEL_SPECS)
def test_guard_gap_invariant(spec):
    injector = FaultInjector(DeterministicRng(f"gap/{spec}"), rate=1.0,
                             targets="all", segment_gap=2, model=spec)
    records = drive(injector, segments=120)
    if parse_fault_model(spec).permanent:
        assert len(records) == 1, "a permanent fault arms exactly once"
        return
    assert records, "rate=1.0 over 120 segments must inject"
    seg_ids = [record[1] for record in records]
    assert all(b - a > 2 for a, b in zip(seg_ids, seg_ids[1:]))


@pytest.mark.quick
@pytest.mark.parametrize("spec", CANONICAL_MODEL_SPECS)
def test_equal_rng_keys_equal_record_streams(spec):
    def stream():
        rng = DeterministicRng("determinism").fork(spec)
        injector = FaultInjector(rng, rate=0.3, targets="all", model=spec)
        return drive(injector, segments=80)

    assert stream() == stream()


@pytest.mark.quick
def test_forked_streams_are_independent():
    parent = DeterministicRng("independence")
    records_a = drive(FaultInjector(parent.fork("a"), rate=0.5), 60)
    # Draining the sibling stream first must not change fork("a").
    parent2 = DeterministicRng("independence")
    drive(FaultInjector(parent2.fork("b"), rate=0.5), 60)
    assert drive(FaultInjector(parent2.fork("a"), rate=0.5), 60) \
        == records_a


@pytest.mark.quick
def test_stuckat_forces_every_later_runtime_packet():
    injector = FaultInjector(DeterministicRng(7), rate=1.0,
                             targets={FaultTarget.RUNTIME_DATA: 1},
                             model="stuckat:bit=5,value=1")
    first = make_entry(data=0)
    record = injector.maybe_inject_runtime(first, 0, 0)
    assert record is not None and record.permanent
    assert first.data == 1 << 5
    for seg_id in range(1, 10):
        entry = make_entry(data=0, addr=0x40)
        assert injector.maybe_inject_runtime(entry, seg_id, seg_id) is None
        assert entry.data == 1 << 5, "the stuck line persists"
        assert entry.addr == 0x40, "only the faulted field is forced"
    assert len(injector.injections) == 1


@pytest.mark.quick
def test_stuckat_pc_forces_every_later_snapshot():
    injector = FaultInjector(DeterministicRng(8), rate=1.0,
                             targets={FaultTarget.STATUS_PC: 1},
                             model="stuckat:bit=4,value=1")
    record = injector.maybe_inject_status(make_snapshot(pc=0x2000), 0, 0)
    assert record is not None
    snap = make_snapshot(seg_id=3, pc=0x2000)
    assert injector.maybe_inject_status(snap, 30, 3) is None
    assert snap.pc == 0x2000 | (1 << 4)


@pytest.mark.quick
def test_stuckat_dcbuf_line_forces_only_buffered_records():
    injector = FaultInjector(DeterministicRng(10), rate=1.0,
                             targets={FaultTarget.DCBUF_RUNTIME: 1},
                             model="stuckat:bit=3,value=1")
    record = injector.maybe_inject_dcbuf(make_entry(addr=0, data=0), 0, 0)
    assert record is not None and record.permanent
    field = "addr" if record.detail.endswith(".addr") else "data"
    for seg_id in range(1, 6):
        buffered = make_entry(addr=0, data=0)
        assert injector.maybe_inject_dcbuf(buffered, seg_id, seg_id) is None
        assert getattr(buffered, field) == 1 << 3, "the stuck line persists"
        forwarded = make_entry(addr=0, data=0)
        injector.maybe_inject_runtime(forwarded, seg_id, seg_id)
        assert (forwarded.addr, forwarded.data) == (0, 0), \
            "a DC-Buffer line leaves the forward-time copy alone"


@pytest.mark.quick
def test_stuckat_fabric_line_forces_only_fabric_snapshots():
    injector = FaultInjector(DeterministicRng(11), rate=1.0,
                             targets={FaultTarget.FABRIC_STATUS: 1},
                             model="stuckat:bit=2,value=1")

    def zeroed(seg_id):
        return StatusSnapshot(seg_id, seg_id, 0x2000, [0] * 32, [0] * 32, {})

    def packet(seg_id):
        return Packet(PacketKind.STATUS, zeroed(seg_id), seg_id,
                      created_cycle=0, dests=(1,))

    record = injector.maybe_inject_fabric(packet(0), 0)
    assert record is not None and record.permanent
    reg = int(record.detail.split(":x")[1])
    for seg_id in range(1, 6):
        later = packet(seg_id)
        assert injector.maybe_inject_fabric(later, seg_id) is None
        assert later.payload.int_regs[reg] == 1 << 2, \
            "the stuck line persists"
        snapshot = zeroed(seg_id)
        injector.maybe_inject_status(snapshot, seg_id, seg_id)
        assert snapshot.int_regs == (0,) * 32, \
            "a fabric line leaves the forward-time snapshot alone"


@pytest.mark.quick
def test_permanent_resolution_matches_any_later_segment():
    injector = FaultInjector(DeterministicRng(9), rate=1.0,
                             targets={FaultTarget.RUNTIME_DATA: 1},
                             model="stuckat:bit=0,value=1")
    injector.maybe_inject_runtime(make_entry(data=0), 100, 2)
    # Detection far past seg+1: only a permanent record may claim it.
    injector.resolve_detections([(9, 900, "store-data-mismatch")])
    assert injector.injections[0].detected
    assert injector.injections[0].latency_cycles == 800


@pytest.mark.quick
def test_correlated_span_hits_adjacent_words_same_bit():
    injector = FaultInjector(DeterministicRng(10), rate=1.0,
                             targets={FaultTarget.STATUS_INT_REG: 1},
                             model="correlated:span=3")
    snap = make_snapshot()
    baseline = snap.int_regs
    record = injector.maybe_inject_status(snap, 0, 0)
    assert record is not None
    flipped = [i for i in range(32) if snap.int_regs[i] != baseline[i]]
    assert 2 <= len(flipped) <= 3  # 2 only when the span clips at x31
    assert flipped == list(range(flipped[0], flipped[0] + len(flipped)))
    masks = {snap.int_regs[i] ^ baseline[i] for i in flipped}
    assert len(masks) == 1, "the same bit line crosses adjacent words"


@pytest.mark.quick
def test_correlated_runtime_record_hits_addr_and_data():
    injector = FaultInjector(DeterministicRng(11), rate=1.0,
                             targets="runtime", model="correlated:span=2")
    entry = make_entry()
    record = injector.maybe_inject_runtime(entry, 0, 0)
    assert record is not None
    assert entry.addr != 0x1000 and entry.data != 0xDEAD_BEEF
    assert (entry.addr ^ 0x1000) == (entry.data ^ 0xDEAD_BEEF)


@pytest.mark.quick
def test_dcbuf_and_fabric_records_carry_their_structures():
    injector = FaultInjector(DeterministicRng(12), rate=1.0,
                             targets="dcbuf,fabric")
    assert injector.wants_dcbuf and injector.wants_fabric
    record = injector.maybe_inject_dcbuf(make_entry(), 0, 0)
    assert record is not None
    assert record.structure == "dcbuf.runtime"
    assert record.detail.startswith("dcbuf:")
    record = injector.maybe_inject_fabric(make_status_packet(5), 50)
    assert record is not None
    assert record.structure == "fabric.status"
    assert record.detail.startswith("fabric:x")
    assert record.seg_id == 5


# -- system-plane property: the big core is never disturbed -----------------


@pytest.mark.parametrize("spec", CANONICAL_MODEL_SPECS)
def test_architectural_state_untouched_by_saturated_campaign(spec):
    """Sec. V-B: faults land on the forwarded copies only.  Even a
    saturated campaign (every eligible packet corrupted, all targets)
    leaves the big core's final architectural state bit-identical to
    an uninjected run."""
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem
    from repro.workloads import generate_program, get_profile

    program = generate_program(get_profile("dedup"),
                               dynamic_instructions=2_000, seed=13)
    config = default_meek_config(num_little_cores=2)

    def final_state(injector):
        result = MeekSystem(config, injector=injector).run(program)
        state = result.big.state
        return (tuple(state.int_regs), tuple(state.fp_regs), state.pc,
                tuple(sorted(state.csrs.items())),
                tuple(sorted(state.memory.snapshot().items())))

    clean = final_state(None)
    injector = FaultInjector(DeterministicRng(f"arch/{spec}"), rate=1.0,
                             targets="all", model=spec)
    assert final_state(injector) == clean
    assert injector.injections, "the saturated campaign did inject"
