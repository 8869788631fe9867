"""Slow-vs-fast kernel differential suite.

``REPRO_SLOW_KERNEL=1`` runs the naive decode-per-instruction loops —
the pre-optimization kernel — while the default fast kernel runs the
decoded closure tables and the exec-compiled steppers of
:mod:`repro.perf`.  These tests hold the two kernels **bit-identical**:
every workload profile and a difftest fuzz sample run through both,
asserting equal cycle counts, architectural state, segment structure,
stall attribution, verdicts, and fault-detection latencies.
"""

import pytest

from repro.common.config import default_meek_config
from repro.common.prng import DeterministicRng
from repro.core.faults import CANONICAL_MODEL_SPECS, FaultInjector
from repro.core.system import MeekSystem, run_vanilla
from repro.difftest.golden import run_golden, snapshot
from repro.difftest.progen import generate_fuzz_program
from repro.isa.state import ArchState
from repro.workloads import all_profiles, generate_program, get_profile

PROFILE_NAMES = [profile.name for profile in all_profiles()]


def _set_kernel(monkeypatch, slow):
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")


def _meek_fingerprint(program, cores=2, injector=None):
    """Everything observable from one MEEK + vanilla execution."""
    vanilla = run_vanilla(program)
    config = default_meek_config(num_little_cores=cores)
    result = MeekSystem(config, injector=injector).run(program)
    state = result.big.state
    return {
        "vanilla": (vanilla.cycles, vanilla.instructions,
                    vanilla.predictor_stats, str(vanilla.memory_stats)),
        "meek": (result.cycles, result.instructions, result.drain_cycle),
        "segments": [(s.seg_id, s.start_cycle, s.close_cycle, s.instr_count,
                      s.end_reason) for s in result.segments],
        "verdicts": [(v.ok, v.finish_cycle, v.detect_cycle, v.reason)
                     for v in result.verdicts],
        "stalls": {r.value: c
                   for r, c in result.controller.stall_cycles.items()},
        "controller": str(result.controller.stats()),
        "int_regs": tuple(state.int_regs),
        "fp_regs": tuple(state.fp_regs),
        "pc": state.pc,
        "csrs": tuple(sorted(state.csrs.items())),
        "memory": tuple(sorted(state.memory.snapshot().items())),
        "detections": result.detections,
        "latencies_ns": result.detection_latencies_ns(),
    }


@pytest.mark.parametrize("profile_name", PROFILE_NAMES)
def test_every_workload_profile_bit_identical(profile_name, monkeypatch):
    program = generate_program(get_profile(profile_name),
                               dynamic_instructions=2_000, seed=3)
    _set_kernel(monkeypatch, slow=True)
    slow = _meek_fingerprint(program)
    _set_kernel(monkeypatch, slow=False)
    fast = _meek_fingerprint(program)
    assert slow == fast


@pytest.mark.quick
def test_swaptions_bit_identical_quick(monkeypatch):
    program = generate_program(get_profile("swaptions"),
                               dynamic_instructions=3_000, seed=0)
    _set_kernel(monkeypatch, slow=True)
    slow = _meek_fingerprint(program, cores=4)
    _set_kernel(monkeypatch, slow=False)
    fast = _meek_fingerprint(program, cores=4)
    assert slow == fast


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fault_injection_latencies_bit_identical(seed, monkeypatch):
    """Injected faults detect at the same cycle on both kernels."""
    program = generate_program(get_profile("dedup"),
                               dynamic_instructions=4_000, seed=seed)

    def fingerprint():
        injector = FaultInjector(DeterministicRng(f"equiv/{seed}"),
                                 rate=0.02)
        fp = _meek_fingerprint(program, cores=2, injector=injector)
        fp["injections"] = [(r.cycle, r.seg_id, r.target.value, r.bit,
                             r.detected, r.latency_cycles)
                            for r in injector.injections]
        return fp

    _set_kernel(monkeypatch, slow=True)
    slow = fingerprint()
    _set_kernel(monkeypatch, slow=False)
    fast = fingerprint()
    assert slow["injections"] == fast["injections"]
    assert slow["latencies_ns"] == fast["latencies_ns"]
    assert slow == fast


@pytest.mark.parametrize("model_spec", CANONICAL_MODEL_SPECS)
def test_every_fault_model_bit_identical_across_kernels(model_spec,
                                                        monkeypatch):
    """Every registered fault model — including the multi-bit, the
    correlated and the permanent stuck-at — injects, detects and
    resolves identically on the fast and slow kernels, across all
    targets (DC-Buffer and fabric hooks included)."""
    program = generate_program(get_profile("ferret"),
                               dynamic_instructions=4_000, seed=11)

    def fingerprint():
        injector = FaultInjector(DeterministicRng(f"equiv/{model_spec}"),
                                 rate=0.02, targets="all",
                                 model=model_spec)
        fp = _meek_fingerprint(program, cores=2, injector=injector)
        fp["injections"] = [(r.cycle, r.seg_id, r.target.value, r.bits,
                             r.detail, r.model, r.permanent, r.detected,
                             r.latency_cycles)
                            for r in injector.injections]
        return fp

    _set_kernel(monkeypatch, slow=True)
    slow = fingerprint()
    _set_kernel(monkeypatch, slow=False)
    fast = fingerprint()
    assert slow["injections"], f"{model_spec}: the campaign must inject"
    assert slow["injections"] == fast["injections"]
    assert slow == fast


@pytest.mark.parametrize("index", range(6))
def test_difftest_fuzz_sample_bit_identical(index, monkeypatch):
    """A fuzz sample executes identically on both kernels (golden and
    the full MEEK pipeline), covering op mixes the workload generator
    never emits."""
    fuzz = generate_fuzz_program(DeterministicRng(f"equiv-fuzz/{index}"))
    program = fuzz.build()

    def run_both():
        golden = run_golden(program, max_instructions=5_000)
        fp = {"golden": (golden.instructions, golden.halted_by,
                         tuple(sorted(snapshot(golden.state)["mem"].items())),
                         tuple(golden.state.int_regs),
                         tuple(golden.state.fp_regs), golden.state.pc)}
        fp.update(_meek_fingerprint(program))
        return fp

    _set_kernel(monkeypatch, slow=True)
    slow = run_both()
    _set_kernel(monkeypatch, slow=False)
    fast = run_both()
    assert slow == fast


def test_meek_extension_ops_replay_bit_identical(monkeypatch):
    """A checked program containing MEEK-extension ops replays through
    the fused checker closures (regression: the replay maker must bind
    a null MEEK handler)."""
    from repro.isa.assembler import assemble

    source = "\n".join(
        ["addi x5, x0, 7", "addi x6, x0, 5"]
        + ["add x7, x5, x6", "l.rslt x8", "sd x7, 0(x0)",
           "ld x9, 0(x0)"] * 30
        + ["ecall"])
    program = assemble(source, name="meek-ops")

    _set_kernel(monkeypatch, slow=True)
    slow = _meek_fingerprint(program)
    _set_kernel(monkeypatch, slow=False)
    fast = _meek_fingerprint(program)
    assert slow == fast


def test_one_system_many_programs_no_stale_replay(monkeypatch):
    """Reusing one MeekSystem across many distinct programs must never
    serve a stale replay table (regression: the per-pipeline cache was
    keyed by id(), which collides after garbage collection)."""
    _set_kernel(monkeypatch, slow=False)
    system = MeekSystem(default_meek_config(num_little_cores=2))
    for index in range(25):
        program = generate_program(get_profile("mcf"),
                                   dynamic_instructions=400,
                                   seed=1000 + index)
        result = system.run(program)
        assert result.all_segments_verified, (
            f"false divergence on program {index}: stale replay table")


def test_replay_tables_shared_per_little_core_config(monkeypatch):
    """One replay closure table per (decoded program, little-core
    timing constants): every core of a system and every pipeline with
    equal constants share it, a different little-core configuration
    gets its own, and closures are built on first replay."""
    from dataclasses import replace

    from repro.common.config import LittleCoreConfig
    from repro.littlecore.pipeline import LittleCorePipeline
    from repro.perf.decode import decode_program
    from repro.perf.jit import replay_table

    _set_kernel(monkeypatch, slow=False)
    program = generate_program(get_profile("swaptions"),
                               dynamic_instructions=800, seed=5)
    decoded = decode_program(program)
    first = LittleCorePipeline(LittleCoreConfig())
    second = LittleCorePipeline(LittleCoreConfig())
    table = replay_table(decoded, first)
    assert replay_table(decoded, second) is table
    assert len(set(map(id, table))) == 1, "closures built before replay"
    rocket = LittleCorePipeline(replace(LittleCoreConfig(), div_unroll=1))
    assert replay_table(decoded, rocket) is not table
    slower_clock = LittleCorePipeline(LittleCoreConfig(), clock_ratio=3)
    assert replay_table(decoded, slower_clock) is not table
    assert len(decoded.replay_tables) == 3

    result = MeekSystem(default_meek_config(num_little_cores=4)).run(
        program)
    assert result.all_segments_verified
    assert len(decoded.replay_tables) == 3
    assert len(set(map(id, table))) > 1, "replay built no closure"
    assert not hasattr(first, "_replay_tables")


def test_controller_subclass_hook_not_bypassed(monkeypatch):
    """A MeekController subclass overriding commit_hook must have its
    override invoked on the fast kernel (regression: the JIT's scalar
    fast path must only engage for the unmodified controller)."""
    from repro.core.controller import MeekController
    from repro.core.system import MeekSystem

    calls = []

    class CountingController(MeekController):
        def commit_hook(self, event):
            calls.append(event.index)
            return super().commit_hook(event)

    _set_kernel(monkeypatch, slow=False)
    program = generate_program(get_profile("mcf"),
                               dynamic_instructions=500, seed=5)
    system = MeekSystem(default_meek_config(num_little_cores=2))
    baseline = system.run(program)

    monkeypatch.setattr("repro.core.system.MeekController",
                        CountingController)
    system = MeekSystem(default_meek_config(num_little_cores=2))
    result = system.run(program)
    assert len(calls) == result.instructions, \
        "the subclass override was bypassed by the JIT fast path"
    assert result.cycles == baseline.cycles


def test_compiled_closures_match_interpreter_per_op(monkeypatch):
    """Every op's compiled closure leaves state and ExecResult fields
    exactly as the interpreted executor does."""
    from repro.isa.instructions import Instruction, SPECS
    from repro.isa.semantics import execute
    from repro.perf.decode import compile_instruction

    rng = DeterministicRng("per-op")
    result_fields = ("next_pc", "taken", "is_load", "is_store", "mem_addr",
                     "mem_size", "mem_value", "csr_addr", "csr_value",
                     "trap", "meek_op", "wrote_int_rd", "wrote_fp_rd",
                     "rd_value")

    def fresh_state():
        state = ArchState(pc=0x1000, priv_kernel=True)
        for i in range(32):
            state.int_regs[i] = rng.bit64() if i else 0
            state.fp_regs[i] = rng.bit64()
        state.memory.store_word(0x8000, 0x1234_5678_9ABC_DEF0)
        return state

    for op, spec in SPECS.items():
        for trial in range(8):
            rd = rng.randint(0, 31)
            rs1 = rng.randint(0, 31)
            rs2 = rng.randint(0, 31)
            if spec.iclass.value in ("load", "store"):
                imm = 8 * rng.randint(0, 8)
                rs1 = 0  # x0 base: keep addresses aligned and in range
                instr = Instruction(op, rd=rd, rs1=rs1, rs2=rs2,
                                    imm=0x8000 + imm)
            elif spec.fmt.value in ("csr", "csri"):
                instr = Instruction(op, rd=rd, rs1=rs1,
                                    imm=rng.randint(0, 64))
            elif spec.fmt.value == "shift":
                instr = Instruction(op, rd=rd, rs1=rs1,
                                    imm=rng.randint(0, 63))
            else:
                instr = Instruction(op, rd=rd, rs1=rs1, rs2=rs2,
                                    imm=4 * rng.randint(-64, 64))
            state_a = fresh_state()
            state_b = state_a.copy(share_memory=False)

            res_a = execute(instr, state_a)
            res_b = compile_instruction(instr)(state_b, None, None)

            for field in result_fields:
                assert getattr(res_a, field) == getattr(res_b, field), (
                    f"{op} trial {trial}: ExecResult.{field} differs")
            assert state_a.int_regs == state_b.int_regs, op
            assert state_a.fp_regs == state_b.fp_regs, op
            assert state_a.pc == state_b.pc, op
            assert state_a.csrs == state_b.csrs, op
            assert (state_a.memory.snapshot()
                    == state_b.memory.snapshot()), op


@pytest.mark.parametrize("timeout", [1, 2, 3, 7, 64])
def test_tiny_checkpoint_timeouts_bit_identical(timeout, monkeypatch):
    """Hook-path elimination edge cases: the inline dormant-commit
    counter must hand control back to the controller on exactly the
    commit that reaches the checkpoint timeout, for any timeout —
    including 1 (every commit closes a segment, the inline path never
    fires) and values small enough that segments close mid-burst."""
    from dataclasses import replace

    program = generate_program(get_profile("hmmer"),
                               dynamic_instructions=1_200, seed=5)
    config = default_meek_config(num_little_cores=2)
    little = config.little_core
    config = replace(config, little_core=replace(
        little, lsl=replace(little.lsl, instruction_timeout=timeout)))

    def fingerprint():
        result = MeekSystem(config).run(program)
        return ([(s.seg_id, s.instr_count, s.end_reason, s.close_cycle)
                 for s in result.segments],
                result.cycles, str(result.controller.stats()))

    _set_kernel(monkeypatch, slow=False)
    fast = fingerprint()
    _set_kernel(monkeypatch, slow=True)
    assert fast == fingerprint()


def test_checking_disabled_bit_identical(monkeypatch):
    """With the DEU off the fast kernel absorbs every commit inline
    (unbounded budget); timing must still match the slow kernel."""
    from dataclasses import replace

    program = generate_program(get_profile("dedup"),
                               dynamic_instructions=1_500, seed=2)
    config = replace(default_meek_config(num_little_cores=2),
                     checking_enabled=False)

    def run():
        result = MeekSystem(config).run(program)
        return (result.cycles, result.instructions, len(result.segments),
                tuple(result.big.state.int_regs))

    _set_kernel(monkeypatch, slow=False)
    fast = run()
    _set_kernel(monkeypatch, slow=True)
    assert fast == run()


def test_jit_makers_compile_for_every_op():
    """Every op in the ISA compiles in all stepper modes."""
    from repro.isa.instructions import SPECS
    from repro.perf import jit

    for op in SPECS:
        for mode in ("lean", "hooked", "fast"):
            assert jit._big_maker(op, mode) is not None
        assert jit._golden_maker(op) is not None
        assert jit._replay_maker(op) is not None


def test_slow_kernel_env_toggle(monkeypatch):
    from repro.perf.decode import slow_kernel_enabled

    monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
    assert not slow_kernel_enabled()
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
    assert not slow_kernel_enabled()
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
    assert slow_kernel_enabled()
