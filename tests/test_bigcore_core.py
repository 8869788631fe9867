"""Tests for the OoO big-core timing model."""

import pytest

from repro.bigcore.core import BigCore, _FuPool, run_program
from repro.common.config import BigCoreConfig
from repro.common.errors import SimulationError
from repro.isa import assemble


def loop_program(body, iterations=200, prologue=""):
    return assemble(f"""
        {prologue}
        li t0, 0
        li t1, {iterations}
    loop:
        {body}
        addi t0, t0, 1
        bne t0, t1, loop
        ecall
    """)


class TestFunctionalCorrectness:
    def test_architectural_state_matches_reference(self):
        program = loop_program("add t2, t2, t0\nslli t3, t0, 2")
        result = run_program(program)
        # Reference: sum of 0..199 in t2.
        assert result.state.read_int(7) == sum(range(200))
        assert result.halted_by == "ecall"

    def test_memory_state_correct(self):
        program = assemble("""
            li t0, 0x2000
            li t1, 123
            sd t1, 0(t0)
            sd t1, 8(t0)
            ecall
        """)
        result = run_program(program)
        assert result.state.memory.load_word(0x2008) == 123

    def test_instruction_count(self):
        program = assemble("nop\nnop\nnop\necall")
        result = run_program(program)
        assert result.instructions == 4

    def test_max_instructions_limit(self):
        program = loop_program("nop", iterations=10_000)
        result = run_program(program, max_instructions=500)
        assert result.instructions == 500
        assert result.halted_by == "limit"

    def test_runs_off_end_without_trap(self):
        program = assemble("addi t0, zero, 1")
        result = run_program(program)
        assert result.halted_by == "end"


class TestTimingBehaviour:
    def test_ilp_extracts_parallelism(self):
        # Independent adds reach multi-issue IPC; a serial chain is ~1.
        independent = loop_program(
            "add t2, t0, t1\nadd t3, t0, t1\nadd t4, t0, t1\n"
            "add t5, t0, t1")
        chained = loop_program(
            "add t2, t2, t0\nadd t2, t2, t0\nadd t2, t2, t0\n"
            "add t2, t2, t0")
        ipc_ind = run_program(independent).ipc
        ipc_chain = run_program(chained).ipc
        assert ipc_ind > ipc_chain * 1.2

    def test_commit_width_bounds_ipc(self):
        program = loop_program("add t2, t0, t1\n" * 8)
        result = run_program(program)
        assert result.ipc <= BigCoreConfig().commit_width

    def test_divider_serializes(self):
        fast = run_program(loop_program("add t2, t0, t1"))
        slow = run_program(loop_program("div t2, t0, t1"))
        assert slow.cycles > fast.cycles * 2

    def test_cache_misses_slow_execution(self):
        # Strided walk over 8 MB vs repeatedly touching one line.
        big = loop_program("ld t2, 0(t3)\nadd t3, t3, t4",
                           prologue="li t3, 0x100000\nli t4, 4096")
        small = loop_program("ld t2, 0(t3)",
                             prologue="li t3, 0x100000\nli t4, 0")
        assert run_program(big).cycles > run_program(small).cycles

    def test_mispredicted_branches_cost_cycles(self):
        # Data-dependent branches driven by an LCG vs a fixed pattern.
        random_branches = loop_program("""
            mul  t6, t6, t4
            addi t6, t6, 1013
            srli t5, t6, 13
            andi t5, t5, 1
            beq  t5, zero, 8
            add  t2, t2, t0
        """, prologue="li t6, 12345\nli t4, 1103515245")
        biased = loop_program("""
            mul  t6, t6, t4
            addi t6, t6, 1013
            andi t5, zero, 1
            beq  t5, zero, 8
            add  t2, t2, t0
        """, prologue="li t6, 12345\nli t4, 1103515245")
        r_rand = run_program(random_branches)
        r_bias = run_program(biased)
        assert r_rand.predictor_stats["mispredict_rate"] > 0.1
        assert r_bias.cycles < r_rand.cycles

    def test_scaled_core_is_slower(self):
        program = loop_program("add t2, t0, t1\nadd t3, t0, t1\n"
                               "ld t4, 0(t5)\nxor t6, t2, t3",
                               prologue="li t5, 0x2000")
        full = run_program(program)
        scaled = run_program(program, config=BigCoreConfig().scaled(0.4))
        assert scaled.cycles > full.cycles
        # Same architectural outcome regardless of configuration.
        assert scaled.state.int_regs == full.state.int_regs

    def test_cycles_monotone_in_instructions(self):
        short = run_program(loop_program("nop", iterations=50))
        long = run_program(loop_program("nop", iterations=500))
        assert long.cycles > short.cycles


class TestCommitHook:
    def test_hook_sees_every_commit_in_order(self):
        program = assemble("addi t0, zero, 1\naddi t1, zero, 2\necall")
        seen = []

        def hook(event):
            seen.append((event.index, event.instr.op))
            return event.commit_cycle

        run_program(program, commit_hook=hook)
        assert seen == [(0, "addi"), (1, "addi"), (2, "ecall")]

    def test_hook_commit_times_monotone(self):
        program = loop_program("add t2, t0, t1\nld t3, 0(t4)",
                               prologue="li t4, 0x2000")
        times = []
        run_program(program,
                    commit_hook=lambda e: times.append(e.commit_cycle)
                    or e.commit_cycle)
        assert times == sorted(times)

    def test_hook_stall_slows_core(self):
        program = loop_program("add t2, t0, t1", iterations=300)
        plain = run_program(program)

        def stall(event):
            return event.commit_cycle + 2

        stalled = run_program(loop_program("add t2, t0, t1", iterations=300),
                              commit_hook=stall)
        assert stalled.cycles > plain.cycles * 1.5

    def test_hook_cannot_move_commit_backwards(self):
        program = assemble("nop\necall")
        with pytest.raises(SimulationError):
            run_program(program, commit_hook=lambda e: e.commit_cycle - 1)

    def test_hook_none_return_keeps_time(self):
        program = assemble("nop\necall")
        result = run_program(program, commit_hook=lambda e: None)
        assert result.instructions == 2

    def test_commit_slots_within_width(self):
        program = loop_program("add t2, t0, t1\n" * 6)
        slots = []
        run_program(program,
                    commit_hook=lambda e: slots.append(e.commit_slot)
                    or e.commit_cycle)
        assert max(slots) < BigCoreConfig().commit_width


class TestDeterminism:
    def test_identical_runs_identical_cycles(self):
        program = loop_program("add t2, t2, t0\nld t3, 0(t4)",
                               prologue="li t4, 0x2000")
        a = run_program(program)
        b = run_program(program)
        assert a.cycles == b.cycles
        assert a.predictor_stats == b.predictor_stats


class TestFuPool:
    def test_heap_picks_the_unit_a_linear_scan_would(self):
        """Equal free times tie-break by unit number, so the chosen
        time keeps the type a first-lowest-index scan would return."""
        pool = _FuPool(2)
        assert pool.acquire(4, 1) == 4      # unit 0 free at 5
        assert pool.acquire(4.0, 1) == 4.0  # unit 1 free at 5.0
        issue = pool.acquire(3, 2)          # both free at 5: unit 0
        assert issue == 5 and type(issue) is int
        issue = pool.acquire(3, 2)          # unit 1, free at 5.0
        assert issue == 5.0 and type(issue) is float
        assert sorted(pool.free_at) == [(7, 0), (7.0, 1)]

    def test_ready_wins_a_tie_with_the_free_time(self):
        pool = _FuPool(1)
        issue = pool.acquire(0.0, 3)
        assert issue == 0.0 and type(issue) is float
        issue = pool.acquire(3, 1)
        assert issue == 3 and type(issue) is int
