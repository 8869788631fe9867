"""OoO superscalar big-core model (SonicBOOM-class, Table II).

Timing-directed-by-functional execution: instructions are executed
functionally in program (commit) order, while an analytical pipeline
model assigns each one fetch/issue/complete/commit cycles subject to:

* fetch width and I-cache latency, with redirect bubbles after taken
  branches and full redirects after mispredictions (TAGE + BTB + RAS);
* register data dependences (renaming removes WAW/WAR, so a value is
  ready when its producer completes);
* functional-unit latency and occupancy (iterative divider blocks its
  unit; pipelined units accept one op per cycle);
* ROB / issue-queue / LDQ / STQ / physical-register occupancy windows;
* D-cache hierarchy latency for loads (stores write at commit through
  a write buffer);
* commit width, in-order commit, and an optional *commit hook* —
  MEEK's DEU/controller gates commit through this hook, which is how
  DC-Buffer backpressure and checker availability slow the big core.

This event-per-instruction formulation is cycle-accurate in the sense
that every constraint is expressed in cycles of the 3.2 GHz clock; it
avoids a per-cycle loop so whole SPEC-profile workloads run in seconds.
"""

from collections import deque
from heapq import heapreplace

from repro.bigcore.branch import BranchPredictor
from repro.common.config import BigCoreConfig
from repro.common.errors import SimulationError
from repro.isa.instructions import InstrClass
from repro.isa.semantics import execute
from repro.isa.state import ArchState
from repro.mem.hierarchy import AccessKind, MemoryHierarchy
from repro.perf.decode import (CLASS_INDEX, CLASS_LIST, decode_program,
                               slow_kernel_enabled)

#: Fetch-to-rename depth of the modelled front end, in cycles.
FRONTEND_DEPTH = 6

#: Front-end bubble when decode redirects a direction-correct taken
#: branch whose target missed in the BTB.
BTB_BUBBLE_CYCLES = 3

#: Link register: jal/jalr writing x1 are calls; jalr reading x1 is a
#: return (standard RISC-V calling convention).
_RA = 1


class CommitEvent:
    """One committed instruction, as observed by the DEU."""

    __slots__ = ("index", "pc", "instr", "result", "commit_cycle",
                 "commit_slot")

    def __init__(self, index, pc, instr, result, commit_cycle, commit_slot):
        self.index = index
        self.pc = pc
        self.instr = instr
        self.result = result
        self.commit_cycle = commit_cycle
        self.commit_slot = commit_slot


class RunResult:
    """Summary of one program execution on the big core."""

    def __init__(self, instructions, cycles, state, predictor_stats,
                 memory_stats, halted_by):
        self.instructions = instructions
        self.cycles = cycles
        self.state = state
        self.predictor_stats = predictor_stats
        self.memory_stats = memory_stats
        self.halted_by = halted_by

    @property
    def ipc(self):
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self):
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    def __repr__(self):
        return (f"RunResult({self.instructions} instrs, {self.cycles} cycles, "
                f"IPC={self.ipc:.2f}, halted_by={self.halted_by})")


class _FuPool:
    """A pool of identical functional units with busy tracking.

    ``free_at`` is a :mod:`heapq` min-heap of ``(free_time, unit)``
    pairs, so the unit an instruction takes is always ``free_at[0]``
    and occupying it is one ``heapreplace``.  The pairs order by time
    and then by unit number, which is exactly the first-lowest-index
    choice of a linear scan over the units: the chosen free time is the
    same object a scan would pick, so even its int/float type matches.
    The fused steppers in :mod:`repro.perf.jit` inline the same
    operation, with a single-unit case that skips the heap call.
    """

    __slots__ = ("free_at",)

    def __init__(self, count):
        self.free_at = [(0, unit) for unit in range(max(1, count))]

    def acquire(self, ready, occupancy):
        """Earliest issue >= ready on any unit; occupy it."""
        free_at = self.free_at
        best_time, unit = free_at[0]
        # On a tie ``ready`` wins, keeping the issue time's type.
        issue = ready if best_time <= ready else best_time
        heapreplace(free_at, (issue + occupancy, unit))
        return issue


class BigCore:
    """The big core.  Create once per run (predictor/caches are warm
    state that belongs to a single execution)."""

    def __init__(self, config=None, hierarchy=None):
        self.config = config if config is not None else BigCoreConfig()
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(self.config.memory))
        self.predictor = BranchPredictor(self.config)
        cfg = self.config
        self._pools = {
            InstrClass.ALU: _FuPool(cfg.int_alus),
            InstrClass.MUL: _FuPool(cfg.fp_units),   # shared FP/Mult/Div ALU
            InstrClass.DIV: _FuPool(cfg.fp_units),
            InstrClass.FP: _FuPool(cfg.fp_units),
            InstrClass.FPDIV: _FuPool(cfg.fp_units),
            InstrClass.LOAD: _FuPool(cfg.mem_units),
            InstrClass.STORE: _FuPool(cfg.mem_units),
            InstrClass.BRANCH: _FuPool(cfg.int_alus),
            InstrClass.JUMP: _FuPool(cfg.jump_units),
            InstrClass.CSR: _FuPool(cfg.csr_units),
            InstrClass.SYSTEM: _FuPool(cfg.csr_units),
            InstrClass.MEEK: _FuPool(cfg.csr_units),
        }
        self._latency = {
            InstrClass.ALU: cfg.int_alu_latency,
            InstrClass.MUL: cfg.mul_latency,
            InstrClass.DIV: cfg.div_latency,
            InstrClass.FP: cfg.fp_latency,
            InstrClass.FPDIV: cfg.fp_div_latency,
            InstrClass.BRANCH: 1,
            InstrClass.JUMP: 1,
            InstrClass.CSR: 1,
            InstrClass.SYSTEM: 1,
            InstrClass.MEEK: 1,
        }
        # Occupancy: iterative dividers block the unit; the rest pipeline.
        self._occupancy = {
            InstrClass.DIV: cfg.div_latency,
            InstrClass.FPDIV: cfg.fp_div_latency,
        }

    def run(self, program, max_instructions=None, commit_hook=None,
            meek_handler=None, initial_state=None, halt_on_trap=True):
        """Execute ``program`` to completion.

        ``commit_hook(event) -> cycle`` may return a later commit cycle
        to model MEEK backpressure; it sees every committed instruction
        in order (this is the DEU observation channel).
        """
        cfg = self.config
        state = initial_state
        if state is None:
            state = ArchState(pc=program.entry_pc)
            program.data.apply(state.memory)
        predictor = self.predictor
        hierarchy = self.hierarchy
        if not slow_kernel_enabled():
            # Fast kernel: program-specialized steppers (repro.perf.jit)
            # run the same timing equations from exec-compiled,
            # constant-folded per-instruction closures over the decoded
            # program cache.  REPRO_SLOW_KERNEL=1 keeps the naive
            # decode-every-instruction loop below for A/B equivalence.
            from repro.perf.jit import run_big_core
            instructions, cycles, halted_by = run_big_core(
                self, program, decode_program(program), state,
                max_instructions, commit_hook, meek_handler, halt_on_trap)
            return RunResult(
                instructions=instructions,
                cycles=cycles,
                state=state,
                predictor_stats=self.predictor.stats(),
                memory_stats=hierarchy.stats(),
                halted_by=halted_by,
            )
        fetch = program.fetch
        access = hierarchy.access
        # Per-class lookup tables indexed by the small class integer so
        # the loop never hashes an enum member.
        pools = [self._pools[c] for c in CLASS_LIST]
        latencies = [self._latency.get(c, 1) for c in CLASS_LIST]
        occupancies = [self._occupancy.get(c, 1) for c in CLASS_LIST]
        class_index = CLASS_INDEX
        l1i_hit_latency = hierarchy.config.l1i.hit_latency
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        rob_entries = cfg.rob_entries
        iq_entries = cfg.issue_queue_entries
        ldq_entries = cfg.ldq_entries
        stq_entries = cfg.stq_entries
        ifetch_kind = AccessKind.IFETCH
        load_kind = AccessKind.LOAD
        store_kind = AccessKind.STORE
        cls_load = class_index[InstrClass.LOAD]
        cls_store = class_index[InstrClass.STORE]
        cls_branch = class_index[InstrClass.BRANCH]
        cls_jump = class_index[InstrClass.JUMP]

        int_ready = [0] * 32
        fp_ready = [0] * 32
        rob = deque()          # commit cycles of in-flight instructions
        iq = deque()           # issue cycles
        ldq = deque()          # commit cycles of in-flight loads
        stq = deque()          # commit cycles of in-flight stores
        int_writers = deque()  # commit cycles of int-PRF writers
        fp_writers = deque()
        int_prf_window = max(1, cfg.int_phys_regs - 32)
        fp_prf_window = max(1, cfg.fp_phys_regs - 32)

        next_fetch_cycle = 0
        fetched_this_cycle = 0
        current_fetch_line = None
        last_commit_cycle = 0
        committed_this_cycle = 0
        redirect_extra = max(1, cfg.mispredict_penalty - FRONTEND_DEPTH)

        index = 0
        halted_by = "end"
        while True:
            if max_instructions is not None and index >= max_instructions:
                halted_by = "limit"
                break
            pc = state.pc
            instr = fetch(pc)
            if instr is None:
                break
            spec = instr.spec
            iclass = class_index[spec.iclass]
            reads_i1 = spec.reads_int_rs1
            reads_i2 = spec.reads_int_rs2
            reads_f1 = spec.reads_fp_rs1
            reads_f2 = spec.reads_fp_rs2
            writes_int = spec.writes_int_rd
            writes_fp = spec.writes_fp_rd

            # ---- fetch -------------------------------------------------
            line = pc >> 6
            if line != current_fetch_line:
                ifetch = access(pc, next_fetch_cycle, ifetch_kind)
                if ifetch > l1i_hit_latency:
                    next_fetch_cycle += ifetch
                    fetched_this_cycle = 0
                current_fetch_line = line
            if fetched_this_cycle >= fetch_width:
                next_fetch_cycle += 1
                fetched_this_cycle = 0
            fetch_cycle = next_fetch_cycle
            fetched_this_cycle += 1

            # ---- rename/dispatch (occupancy windows) --------------------
            rename_cycle = fetch_cycle + FRONTEND_DEPTH
            if len(rob) >= rob_entries:
                t = rob.popleft()
                if t > rename_cycle:
                    rename_cycle = t
            if len(iq) >= iq_entries:
                t = iq.popleft()
                if t > rename_cycle:
                    rename_cycle = t
            if iclass == cls_load and len(ldq) >= ldq_entries:
                t = ldq.popleft()
                if t > rename_cycle:
                    rename_cycle = t
            if iclass == cls_store and len(stq) >= stq_entries:
                t = stq.popleft()
                if t > rename_cycle:
                    rename_cycle = t
            if writes_int and len(int_writers) >= int_prf_window:
                t = int_writers.popleft()
                if t > rename_cycle:
                    rename_cycle = t
            if writes_fp and len(fp_writers) >= fp_prf_window:
                t = fp_writers.popleft()
                if t > rename_cycle:
                    rename_cycle = t

            # ---- operand readiness --------------------------------------
            ready = rename_cycle + 1
            if reads_i1 and int_ready[instr.rs1] > ready:
                ready = int_ready[instr.rs1]
            if reads_i2 and int_ready[instr.rs2] > ready:
                ready = int_ready[instr.rs2]
            if reads_f1 and fp_ready[instr.rs1] > ready:
                ready = fp_ready[instr.rs1]
            if reads_f2 and fp_ready[instr.rs2] > ready:
                ready = fp_ready[instr.rs2]

            # ---- functional execution (commit-order semantics) ----------
            result = execute(instr, state, meek_handler=meek_handler)

            # ---- issue + complete ----------------------------------------
            pool = pools[iclass]
            if iclass == cls_load:
                issue = pool.acquire(ready, 1)
                latency = access(result.mem_addr, issue, load_kind)
                complete = issue + latency
            elif iclass == cls_store:
                issue = pool.acquire(ready, 1)
                complete = issue + 1
            else:
                issue = pool.acquire(ready, occupancies[iclass])
                complete = issue + latencies[iclass]

            # ---- control flow / prediction --------------------------------
            if iclass == cls_branch:
                outcome = predictor.predict_and_update(
                    pc, result.taken,
                    target=result.next_pc if result.taken else None)
                if outcome == "mispredict":
                    next_fetch_cycle = complete + redirect_extra
                    fetched_this_cycle = 0
                    current_fetch_line = None
                elif outcome == "btb_bubble":
                    # Decode-stage redirect: short front-end bubble.
                    next_fetch_cycle = fetch_cycle + BTB_BUBBLE_CYCLES
                    fetched_this_cycle = 0
                    current_fetch_line = None
                elif result.taken:
                    next_fetch_cycle = fetch_cycle + 1
                    fetched_this_cycle = 0
                    current_fetch_line = None
            elif iclass == cls_jump:
                if instr.op == "jal":
                    if instr.rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                    correct = True  # direct target known at decode
                else:  # jalr
                    if instr.rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                        correct = predictor.predict_indirect(pc,
                                                             result.next_pc)
                    elif instr.rs1 == _RA and instr.rd == 0:
                        correct = predictor.predict_return(pc, result.next_pc)
                    else:
                        correct = predictor.predict_indirect(pc,
                                                             result.next_pc)
                if not correct:
                    next_fetch_cycle = complete + redirect_extra
                    fetched_this_cycle = 0
                    current_fetch_line = None
                else:
                    next_fetch_cycle = fetch_cycle + 1
                    fetched_this_cycle = 0
                    current_fetch_line = None

            # ---- commit ----------------------------------------------------
            commit = complete + 1
            if commit < last_commit_cycle:
                commit = last_commit_cycle
            if commit == last_commit_cycle:
                if committed_this_cycle >= commit_width:
                    commit += 1
                    committed_this_cycle = 0
            else:
                committed_this_cycle = 0
            commit_slot = committed_this_cycle

            if iclass == cls_store:
                # The write buffer retires the store after commit.
                access(result.mem_addr, commit, store_kind)

            if commit_hook is not None:
                event = CommitEvent(index, pc, instr, result, commit,
                                    commit_slot)
                adjusted = commit_hook(event)
                if adjusted is not None:
                    if adjusted < commit:
                        raise SimulationError(
                            "commit hook moved commit backwards")
                    if adjusted > commit:
                        committed_this_cycle = 0
                        commit_slot = 0
                    commit = adjusted

            last_commit_cycle = commit
            committed_this_cycle += 1

            # ---- bookkeeping ------------------------------------------------
            rob.append(commit)
            iq.append(issue)
            if iclass == cls_load:
                ldq.append(commit)
            elif iclass == cls_store:
                stq.append(commit)
            if writes_int and instr.rd:
                int_ready[instr.rd] = complete
                int_writers.append(commit)
            if writes_fp:
                fp_ready[instr.rd] = complete
                fp_writers.append(commit)

            index += 1
            if result.trap and halt_on_trap:
                halted_by = result.trap
                break

        return RunResult(
            instructions=index,
            cycles=last_commit_cycle,
            state=state,
            predictor_stats=predictor.stats(),
            memory_stats=hierarchy.stats(),
            halted_by=halted_by,
        )


def run_program(program, config=None, **kwargs):
    """Convenience helper: run ``program`` on a fresh big core."""
    core = BigCore(config)
    return core.run(program, **kwargs)
