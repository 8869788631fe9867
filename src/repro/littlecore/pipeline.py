"""In-order 5-stage pipeline timing for the little core.

The model advances one instruction at a time and answers "when does
this instruction leave the pipeline?" in big-core cycles.  It captures
the effects the paper identifies as decisive for the big/little
performance gap (Sec. III-C): the iterative divider (`div_unroll`),
the FPU depth and whether it pipelines, the load-use bubble, the
taken-branch penalty, and I-cache misses into the shared L2.

The pipeline object is persistent per little core so that I-cache and
divider state carry across checkpoint segments.
"""

from repro.common.config import LittleCoreConfig
from repro.isa.instructions import InstrClass
from repro.mem.cache import CacheModel

_ZEROS32 = [0] * 32


class LittleCorePipeline:
    """Cycle bookkeeping for one little core."""

    #: Extra cycles an L1I miss costs (trip to the shared L2).
    ICACHE_MISS_PENALTY = 16

    def __init__(self, config=None, clock_ratio=2, l2_port=None):
        self.config = config if config is not None else LittleCoreConfig()
        self.ratio = clock_ratio
        self.icache = CacheModel(self.config.icache)
        self.dcache = CacheModel(self.config.dcache)
        self._l2_port = l2_port
        # Latency products are config constants; precompute them in
        # big-core cycles so the per-instruction path multiplies
        # nothing and never touches the config object.
        cfg = self.config
        ratio = clock_ratio
        self._miss_penalty = self.ICACHE_MISS_PENALTY * ratio
        self._div_busy = cfg.div_latency * ratio
        self._fdiv_busy = cfg.fdiv_latency * ratio
        self._fp_lat = cfg.fp_latency * ratio
        self._fp_occ = cfg.fp_occupancy * ratio
        self._mul_lat = cfg.mul_latency * ratio
        self._load_data_lat = (1 + cfg.load_use_penalty) * ratio
        self._branch_pen = cfg.branch_penalty * ratio
        # All in big-core cycles:
        self.time = 0              # cycle the next instruction may issue
        self._div_free = 0
        self._fpu_free = 0
        # Scoreboards: cycle each architectural register is ready.
        # Flat lists (one per file) replace the tuple-keyed dict the
        # profiler flagged — no tuple allocation per lookup.
        self._int_ready = [0] * 32
        self._fp_ready = [0] * 32
        # Last I-cache line the fast kernel's replay fetched (see
        # repro.perf.jit): persists across segments with the icache.
        self._ic_line = [-1]
        self.instructions_retired = 0
        self.busy_cycles = 0

    def reset_to(self, cycle):
        """Start a fresh activity (segment / thread slice) at ``cycle``."""
        if cycle > self.time:
            self.time = cycle
        # In-place clear: a checker run captures these list objects
        # for the fast kernel's replay closures, so their identity
        # must survive segment resets.
        self._int_ready[:] = _ZEROS32
        self._fp_ready[:] = _ZEROS32

    def step(self, instr, pc, taken_branch=False, load_data_available=None,
             extra_stall=0):
        """Advance the pipeline through one instruction.

        ``load_data_available`` (big cycles) is when the LSL (check
        mode) or D-cache (application mode) can supply a load's data;
        ``None`` models an L1 hit.  Returns the cycle at which the
        instruction's *result* is available (its completion time).
        """
        ratio = self.ratio
        start = self.time

        # Instruction fetch: a miss on a new line stalls the front end.
        if not self.icache.lookup(pc):
            self.icache.fill(pc)
            start += self._miss_penalty

        # Structural hazard on issue + source operands (scoreboard
        # checks inlined from _source_ready/_mark_dest).
        spec = instr.spec
        int_ready = self._int_ready
        fp_ready = self._fp_ready
        issue = start
        if spec.reads_int_rs1 and int_ready[instr.rs1] > issue:
            issue = int_ready[instr.rs1]
        if spec.reads_int_rs2 and int_ready[instr.rs2] > issue:
            issue = int_ready[instr.rs2]
        if spec.reads_fp_rs1 and fp_ready[instr.rs1] > issue:
            issue = fp_ready[instr.rs1]
        if spec.reads_fp_rs2 and fp_ready[instr.rs2] > issue:
            issue = fp_ready[instr.rs2]
        if extra_stall:
            issue += extra_stall

        iclass = spec.iclass
        complete = issue + ratio  # default single-cycle op
        next_issue = issue + ratio

        if iclass is InstrClass.DIV:
            issue = max(issue, self._div_free)
            complete = issue + self._div_busy
            self._div_free = complete          # iterative: blocks the unit
            next_issue = issue + ratio
        elif iclass is InstrClass.FPDIV:
            issue = max(issue, self._fpu_free)
            complete = issue + self._fdiv_busy
            self._fpu_free = complete
            next_issue = issue + ratio
        elif iclass is InstrClass.FP:
            issue = max(issue, self._fpu_free)
            complete = issue + self._fp_lat
            self._fpu_free = issue + self._fp_occ
            next_issue = issue + ratio
        elif iclass is InstrClass.MUL:
            complete = issue + self._mul_lat
            next_issue = issue + ratio
        elif iclass is InstrClass.LOAD:
            data_at = issue + self._load_data_lat
            if load_data_available is not None and \
                    load_data_available > data_at:
                data_at = load_data_available
            complete = data_at
            next_issue = issue + ratio
        elif iclass is InstrClass.BRANCH or iclass is InstrClass.JUMP:
            if taken_branch:
                next_issue += self._branch_pen

        if spec.writes_int_rd and instr.rd:
            int_ready[instr.rd] = complete
        elif spec.writes_fp_rd:
            fp_ready[instr.rd] = complete
        self.time = next_issue
        self.instructions_retired += 1
        self.busy_cycles += next_issue - start
        return complete

    def dcache_load(self, addr, now):
        """Application-mode load latency through the little D-cache."""
        if self.dcache.lookup(addr):
            return self.config.dcache.hit_latency * self.ratio
        self.dcache.fill(addr)
        return self.ICACHE_MISS_PENALTY * self.ratio

    def stats(self):
        return {
            "instructions": self.instructions_retired,
            "busy_cycles": self.busy_cycles,
            "icache": self.icache.stats(),
        }
