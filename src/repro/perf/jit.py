"""Program-specialized steppers (the fast kernel's inner loops).

For every operation this module ``exec``-compiles — once per process —
a *maker*: a factory whose inner ``step`` closure performs the entire
per-instruction work of one execution model with every decode decision
already taken at compile time:

* **vanilla big core** (no commit hook): functional execution fused
  with the full OoO timing model in one closure — no ``ExecResult``
  allocation, no dispatch, flag checks folded out of the source;
* **hooked big core** (MEEK / custom commit hooks): per-class timing
  steppers that call the decoded functional closure (hooks observe a
  real :class:`~repro.isa.semantics.ExecResult`, exactly as before);
* **golden model**: functional-only steps;
* **checker replay**: functional replay against the LSL entry fused
  with the little-core 5-stage timing model.

The makers are source-assembled from the fragment table in
:mod:`repro.perf.ops` plus class-specific timing templates that are
line-by-line transcriptions of :meth:`repro.bigcore.core.BigCore.run`
and :meth:`repro.littlecore.pipeline.LittleCorePipeline.step`.  The
slow kernel (``REPRO_SLOW_KERNEL=1``) bypasses all of this and runs
the original loops; the equivalence suite holds the two kernels
bit-identical.
"""

from collections import deque

from repro.common.errors import PrivilegeError, SimulationError
from repro.fabric.packets import RuntimeKind
from repro.isa.instructions import SPECS, InstrClass
from repro.isa.semantics import (_div_signed, _fcvt_l, _fp_div, _fp_sqrt,
                                 _rem_signed)
from repro.perf.cache import cached_compile
from repro.perf.decode import _WORD, _b2f, _f2b, _signed
from repro.perf.ops import exec_fragment, trap_expr
from repro.perf.ops import indent as _indent
from repro.perf.ops import mem_consts as _mem_consts

#: Shared globals namespace for every exec-compiled maker.
_GLOBALS = {
    "WORD": _WORD,
    "SGN": _signed,
    "B2F": _b2f,
    "F2B": _f2b,
    "DIVS": _div_signed,
    "REMS": _rem_signed,
    "FPDIV": _fp_div,
    "FPSQRT": _fp_sqrt,
    "FCVTL": _fcvt_l,
    "PrivilegeError": PrivilegeError,
    "SimulationError": SimulationError,
    "RK_LOAD": RuntimeKind.LOAD,
    "RK_STORE": RuntimeKind.STORE,
    "RK_CSR": RuntimeKind.CSR,
}

def _compile_maker(build_source, name):
    """Compile one maker through the persistent disk cache: a warm
    start unmarshals the code object and skips both the source
    assembly and the ``compile()``."""
    code = cached_compile(name, build_source, f"<repro.perf.jit:{name}>")
    namespace = dict(_GLOBALS)
    exec(code, namespace)
    return namespace["maker"]


# ---------------------------------------------------------------------------
# Big-core steppers
# ---------------------------------------------------------------------------

#: ctx slots for the big-core loop state.
CTX_NEXT_FETCH = 0
CTX_FETCHED = 1
CTX_LINE = 2
CTX_LAST_COMMIT = 3
CTX_COMMITTED = 4

_BIG_SHARED_FIELDS = (
    "ctx, state, regs, fregs, int_ready, fp_ready, rob, iq, ldq, stq, "
    "int_writers, fp_writers, access, pau, p_call, p_ind, p_ret, "
    "ROB_N, IQ_N, LDQ_N, STQ_N, IPRF_N, FPRF_N, FETCH_W, COMMIT_W, "
    "L1I_HIT, REDIRECT_EXTRA, BTB_BUBBLE, FRONT_DEPTH, "
    "IFETCH, LOADK, STOREK, LOADFN, STOREFN, HOOK, FHOOK, CommitEvent, "
    "HOT")

_FETCH_SRC = """\
        line = pc >> 6
        if line != ctx[2]:
            ifetch = access(pc, ctx[0], IFETCH)
            if ifetch > L1I_HIT:
                ctx[0] += ifetch
                ctx[1] = 0
            ctx[2] = line
        nfc = ctx[0]
        if ctx[1] >= FETCH_W:
            nfc += 1
            ctx[0] = nfc
            ctx[1] = 1
        else:
            ctx[1] += 1"""

_RENAME_HEAD_SRC = """\
        rename = nfc + FRONT_DEPTH
        if len(rob) >= ROB_N:
            t = rob.popleft()
            if t > rename:
                rename = t
        if len(iq) >= IQ_N:
            t = iq.popleft()
            if t > rename:
                rename = t"""

_WINDOW_SRC = """\
        if len({q}) >= {n}:
            t = {q}.popleft()
            if t > rename:
                rename = t"""

_COMMIT_HEAD_SRC = """\
        commit = complete + 1
        lcc = ctx[3]
        if commit < lcc:
            commit = lcc
        ctc = ctx[4]
        if commit == lcc:
            if ctc >= COMMIT_W:
                commit += 1
                ctc = 0
        else:
            ctc = 0"""

_HOOK_SRC = """\
        if HOOK is not None:
            event = CommitEvent(index, pc, OP_INSTR, result, commit, ctc)
            adjusted = HOOK(event)
            if adjusted is not None:
                if adjusted < commit:
                    raise SimulationError("commit hook moved commit backwards")
                if adjusted > commit:
                    ctc = 0
                commit = adjusted"""

_BRANCH_CONTROL_SRC = """\
        outcome = pau(pc, taken, next_pc if taken else None)
        if outcome == "mispredict":
            ctx[0] = complete + REDIRECT_EXTRA
            ctx[1] = 0
            ctx[2] = None
        elif outcome == "btb_bubble":
            ctx[0] = nfc + BTB_BUBBLE
            ctx[1] = 0
            ctx[2] = None
        elif taken:
            ctx[0] = nfc + 1
            ctx[1] = 0
            ctx[2] = None"""

_JAL_CONTROL_SRC = """\
        if RD == 1:
            p_call(pc, pc + 4)
        ctx[0] = nfc + 1
        ctx[1] = 0
        ctx[2] = None"""

_JALR_CONTROL_SRC = """\
        if RD == 1:
            p_call(pc, pc + 4)
            correct = p_ind(pc, next_pc)
        elif RS1 == 1 and RD == 0:
            correct = p_ret(pc, next_pc)
        else:
            correct = p_ind(pc, next_pc)
        if correct:
            ctx[0] = nfc + 1
        else:
            ctx[0] = complete + REDIRECT_EXTRA
        ctx[1] = 0
        ctx[2] = None"""


def _ready_src(spec):
    lines = ["        ready = rename + 1"]
    checks = (("reads_int_rs1", "int_ready", "RS1"),
              ("reads_int_rs2", "int_ready", "RS2"),
              ("reads_fp_rs1", "fp_ready", "RS1"),
              ("reads_fp_rs2", "fp_ready", "RS2"))
    for flag, table, reg in checks:
        if getattr(spec, flag):
            lines.append(f"        t = {table}[{reg}]\n"
                         f"        if t > ready:\n"
                         f"            ready = t")
    return "\n".join(lines)


def _rename_src(spec, iclass):
    parts = [_RENAME_HEAD_SRC]
    if iclass is InstrClass.LOAD:
        parts.append(_WINDOW_SRC.format(q="ldq", n="LDQ_N"))
    elif iclass is InstrClass.STORE:
        parts.append(_WINDOW_SRC.format(q="stq", n="STQ_N"))
    if spec.writes_int_rd:
        parts.append(_WINDOW_SRC.format(q="int_writers", n="IPRF_N"))
    if spec.writes_fp_rd:
        parts.append(_WINDOW_SRC.format(q="fp_writers", n="FPRF_N"))
    return "\n".join(parts)


def _issue_src(iclass):
    if iclass is InstrClass.LOAD:
        return ("        issue = acquire(ready, 1)\n"
                "        complete = issue + access(addr, issue, LOADK)")
    if iclass is InstrClass.STORE:
        return ("        issue = acquire(ready, 1)\n"
                "        complete = issue + 1")
    return ("        issue = acquire(ready, OCC)\n"
            "        complete = issue + LAT")


def _control_src(op, iclass):
    if iclass is InstrClass.BRANCH:
        return _BRANCH_CONTROL_SRC
    if iclass is InstrClass.JUMP:
        return _JAL_CONTROL_SRC if op == "jal" else _JALR_CONTROL_SRC
    return ""


def _book_src(spec, iclass):
    lines = ["        rob.append(commit)", "        iq.append(issue)"]
    if iclass is InstrClass.LOAD:
        lines.append("        ldq.append(commit)")
    elif iclass is InstrClass.STORE:
        lines.append("        stq.append(commit)")
    if spec.writes_int_rd:
        lines.append("        if RD:\n"
                     "            int_ready[RD] = complete\n"
                     "            int_writers.append(commit)")
    if spec.writes_fp_rd:
        lines.append("        fp_ready[RD] = complete\n"
                     "        fp_writers.append(commit)")
    return "\n".join(lines)


def _fast_hook_src(op, iclass):
    """The fast_commit call for the fused MEEK-hooked step.

    The record classification here is the source-level image of
    ``DataExtractionUnit.classify`` — keep the two in sync (the
    equivalence suite compares the kernels end to end).

    Hook-path elimination: an op that logs nothing and cannot trap is
    a *dormant* hook — the only thing ``fast_commit`` would do for it
    is bump the segment's instruction count and test the checkpoint
    timeout.  Those two operations are inlined here against the
    controller's shared ``HOT`` cell (``[instr_count, close_budget]``,
    see :attr:`~repro.core.controller.MeekController._hot`), so the
    per-commit controller call disappears by construction; the
    controller is only entered when a segment must open or close, or
    when the commit produces a run-time log record.
    """
    trap = trap_expr(op)
    if iclass is InstrClass.LOAD:
        args = "RK_LOAD, addr, value & WORD, MEM_SIZE"
    elif iclass is InstrClass.STORE:
        args = "RK_STORE, addr, value & MEM_MASK, MEM_SIZE"
    elif iclass is InstrClass.CSR:
        args = "RK_CSR, IMM, old, 8"
    else:
        args = "None, 0, 0, 0"
    # state.pc must be architecturally up to date before the controller
    # observes the commit (status snapshots read it as the next PC).
    if args == "None, 0, 0, 0" and trap == "None":
        return (
            "        state.pc = next_pc\n"
            "        n = HOT[0] + 1\n"
            "        if n < HOT[1]:\n"
            "            HOT[0] = n\n"
            "        else:\n"
            "            newc = FHOOK(index, pc, commit, ctc, None,"
            " None, 0, 0, 0)\n"
            "            if newc > commit:\n"
            "                ctc = 0\n"
            "                commit = newc")
    return ("        state.pc = next_pc\n"
            f"        newc = FHOOK(index, pc, commit, ctc, {trap}, {args})\n"
            "        if newc > commit:\n"
            "            ctc = 0\n"
            "            commit = newc")


def _build_big_source(op, mode):
    """Assemble the big-core step maker source for ``op``.

    Modes: ``"lean"`` (no hook) fuses the functional fragment into the
    step with no ExecResult; ``"fast"`` does the same but reports each
    commit to the MEEK controller's :meth:`fast_commit` as scalars;
    ``"hooked"`` calls the decoded closure ``FN`` so arbitrary commit
    hooks observe real ExecResults, and runs the classic hook protocol.
    """
    spec = SPECS[op]
    iclass = spec.iclass
    hooked = mode == "hooked"

    if hooked:
        exec_src = "        result = FN(state, None, MH)"
        if iclass in (InstrClass.BRANCH, InstrClass.JUMP,
                      InstrClass.MEEK):
            exec_src += "\n        taken = result.taken"
        if iclass in (InstrClass.BRANCH, InstrClass.JUMP):
            exec_src += "\n        next_pc = result.next_pc"
        if iclass in (InstrClass.LOAD, InstrClass.STORE):
            exec_src += "\n        addr = result.mem_addr"
        trap = "result.trap"
    else:
        exec_src = _indent(exec_fragment(op, mem_mode="direct"), 8)
        trap = trap_expr(op)

    store_retire = ""
    if iclass is InstrClass.STORE:
        store_retire = "        access(addr, commit, STOREK)\n"

    if hooked:
        hook_block = _HOOK_SRC + "\n"
    elif mode == "fast":
        hook_block = _fast_hook_src(op, iclass) + "\n"
    else:
        hook_block = ""
    # In hooked mode the decoded closure has already advanced state.pc;
    # fast mode advances it just before the controller call; only the
    # lean mode applies next_pc in the tail.
    pc_tail = "        state.pc = next_pc\n" if mode == "lean" else ""

    control = _control_src(op, iclass)
    source = f"""\
def maker(RD, RS1, RS2, IMM, OP_INSTR, MH, FN, POOL, LAT, OCC, SHARED):
    ({_BIG_SHARED_FIELDS}) = SHARED
    acquire = POOL.acquire
    UIMM = IMM & WORD
    IMM12 = IMM << 12
    LUI_VALUE = (IMM << 12) & WORD
{_mem_consts(op)}\
    def step(pc, index):
{_FETCH_SRC}
{_rename_src(spec, iclass)}
{_ready_src(spec)}
{exec_src}
{_issue_src(iclass)}
{control + chr(10) if control else ''}\
{_COMMIT_HEAD_SRC}
{store_retire}{hook_block}\
        ctx[3] = commit
        ctx[4] = ctc + 1
{_book_src(spec, iclass)}
{pc_tail}\
        return {trap}
    return step
"""
    return source


_big_makers = {}


def _big_maker(op, mode):
    key = (op, mode)
    maker = _big_makers.get(key)
    if maker is None:
        maker = _compile_maker(lambda: _build_big_source(op, mode),
                               f"big:{op}:{mode}")
        _big_makers[key] = maker
    return maker


def run_big_core(core, program, decoded, state, max_instructions,
                 commit_hook, meek_handler, halt_on_trap):
    """The fast kernel's replacement for the BigCore.run loop body.

    Returns ``(instructions, cycles, halted_by)``; the caller wraps the
    RunResult.
    """
    from repro.bigcore.core import (BTB_BUBBLE_CYCLES, CommitEvent,
                                    FRONTEND_DEPTH)
    from repro.mem.hierarchy import AccessKind

    cfg = core.config
    hierarchy = core.hierarchy
    predictor = core.predictor
    # The unmodified MEEK controller hook gets the scalar fast path;
    # any other hook — custom instrumentation, or a controller subclass
    # overriding either method — keeps the classic CommitEvent/
    # ExecResult protocol so its overrides are actually invoked.
    fast_hook = None
    hot = [0, 0]
    if commit_hook is not None:
        owner = getattr(commit_hook, "__self__", None)
        if owner is not None:
            from repro.core.controller import MeekController
            owner_type = type(owner)
            if (getattr(owner_type, "commit_hook", None)
                    is MeekController.commit_hook
                    and getattr(owner_type, "fast_commit", None)
                    is MeekController.fast_commit
                    and getattr(commit_hook, "__func__", None)
                    is MeekController.commit_hook):
                fast_hook = owner.fast_commit
                # The controller's shared hot cell: dormant commits are
                # absorbed in the stepper against this list and never
                # enter the controller (see _fast_hook_src).
                hot = owner._hot
    if commit_hook is None:
        mode = "lean"
    elif fast_hook is not None:
        mode = "fast"
    else:
        mode = "hooked"
    ctx = [0, 0, None, 0, 0]
    int_ready = [0] * 32
    fp_ready = [0] * 32
    rob = deque()
    iq = deque()
    ldq = deque()
    stq = deque()
    int_writers = deque()
    fp_writers = deque()

    shared = (
        ctx, state, state.int_regs, state.fp_regs, int_ready, fp_ready,
        rob, iq, ldq, stq, int_writers, fp_writers,
        hierarchy.access, predictor.predict_and_update,
        predictor.predict_call, predictor.predict_indirect,
        predictor.predict_return,
        cfg.rob_entries, cfg.issue_queue_entries, cfg.ldq_entries,
        cfg.stq_entries, max(1, cfg.int_phys_regs - 32),
        max(1, cfg.fp_phys_regs - 32), cfg.fetch_width, cfg.commit_width,
        hierarchy.config.l1i.hit_latency,
        max(1, cfg.mispredict_penalty - FRONTEND_DEPTH), BTB_BUBBLE_CYCLES,
        FRONTEND_DEPTH,
        AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE,
        state.memory.load, state.memory.store, commit_hook, fast_hook,
        CommitEvent, hot,
    )

    pools = core._pools
    latencies = core._latency
    occupancies = core._occupancy
    steps = []
    append = steps.append
    for entry in decoded.entries:
        instr = entry.instr
        iclass = entry.iclass
        maker = _big_maker(instr.op, mode)
        append(maker(instr.rd, instr.rs1, instr.rs2, instr.imm, instr,
                     meek_handler, entry.fn, pools[iclass],
                     latencies.get(iclass, 1), occupancies.get(iclass, 1),
                     shared))

    base = decoded.base
    n = len(steps)
    index = 0
    halted_by = "end"
    pc = state.pc
    while True:
        if max_instructions is not None and index >= max_instructions:
            halted_by = "limit"
            break
        offset = pc - base
        if offset < 0 or offset & 3:
            raise SimulationError(f"bad fetch address {pc:#x} "
                                  f"(base {base:#x})")
        idx = offset >> 2
        if idx >= n:
            break
        trap = steps[idx](pc, index)
        index += 1
        pc = state.pc
        if trap is not None and halt_on_trap:
            halted_by = trap
            break

    return index, ctx[CTX_LAST_COMMIT], halted_by


# ---------------------------------------------------------------------------
# Golden-model steps
# ---------------------------------------------------------------------------

def _build_golden_source(op):
    return f"""\
def maker(RD, RS1, RS2, IMM, OP_INSTR, MH, SHARED):
    (state, regs, fregs, LOADFN, STOREFN) = SHARED
    UIMM = IMM & WORD
    IMM12 = IMM << 12
    LUI_VALUE = (IMM << 12) & WORD
{_mem_consts(op)}\
    def step(pc):
{_indent(exec_fragment(op, mem_mode="direct"), 8)}
        state.pc = next_pc
        return {trap_expr(op)}
    return step
"""


_golden_makers = {}


def _golden_maker(op):
    maker = _golden_makers.get(op)
    if maker is None:
        maker = _compile_maker(lambda: _build_golden_source(op),
                               f"golden:{op}")
        _golden_makers[op] = maker
    return maker


def build_golden_steps(decoded, state, meek_handler=None):
    """Functional-only step closures for ``run_golden``."""
    shared = (state, state.int_regs, state.fp_regs,
              state.memory.load, state.memory.store)
    steps = []
    append = steps.append
    for entry in decoded.entries:
        instr = entry.instr
        append(_golden_maker(instr.op)(instr.rd, instr.rs1, instr.rs2,
                                       instr.imm, instr, meek_handler,
                                       shared))
    return steps


# ---------------------------------------------------------------------------
# Checker replay steps (functional replay + little-core timing, fused)
# ---------------------------------------------------------------------------

_LITTLE_TIMING = {
    InstrClass.DIV: """\
        if pipeline._div_free > issue:
            issue = pipeline._div_free
        complete = issue + DIV_BUSY
        pipeline._div_free = complete
        next_issue = issue + RATIO""",
    InstrClass.FPDIV: """\
        if pipeline._fpu_free > issue:
            issue = pipeline._fpu_free
        complete = issue + FDIV_BUSY
        pipeline._fpu_free = complete
        next_issue = issue + RATIO""",
    InstrClass.FP: """\
        if pipeline._fpu_free > issue:
            issue = pipeline._fpu_free
        complete = issue + FP_LAT
        pipeline._fpu_free = issue + FP_OCC
        next_issue = issue + RATIO""",
    InstrClass.MUL: """\
        complete = issue + MUL_LAT
        next_issue = issue + RATIO""",
    InstrClass.LOAD: """\
        complete = issue + LOAD_LAT
        if delivery is not None and delivery > complete:
            complete = delivery
        next_issue = issue + RATIO""",
    InstrClass.BRANCH: """\
        complete = issue + RATIO
        next_issue = issue + RATIO
        if taken:
            next_issue += BR_PEN""",
    # Jumps are unconditionally taken, so the penalty folds in.
    InstrClass.JUMP: """\
        complete = issue + RATIO
        next_issue = issue + RATIO + BR_PEN""",
}

_LITTLE_DEFAULT_TIMING = """\
        complete = issue + RATIO
        next_issue = issue + RATIO"""


def _little_ready_src(spec):
    lines = []
    checks = (("reads_int_rs1", "int_ready", "RS1"),
              ("reads_int_rs2", "int_ready", "RS2"),
              ("reads_fp_rs1", "fp_ready", "RS1"),
              ("reads_fp_rs2", "fp_ready", "RS2"))
    for flag, table, reg in checks:
        if getattr(spec, flag):
            lines.append(f"        t = {table}[{reg}]\n"
                         f"        if t > issue:\n"
                         f"            issue = t")
    return "\n".join(lines) if lines else "        pass"


def _little_mark_src(spec):
    if spec.writes_int_rd:
        return ("        if RD:\n"
                "            int_ready[RD] = complete")
    if spec.writes_fp_rd:
        return "        fp_ready[RD] = complete"
    return "        pass"


#: Names a replay closure binds from its table's constants tuple
#: (:func:`replay_constants`) and from the per-call pipeline tuple
#: (:func:`replay_context`).
_REPLAY_CONSTS = ("IC_SHIFT, RATIO, MISS_PEN, DIV_BUSY, FDIV_BUSY, "
                  "FP_LAT, FP_OCC, MUL_LAT, LOAD_LAT, BR_PEN")
_REPLAY_PIPE = ("pipeline, icache, icache_lookup, icache_fill, IC, "
                "int_ready, fp_ready")


def _build_replay_source(op):
    spec = SPECS[op]
    iclass = spec.iclass
    needs_entry = iclass in (InstrClass.LOAD, InstrClass.STORE,
                             InstrClass.CSR)

    if iclass is InstrClass.CSR:
        # Normal CSR execution plus the log comparison the checker's
        # advance loop performs after execute().
        exec_src = _indent(exec_fragment(op, mem_mode="direct"), 8)
        exec_src += ("\n"
                     "        mismatch = None\n"
                     "        if entry.rkind is not RK_CSR:\n"
                     "            mismatch = 'lsl-kind-mismatch-on-csr'\n"
                     "        elif entry.addr != IMM or entry.data != old:\n"
                     "            mismatch = 'csr-mismatch'")
    elif needs_entry:
        exec_src = ("        mismatch = None\n"
                    + _indent(exec_fragment(op, mem_mode="replay"), 8))
    else:
        exec_src = _indent(exec_fragment(op, mem_mode="direct"), 8)

    timing = _LITTLE_TIMING.get(iclass, _LITTLE_DEFAULT_TIMING)
    ret = "(complete, mismatch)" if needs_entry else "complete"

    source = f"""\
def maker(RD, RS1, RS2, IMM, OP_INSTR, CONSTS):
    ({_REPLAY_CONSTS}) = CONSTS
    MH = None  # checker replay never runs a MEEK handler
    UIMM = IMM & WORD
    IMM12 = IMM << 12
    LUI_VALUE = (IMM << 12) & WORD
{_mem_consts(op)}\
    def replay(state, pc, entry, delivery, PIPE):
        ({_REPLAY_PIPE}) = PIPE
        regs = state.int_regs
        fregs = state.fp_regs
        start = pipeline.time
        # Same-line fetch skip: a line just looked up is resident and
        # already MRU, so repeating lookup() would only re-count the
        # hit and touch the LRU list.  Count the hit directly; stats
        # and LRU state stay bit-identical to the naive lookup.
        line = pc >> IC_SHIFT
        if line == IC[0]:
            icache.hits += 1
        elif icache_lookup(pc):
            IC[0] = line
        else:
            icache_fill(pc)
            IC[0] = line
            start += MISS_PEN
        issue = start
{_little_ready_src(spec)}
{exec_src}
{timing}
{_little_mark_src(spec)}
        pipeline.time = next_issue
        pipeline.instructions_retired += 1
        pipeline.busy_cycles += next_issue - start
        state.pc = next_pc
        return {ret}
    return replay
"""
    return source


_replay_makers = {}


def _replay_maker(op):
    maker = _replay_makers.get(op)
    if maker is None:
        maker = _compile_maker(lambda: _build_replay_source(op),
                               f"replay:{op}")
        _replay_makers[op] = maker
    return maker


def replay_constants(pipeline):
    """The little-core timing constants a replay closure bakes in, in
    :data:`_REPLAY_CONSTS` order: the key of a shared replay table."""
    return (pipeline.icache._offset_bits, pipeline.ratio,
            pipeline._miss_penalty, pipeline._div_busy,
            pipeline._fdiv_busy, pipeline._fp_lat, pipeline._fp_occ,
            pipeline._mul_lat, pipeline._load_data_lat,
            pipeline._branch_pen)


def replay_context(pipeline):
    """The pipeline's mutable replay state, in :data:`_REPLAY_PIPE`
    order: passed to every replay closure call, so one closure table
    serves every pipeline with the same constants."""
    icache = pipeline.icache
    return (pipeline, icache, icache.lookup, icache.fill,
            pipeline._ic_line, pipeline._int_ready, pipeline._fp_ready)


def replay_table(decoded, pipeline):
    """The fused replay closures for ``decoded`` on ``pipeline``.

    One table per ``(decoded program, timing constants)``, stored on
    the :class:`~repro.perf.decode.DecodedProgram` so it dies with the
    program: every lane, core and segment with the same little-core
    configuration shares it.  Each static instruction's closure is
    built on its first replay — until then its slot holds a stub that
    builds the closure, installs it and runs it.
    """
    consts = replay_constants(pipeline)
    tables = decoded.replay_tables
    table = tables.get(consts)
    if table is None:
        table = tables[consts] = _lazy_replay_table(decoded, consts)
    return table


def _lazy_replay_table(decoded, consts):
    entries = decoded.entries
    base = decoded.base
    table = []

    def first(state, pc, entry, delivery, pipe):
        idx = (pc - base) >> 2
        instr = entries[idx].instr
        fn = _replay_maker(instr.op)(instr.rd, instr.rs1, instr.rs2,
                                     instr.imm, instr, consts)
        table[idx] = fn
        return fn(state, pc, entry, delivery, pipe)

    table.extend([first] * len(entries))
    return table


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------

def prime_steppers(modes=("lean", "fast")):
    """Materialize every per-op maker ahead of the first simulation.

    Long-lived processes (batch mode, campaign workers) call this once
    so no simulation pays a first-touch compile; with a warm disk cache
    the whole prime is unmarshal-only.  Returns the number of makers
    primed.
    """
    from repro.perf.decode import _decode_maker

    count = 0
    for op in SPECS:
        _decode_maker(op)
        _golden_maker(op)
        _replay_maker(op)
        count += 3
        for mode in modes:
            _big_maker(op, mode)
            count += 1
    return count
