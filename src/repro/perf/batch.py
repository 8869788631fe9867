"""Batched lockstep campaign kernel: N fault-injection points per step.

Campaigns run thousands of near-identical systems that differ only in
their injected faults.  Fault injection corrupts *forwarded copies* of
data — run-time records, status snapshots, DC-Buffer and fabric
payloads — never big-core architectural state (the PR-8 architectural
non-interference battery pins this down).  Three consequences:

* the functional instruction stream (PCs, register and memory values,
  branch outcomes, traps) is identical across every lane of a batch;
* cache *contents* evolve by access order alone, never by access
  timing, so every lane sees the same serving level for every access
  (:meth:`~repro.mem.hierarchy.MemoryHierarchy.lookup_code`);
* the branch predictor sees the same ``(pc, outcome)`` stream, so
  every lane predicts and redirects identically.

A batch therefore advances with ONE shared functional execution (the
decoded-closure program from :mod:`repro.perf.decode`, one decode for
the whole batch), ONE shared tag walk, and ONE shared predictor — and
keeps per-lane only what faults can actually perturb through MEEK
backpressure: the commit-time clock.  Per-lane timing lives in numpy
lane-vectors (fetch, issue, completion and commit cycles; scoreboards
and functional-unit pools as lists of vectors; occupancy windows as
deques of them).  Dormant commits — nothing to log, cannot trap — are
absorbed by one scalar count against the smallest remaining
inline budget of any lane.  Python executes per-lane only where lanes
genuinely differ: log-producing commits and budgets that run out (the
MEEK hook, where each lane's own controller/fabric/injector runs, so
fault hooks fire per-lane), cache misses (per-lane DRAM window and L1
MSHR queueing), and the final trap.

SoA backend: numpy.  A ufunc call on a lane-vector costs about the
same at 2 lanes as at 64: the price is per *dispatch* (argument
parsing, type resolution, allocation), not per lane, so the loop is
written to make few calls per instruction — about 13 on a two-source
ALU instruction — with vector operands only (a Python scalar operand
costs an extra conversion per call).  Two invariants make that
possible:

* commit times never decrease along program order, per lane.  The
  commit-time windows (ROB, LDQ, STQ, PRF writers) therefore need one
  ``maximum`` against the youngest entry they pop, and a lane's
  commits in its current cycle are exactly the tail of the commit
  history equal to its commit time, so the commit-width check is one
  comparison and the commit slot is counted only when a hook runs;
* functional units of one pool are interchangeable, so only the
  multiset of their free times is observable.  Each pool keeps its
  free times sorted per lane: issue waits on the first row, and the
  new free time is inserted in order with ``minimum``/``maximum``
  (no ``argmin``, no fancy indexing).

The ``array`` module was benched as the alternative (see
``soa_lane_backend`` in :mod:`repro.perf.bench`) and loses by an order
of magnitude: the recurrences are element-wise ``max`` over lanes,
which ``array.array`` can only do in a Python loop.  When numpy is
unavailable the batch kernel reports itself unavailable and campaigns
fall back to the scalar kernel.

Divergence and eviction: a lane's architectural state *cannot*
diverge — the non-interference property above is load-bearing and is
enforced by the bit-identity battery.  Eviction is therefore a purely
defensive mechanism: a lane whose controller raises, or one forcibly
evicted by the ``force_eviction_hook`` test hook, is dropped from the
batch mid-run and the caller reruns that point on the scalar kernel
from cycle 0 — which is bit-identical by definition.  Whole-engine
failures abort the batch the same way for every lane.

``--batch 1`` (or ``REPRO_BATCH=1``) keeps campaigns off the batch
kernel; ``REPRO_SLOW_KERNEL=1`` (the historical escape hatch) disables
it outright, because batching reproduces the *fast*-kernel commit
protocol.
"""

from repro.common.errors import SimulationError
from repro.core.controller import MeekController
from repro.core.system import MeekSystem
from repro.fabric.packets import RuntimeEntry
from repro.isa.instructions import InstrClass
from repro.isa.state import ArchState
from repro.mem.hierarchy import AccessKind, L1_HIT, MemoryHierarchy
from repro.perf.decode import decode_program, slow_kernel_enabled

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is part of the toolchain
    _np = None

#: Default lane count for ``--batch auto``: wide enough to amortize the
#: shared per-instruction work, small enough that one batch stays well
#: under a campaign's per-point timeout budget.  Measured points/s
#: peaks around 32 lanes (64 is slightly better warm but regresses at
#: dense fault rates where per-lane Python dominates).
DEFAULT_BATCH_LANES = 32

#: Test hook: ``callable(lane, instr_index) -> bool`` forcing an
#: eviction.
force_eviction_hook = None

_RA = 1  # link register (jal/jalr calling convention)


def batch_available():
    """Whether the batched kernel may run in this process."""
    return _np is not None and not slow_kernel_enabled()


class BatchError(SimulationError):
    """Whole-batch failure: rerun every lane on the scalar kernel."""


class _ForcedEviction(Exception):
    """Raised by the test hooks to force one lane out mid-run."""


class _Plan:
    """Per-static-instruction facts, resolved once per program."""

    __slots__ = ("fn", "cls", "op", "rd", "rs1", "rs2",
                 "is_load", "is_store", "is_branch", "is_jump",
                 "needs_entry", "reads_i1", "reads_i2", "reads_f1",
                 "reads_f2", "writes_int", "writes_fp")

    def __init__(self, decoded_instr):
        instr = decoded_instr.instr
        spec = instr.spec
        self.fn = decoded_instr.fn
        self.cls = decoded_instr.iclass
        self.op = instr.op
        self.rd = instr.rd
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.is_load = self.cls is InstrClass.LOAD
        self.is_store = self.cls is InstrClass.STORE
        self.is_branch = self.cls is InstrClass.BRANCH
        self.is_jump = self.cls is InstrClass.JUMP
        self.needs_entry = decoded_instr.needs_entry
        self.reads_i1 = spec.reads_int_rs1
        self.reads_i2 = spec.reads_int_rs2
        self.reads_f1 = spec.reads_fp_rs1
        self.reads_f2 = spec.reads_fp_rs2
        self.writes_int = spec.writes_int_rd
        self.writes_fp = spec.writes_fp_rd


class BatchOutcome:
    """What one batch produced.

    ``results[i]`` is the lane's :class:`~repro.core.system.MeekRunResult`
    or ``None`` when the lane was evicted; ``evicted[i]`` names the
    eviction cause (``None`` for lanes that completed).  ``stats``
    carries occupancy/eviction observability:
    ``{"lanes", "instructions", "occupancy", "evictions": {cause: n}}``.
    """

    __slots__ = ("results", "evicted", "stats")

    def __init__(self, results, evicted, stats):
        self.results = results
        self.evicted = evicted
        self.stats = stats


def run_batch(config, program, injectors):
    """Advance one batch of MEEK systems in lockstep.

    ``injectors`` (one per lane, or ``None`` entries for fault-free
    lanes) defines the batch width.  Every lane runs ``program`` under
    ``config``; per-lane results are bit-identical to
    ``MeekSystem(config, injector).run(program)`` on the scalar fast
    kernel.  Raises :class:`BatchError` when the whole batch cannot
    run (caller falls back to scalar execution for every lane).
    """
    if not batch_available():
        raise BatchError("batch kernel unavailable "
                         "(numpy/REPRO_SLOW_KERNEL)")
    engine = _BatchEngine(config, program, injectors)
    try:
        return engine.run()
    except BaseException:
        # Whole-batch abort: the caller reruns every lane on the
        # scalar kernel.  Leave no in-flight memo recordings behind —
        # a stale leader would turn future same-key segments into
        # perpetual followers that always fall back.
        for lane in engine.live:
            engine.controllers[lane].abandon_recording()
        raise


class _BatchEngine:
    def __init__(self, config, program, injectors):
        self.config = config
        self.program = program
        self.lanes = len(injectors)
        if self.lanes < 1:
            raise BatchError("empty batch")
        if not config.checking_enabled:
            # Without checking the controller never runs and the scalar
            # kernel is already optimal; nothing to batch.
            raise BatchError("batching requires checking_enabled")
        self.decoded = decode_program(program)
        if self.decoded.batch_plans is None:
            self.decoded.batch_plans = [_Plan(d)
                                        for d in self.decoded.entries]
        self.plans = self.decoded.batch_plans
        for plan in self.plans:
            if plan.cls is InstrClass.MEEK:
                raise BatchError("MEEK-extension programs are not batchable")
        # Shared functional/arch state: one execution for all lanes.
        self.state = ArchState(pc=program.entry_pc)
        program.data.apply(self.state.memory)
        # Per-lane systems: controller, fabric, pipelines, DEU and
        # injector are all genuinely per-lane (fault hooks fire
        # per-lane); the big core contributes the lane's private
        # DRAM/MSHR queueing state.  Lane 0's big core additionally
        # donates the *shared* tag state, predictor and FU tables —
        # tag walks and latency resolution touch disjoint state — so
        # the other lanes' hierarchies are built without tags.
        self.systems = []
        self.controllers = []
        self.lane_mem = []
        for injector in injectors:
            hierarchy = None
            if self.systems:
                hierarchy = MemoryHierarchy(config.big_core.memory,
                                            tags=False)
            system = MeekSystem(config, injector, hierarchy)
            controller = system.attach(program, self.state)
            self.systems.append(system)
            self.controllers.append(controller)
            self.lane_mem.append(system.big_core.hierarchy)
        donor = self.systems[0].big_core
        self.shared_mem = donor.hierarchy
        self.predictor = donor.predictor
        self.units = {cls: len(pool.free_at)
                      for cls, pool in donor._pools.items()}
        self.latency = donor._latency
        self.occupancy = donor._occupancy
        self.classify = self.controllers[0].deu.classify
        # Lane liveness + observability.
        self.live = list(range(self.lanes))
        self.evicted = [None] * self.lanes
        self.eviction_counts = {}
        self._occupancy_sum = 0

    # -- eviction ----------------------------------------------------------

    def _should_force_evict(self, lane, index):
        hook = force_eviction_hook
        return hook is not None and hook(lane, index)

    def _evict(self, lane, cause):
        self.evicted[lane] = cause
        self.eviction_counts[cause] = self.eviction_counts.get(cause, 0) + 1
        self.live.remove(lane)
        # Sibling followers fall back instead of waiting on a leader
        # that will never progress.
        self.controllers[lane].abandon_recording()
        if not self.live:
            raise BatchError("every lane evicted")

    # -- the lockstep loop -------------------------------------------------

    def run(self):
        np = _np
        state = self.state
        plans = self.plans
        base = self.decoded.base
        n_static = len(plans)
        lanes = self.lanes
        cfg = self.config.big_core
        shared = self.shared_mem
        predictor = self.predictor
        classify = self.classify
        controllers = self.controllers
        lane_mem = self.lane_mem
        live = self.live
        add = np.add
        maximum = np.maximum
        minimum = np.minimum
        array = np.array
        f64 = np.float64

        from repro.bigcore.core import BTB_BUBBLE_CYCLES, FRONTEND_DEPTH
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        rob_entries = cfg.rob_entries
        iq_entries = cfg.issue_queue_entries
        ldq_entries = cfg.ldq_entries
        stq_entries = cfg.stq_entries
        int_prf_window = max(1, cfg.int_phys_regs - 32)
        fp_prf_window = max(1, cfg.fp_phys_regs - 32)
        ifetch_kind = AccessKind.IFETCH
        load_kind = AccessKind.LOAD
        store_kind = AccessKind.STORE

        # Lane-vector constants: a ufunc resolves two same-typed array
        # operands faster than an array and a Python scalar.
        constants = {}

        def const(value):
            vec = constants.get(value)
            if vec is None:
                vec = constants[value] = np.full(lanes, value, f64)
            return vec

        zero = const(0)
        one = const(1)
        frontend = const(FRONTEND_DEPTH)
        redirect = const(max(1, cfg.mispredict_penalty - FRONTEND_DEPTH))
        btb_bubble = const(BTB_BUBBLE_CYCLES)

        # Every lane-vector below is immutable once published (to a
        # scoreboard, a pool or a window); only a vector still being
        # built in this iteration is written in place.  Scoreboards and
        # pools therefore hold references and never copy.
        int_ready = [zero] * 32
        fp_ready = [zero] * 32
        # A pool holds each lane's unit free times as ``units`` rows,
        # ascending per lane.  Units are interchangeable, so only the
        # multiset of free times is observable: issue takes row 0 and
        # the new free time is inserted in order.
        pools = {cls: [zero] * units for cls, units in self.units.items()}

        # One row per static instruction: every per-instruction lookup
        # (pool, latency and occupancy vectors, source scoreboards)
        # resolved once.  ``occ`` is None when the freed-at time equals
        # the completion time, so the completion vector is reused.
        steps = []
        for p in plans:
            pool = pools[p.cls]
            if p.is_load:
                lat = const(shared.config.l1d.hit_latency)
                occ = one
            else:
                cycles = 1 if p.is_store else self.latency.get(p.cls, 1)
                occupancy = 1 if p.is_store else self.occupancy.get(p.cls, 1)
                lat = const(cycles)
                occ = None if occupancy == cycles else const(occupancy)
            # x0 stays at cycle 0, which every ready time already
            # passes; a register read twice needs one ``maximum``.
            int_regs = {reg for reads, reg in ((p.reads_i1, p.rs1),
                                               (p.reads_i2, p.rs2))
                        if reads and reg}
            fp_regs = {reg for reads, reg in ((p.reads_f1, p.rs1),
                                              (p.reads_f2, p.rs2))
                       if reads}
            sources = tuple([(int_ready, reg) for reg in sorted(int_regs)]
                            + [(fp_ready, reg) for reg in sorted(fp_regs)])
            steps.append((p, pool, range(1, len(pool)), lat, occ,
                          sources, p.is_load, p.is_store,
                          p.is_branch, p.is_jump, p.writes_int,
                          p.writes_fp, p.rd))

        from collections import deque
        # Occupancy windows.  Commit times never decrease along program
        # order, so the commit-time windows (ROB, LDQ, STQ, PRF writers)
        # hold ``(index, commit)`` pairs and one ``maximum`` against the
        # youngest entry popped covers them all.  The IQ holds issue
        # times, which carry no such order.
        rob = deque()
        iq = deque()
        ldq = deque()
        stq = deque()
        int_writers = deque()
        fp_writers = deque()
        # The last ``commit_width`` commit vectors.  A lane's commits in
        # its current cycle are the tail of this history that equals its
        # commit time, so the commit-width check is one comparison with
        # the oldest entry and the slot is counted only when a hook needs
        # it.
        recent = deque(maxlen=commit_width)
        bump = np.zeros(lanes, dtype=bool)

        nfc = zero                                  # next fetch cycle
        nfc_fd = None                   # nfc + FRONTEND_DEPTH, on demand
        last_commit = zero
        fetched = 0                                 # lane-invariant
        cur_line = None                             # lane-invariant
        # Each controller's inline-budget cell [count, budget]: the
        # count is as of the lane's last hook, and the ``pending``
        # dormant commits since then are owed to every live lane.  No
        # lane fires while ``pending + 1`` stays below ``slack``, the
        # smallest remaining budget.
        hots = [ctrl._hot for ctrl in controllers]
        pending = 0
        slack = min(hots[b][1] - hots[b][0] for b in live)

        check_forced = force_eviction_hook is not None
        occupancy_sum = 0
        index = 0
        halted_by = "end"
        while True:
            pc = state.pc
            offset = pc - base
            if offset < 0 or offset & 3:
                raise BatchError(f"pc {pc:#x} left the decoded image")
            idx = offset >> 2
            if idx >= n_static:
                break
            (p, pool, units, lat, occ, sources, is_load, is_store,
             is_branch, is_jump, writes_int, writes_fp, rd) = steps[idx]

            # ---- fetch (shared tag walk, per-lane miss queueing) -----
            # ``nfc`` doubles as this instruction's fetch cycle until
            # the control-flow handlers rebind it.
            line = pc >> 6
            if line != cur_line:
                code = shared.lookup_code(pc, ifetch_kind)
                if code != L1_HIT:
                    times = nfc.tolist()
                    for b in live:
                        times[b] += lane_mem[b].latency_for_code(
                            code, times[b], ifetch_kind)
                    nfc = array(times, f64)
                    nfc_fd = None
                    fetched = 0
                cur_line = line
            if fetched >= fetch_width:
                nfc = add(nfc, one)
                nfc_fd = None
                fetched = 0
            fetched += 1

            # ---- rename/dispatch (occupancy windows) -----------------
            if nfc_fd is None:
                nfc_fd = add(nfc, frontend)
            rename = nfc_fd
            youngest = -1
            if len(rob) >= rob_entries:
                youngest, held = rob.popleft()
            if is_load and len(ldq) >= ldq_entries:
                entry = ldq.popleft()
                if entry[0] > youngest:
                    youngest, held = entry
            if is_store and len(stq) >= stq_entries:
                entry = stq.popleft()
                if entry[0] > youngest:
                    youngest, held = entry
            if writes_int and len(int_writers) >= int_prf_window:
                entry = int_writers.popleft()
                if entry[0] > youngest:
                    youngest, held = entry
            if writes_fp and len(fp_writers) >= fp_prf_window:
                entry = fp_writers.popleft()
                if entry[0] > youngest:
                    youngest, held = entry
            if youngest >= 0:
                rename = maximum(rename, held)
            if len(iq) >= iq_entries:
                rename = maximum(rename, iq.popleft())

            # ---- operand readiness, issue (``ready`` becomes issue) --
            issue = add(rename, one)
            for board, reg in sources:
                maximum(issue, board[reg], out=issue)
            maximum(issue, pool[0], out=issue)

            # ---- functional execution (shared, once per batch) -------
            result = p.fn(state, None, None)

            # ---- complete, and the unit's new free time --------------
            if is_load:
                code = shared.lookup_code(result.mem_addr, load_kind)
                if code == L1_HIT:
                    complete = add(issue, lat)
                else:
                    times = issue.tolist()
                    for b in live:
                        times[b] += lane_mem[b].latency_for_code(
                            code, times[b], load_kind)
                    complete = array(times, f64)
            else:
                complete = add(issue, lat)
            free = complete if occ is None else add(issue, occ)
            for unit in units:
                later = pool[unit]
                pool[unit - 1] = minimum(free, later)
                free = maximum(free, later)
            pool[-1] = free

            # ---- control flow / prediction (shared outcome) ----------
            if is_branch:
                outcome = predictor.predict_and_update(
                    pc, result.taken,
                    target=result.next_pc if result.taken else None)
                if outcome == "mispredict":
                    nfc = add(complete, redirect)
                    nfc_fd = None
                    fetched = 0
                    cur_line = None
                elif outcome == "btb_bubble":
                    nfc = add(nfc, btb_bubble)
                    nfc_fd = None
                    fetched = 0
                    cur_line = None
                elif result.taken:
                    nfc = add(nfc, one)
                    nfc_fd = None
                    fetched = 0
                    cur_line = None
            elif is_jump:
                if p.op == "jal":
                    if rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                    correct = True
                else:  # jalr
                    if rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                        correct = predictor.predict_indirect(
                            pc, result.next_pc)
                    elif p.rs1 == _RA and rd == 0:
                        correct = predictor.predict_return(pc, result.next_pc)
                    else:
                        correct = predictor.predict_indirect(
                            pc, result.next_pc)
                if not correct:
                    nfc = add(complete, redirect)
                else:
                    nfc = add(nfc, one)
                nfc_fd = None
                fetched = 0
                cur_line = None

            # ---- commit head -----------------------------------------
            commit = add(complete, one)
            maximum(commit, last_commit, out=commit)
            if len(recent) == commit_width:
                # Equal to the commit ``commit_width`` back means the
                # whole tail shares this cycle: the cycle is full.
                np.equal(commit, recent[0], out=bump)
                if np.count_nonzero(bump):
                    add(commit, bump, out=commit)

            if is_store:
                # Write buffer retires the store after commit (before
                # the hook sees the instruction, as on the scalar path).
                code = shared.lookup_code(result.mem_addr, store_kind)
                if code != L1_HIT:
                    times = commit.tolist()
                    for b in live:
                        lane_mem[b].latency_for_code(
                            code, times[b], store_kind)

            # ---- the MEEK hook (genuinely per-lane) ------------------
            trap = result.trap
            if p.needs_entry or trap is not None:
                record = classify(result)
                if record is None:
                    rkind, addr, data, size = None, 0, 0, 0
                    template = None
                else:
                    rkind, addr, data, size = record
                    # The record fields are lane-invariant (faults
                    # corrupt forwarded copies downstream), so build
                    # one template — paying the parity computation
                    # once — and hand each lane its own copy to
                    # corrupt/buffer/compare independently.
                    template = RuntimeEntry(rkind, addr, data, size)
                hooked = tuple(live)
            elif pending + 1 < slack:
                # Dormant commit, absorbed by every lane's budget.
                pending += 1
                hooked = None
            else:
                # Some lane's budget runs out here: it enters the hook
                # with its count; the rest absorb this commit too.
                rkind, addr, data, size = None, 0, 0, 0
                template = None
                absorbed = pending + 1
                hooked = []
                for b in live:
                    hot = hots[b]
                    if hot[0] + absorbed >= hot[1]:
                        hooked.append(b)
                    else:
                        hot[0] += absorbed
            if hooked is not None:
                # A lane's commit slot: how many of its latest commits
                # share its commit cycle.
                times = commit.tolist()
                slots = [0] * lanes
                sharing = hooked
                for prior in reversed(recent):
                    prior = prior.tolist()
                    sharing = [b for b in sharing if prior[b] == times[b]]
                    if not sharing:
                        break
                    for b in sharing:
                        slots[b] += 1
                stalled = False
                for b in hooked:
                    try:
                        if check_forced and self._should_force_evict(b, index):
                            raise _ForcedEviction
                        ctrl = controllers[b]
                        ctrl._hot[0] += pending
                        t = times[b]
                        newc = ctrl.fast_commit(
                            index, pc, t, slots[b], trap,
                            rkind, addr, data, size,
                            None if template is None else template.copy())
                        if newc > t:
                            times[b] = newc
                            stalled = True
                    except _ForcedEviction:
                        self._evict(b, "forced")
                    except Exception:
                        self._evict(b, "hook-error")
                if stalled:
                    commit = array(times, f64)
                pending = 0
                slack = min([hots[b][1] - hots[b][0] for b in live])

            last_commit = commit
            recent.append(commit)

            # ---- bookkeeping -----------------------------------------
            entry = (index, commit)
            rob.append(entry)
            iq.append(issue)
            if is_load:
                ldq.append(entry)
            elif is_store:
                stq.append(entry)
            if writes_int and rd:
                int_ready[rd] = complete
                int_writers.append(entry)
            if writes_fp:
                fp_ready[rd] = complete
                fp_writers.append(entry)

            occupancy_sum += len(live)
            index += 1
            if trap is not None:
                halted_by = trap
                break

        self._occupancy_sum = occupancy_sum
        return self._finish(index, last_commit, pending, halted_by)

    # -- teardown ----------------------------------------------------------

    def _finish(self, instructions, last_commit, pending, halted_by):
        from repro.bigcore.core import RunResult
        predictor_stats = self.predictor.stats()
        memory_stats = self.shared_mem.stats()
        results = [None] * self.lanes
        for b in tuple(self.live):
            cycles = float(last_commit[b])
            controller = self.controllers[b]
            controller._hot[0] += pending
            big = RunResult(
                instructions=instructions, cycles=cycles, state=self.state,
                predictor_stats=predictor_stats, memory_stats=memory_stats,
                halted_by=halted_by)
            try:
                results[b] = self.systems[b].finish(big)
            except Exception:
                self._evict(b, "finalize-error")
        denominator = max(1, instructions) * self.lanes
        stats = {
            "lanes": self.lanes,
            "instructions": instructions,
            "occupancy": self._occupancy_sum / denominator,
            "evictions": dict(self.eviction_counts),
        }
        return BatchOutcome(results, list(self.evicted), stats)
