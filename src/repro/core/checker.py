"""Checker-thread re-execution.

A :class:`CheckerRun` genuinely re-executes one segment on a little
core: the architectural state is reset from the (possibly corrupted)
SRCP packet, every load returns data from the Load-Store Log, every
store and CSR operation is compared entry-by-entry against the log,
and the ERCP closes with a full register-file comparison — so error
detection in this model happens by the same mechanism as in the
hardware, not by scripted outcomes.

The run is *incremental*: the controller calls :meth:`advance` each
time new run-time entries arrive or the segment closes, and the checker
executes as far as the log (and the one-instruction-behind rule of
Fig. 5b) allows.  All timestamps come from the little core's pipeline
model, in big-core cycles.
"""

from repro.common.bitops import mask
from repro.common.errors import SimulationError
from repro.core import segmemo
from repro.fabric.packets import RuntimeKind
from repro.isa.instructions import InstrClass
from repro.isa.semantics import execute
from repro.isa.state import ArchState, Memory
from repro.perf.decode import decode_program, slow_kernel_enabled

#: Below every cycle: the monotone-clamp floor of an empty LSL log.
_NO_TIME = float("-inf")


class SegmentVerdict:
    """Outcome of verifying one segment."""

    __slots__ = ("ok", "detect_cycle", "reason", "finish_cycle", "seg_id")

    def __init__(self, ok, finish_cycle, seg_id, detect_cycle=None,
                 reason=None):
        self.ok = ok
        self.finish_cycle = finish_cycle
        self.seg_id = seg_id
        self.detect_cycle = detect_cycle
        self.reason = reason

    def __repr__(self):
        if self.ok:
            return f"SegmentVerdict(seg={self.seg_id}, ok @ {self.finish_cycle})"
        return (f"SegmentVerdict(seg={self.seg_id}, ERROR {self.reason!r} "
                f"@ {self.detect_cycle})")


class _LslPort:
    """Memory interface that serves loads from, and compares stores
    against, the current LSL entry (Fig. 4b)."""

    __slots__ = ("entry", "mismatch")

    def __init__(self):
        self.entry = None
        self.mismatch = None

    def load(self, addr, size, signed=False):
        entry = self.entry
        if entry.rkind is not RuntimeKind.LOAD:
            self.mismatch = "lsl-kind-mismatch-on-load"
        elif entry.addr != addr or entry.size != size:
            self.mismatch = "load-address-mismatch"
        # Replay proceeds with the logged data either way; a detected
        # mismatch aborts the segment at this instruction.
        return entry.data

    def store(self, addr, value, size):
        entry = self.entry
        if entry.rkind is not RuntimeKind.STORE:
            self.mismatch = "lsl-kind-mismatch-on-store"
        elif entry.addr != addr or entry.size != size:
            self.mismatch = "store-address-mismatch"
        elif (value & mask(size * 8)) != entry.data:
            self.mismatch = "store-data-mismatch"


class CheckerRun:
    """Re-execution of one segment on one little core."""

    #: Little-core cycles of checker-loop runtime around a segment
    #: (Algorithm 2: l.record, busy-wait exit, l.jal redirect).
    STARTUP_CYCLES = 6

    #: Architectural registers applied/compared per little-core cycle.
    REGISTER_PORTS = 8

    def __init__(self, segment, program, pipeline, lsl, clock_ratio=2,
                 one_instruction_behind=True, memo_record=True):
        self.segment = segment
        self.program = program
        self.pipeline = pipeline
        self.lsl = lsl
        self.ratio = clock_ratio
        self.one_behind = one_instruction_behind
        self.verdict = None
        self.executed = 0
        self.next_entry = 0
        self._port = _LslPort()
        # Replay through the same decoded closure table as the big
        # core; the naive kernel re-decodes per instruction instead.
        if slow_kernel_enabled():
            self._decoded = None
            self._replay = None
            self._pipe = None
        else:
            from repro.perf.jit import replay_context, replay_table
            self._decoded = decode_program(program)
            # Fused replay+timing closures, shared by every pipeline
            # with this one's timing constants; the pipeline's own
            # state rides along on each call.
            self._replay = replay_table(self._decoded, pipeline)
            self._pipe = replay_context(pipeline)

        srcp = segment.srcp
        # The checker's state comes from the forwarded SRCP — including
        # its PC.  A corrupted SRCP therefore really does start replay
        # in the wrong place, and is caught by log/ERCP comparison.
        self.state = ArchState(memory=Memory(), pc=srcp.pc)
        self.state.apply_register_snapshot(srcp.int_regs, srcp.fp_regs)
        self.state.csrs = dict(srcp.csrs)

        apply_cycles = -(-64 // self.REGISTER_PORTS)
        start = max(segment.srcp_delivery, pipeline.time)
        start += (self.STARTUP_CYCLES + apply_cycles) * clock_ratio
        pipeline.reset_to(start)
        self.start_cycle = start

        # Segment memoization (repro.core.segmemo): a previously seen
        # (program, SRCP, pipeline-config) segment replays from its
        # recorded summary; otherwise this run may record one.
        self._memo = None
        self._rec = None
        self._follow = None
        self._memo_record = memo_record
        self._skip_consume = 0
        if self._decoded is not None and segmemo.memo_enabled():
            segmemo.prepare(self)

    # -- helpers ---------------------------------------------------------

    @property
    def _allowed_count(self):
        """How many instructions the checker may have executed.

        While the segment is open the checker stays one instruction
        behind the main thread (the Fig. 5b deadlock fix); once closed
        it runs to the ERCP.
        """
        count = self.segment.instr_count
        if self.one_behind and not self.segment.closed:
            count -= 1
        return count

    def _detect(self, cycle, reason):
        if self._rec is not None:
            segmemo.abandon(self, "detection")
        self.verdict = SegmentVerdict(ok=False, finish_cycle=cycle,
                                      seg_id=self.segment.seg_id,
                                      detect_cycle=cycle, reason=reason)
        return self.verdict

    def abandon_recording(self):
        """Retire an in-flight memo recording without a verdict (lane
        eviction, empty trailing segment at program end)."""
        if self._rec is not None:
            segmemo.abandon(self, "retired")

    @property
    def compare_cycles(self):
        """ERCP register-file comparison latency, big cycles."""
        return (-(-64 // self.REGISTER_PORTS) + 1) * self.ratio

    # -- main loop -------------------------------------------------------

    def advance(self):
        """Execute as far as the log allows.  Returns the verdict once
        the segment is fully verified (or an error detected), else
        ``None``."""
        if self.verdict is not None:
            return self.verdict
        if self._memo is not None or self._follow is not None:
            if self._follow is not None:
                outcome = segmemo.follow_advance(self)
            else:
                outcome = segmemo.memo_advance(self)
            if outcome is not segmemo.FALLBACK:
                return outcome
            # The recording cannot describe this segment (corrupted
            # entry, diverged boundary, late load bind, leader gone):
            # replay it for real from the segment start.  Nothing was
            # mutated except consumption times already proven equal,
            # which the re-execution below must emit-skip rather than
            # repeat.
            self._memo = None
            self._follow = None
            self._skip_consume = self.next_entry
            self.next_entry = 0
        seg = self.segment
        decoded = self._decoded
        state = self.state
        pipeline = self.pipeline
        port = self._port
        # The allowed count and the entry log are fixed for the whole
        # call (the controller mutates them only between calls), so the
        # loop bounds hoist out: one batched replay burst per call.
        allowed = self._allowed_count
        entries = seg.entries
        deliveries = seg.entry_deliveries
        num_entries = len(entries)
        record_consumption = self.lsl.record_consumption

        if decoded is not None:
            # Fast kernel: fused replay+timing closures, one call per
            # instruction, batched across the whole allowed prefix.  The
            # cursors live in locals and are written back on every exit;
            # consumption times go straight onto the LSL's list with
            # record_consumption's monotone clamp.
            replay = self._replay
            pipe = self._pipe
            dec_entries = decoded.entries
            needs_entry = decoded.needs_entry
            base = decoded.base
            n = len(dec_entries)
            rec = self._rec
            cls_load = InstrClass.LOAD
            consume_times = self.lsl.consume_times
            append_consume = consume_times.append
            last_consume = consume_times[-1] if consume_times else _NO_TIME
            skip = self._skip_consume
            executed = self.executed
            next_entry = self.next_entry
            try:
                while True:
                    if executed >= allowed:
                        if seg.closed and executed >= seg.instr_count:
                            self.executed = executed
                            self.next_entry = next_entry
                            return self._final_compare()
                        return None  # wait for the main thread
                    pc = state.pc
                    offset = pc - base
                    if offset < 0 or offset & 3:
                        return self._detect(pipeline.time, "pc-misaligned")
                    idx = offset >> 2
                    if idx >= n:
                        return self._detect(pipeline.time,
                                            "pc-out-of-program")
                    if not needs_entry[idx]:
                        replay[idx](state, pc, None, None, pipe)
                        executed += 1
                        if rec is not None:
                            rec.pcs.append(pc)
                        continue
                    if next_entry >= num_entries:
                        if seg.closed:
                            return self._detect(pipeline.time,
                                                "log-exhausted")
                        return None  # entry not produced yet
                    entry = entries[next_entry]
                    delivery = deliveries[next_entry]
                    next_entry += 1
                    complete, mismatch = replay[idx](state, pc, entry,
                                                     delivery, pipe)
                    executed += 1
                    consume = complete if complete > delivery else delivery
                    if skip:
                        # Re-execution after a memo fallback: this
                        # consumption was already emitted (and proven
                        # equal) by the validated memo prefix.
                        skip -= 1
                    else:
                        if consume >= last_consume:
                            last_consume = consume
                        append_consume(last_consume)
                    if mismatch is not None:
                        return self._detect(consume, mismatch)
                    if rec is not None:
                        is_load = dec_entries[idx].iclass is cls_load
                        if is_load and delivery >= complete:
                            # The logged data arrived late enough to
                            # bind this load's completion to delivery
                            # time: the relative schedule is no longer
                            # a pure function of the segment key.
                            segmemo.abandon(self, "late-load")
                            rec = None
                        else:
                            rec.pcs.append(pc)
                            rec.positions.append(executed - 1)
                            rec.recs.append((entry.rkind, entry.addr,
                                             entry.data, entry.size))
                            rec.complete_rel.append(complete - rec.start)
                            rec.is_load.append(is_load)
            finally:
                self.executed = executed
                self.next_entry = next_entry
                self._skip_consume = skip

        cls_load = InstrClass.LOAD
        while True:
            if self.executed >= allowed:
                if seg.closed and self.executed >= seg.instr_count:
                    return self._final_compare()
                return None  # wait for the main thread

            # Fetch from the shared program image (naive kernel).
            try:
                instr = self.program.fetch(state.pc)
            except SimulationError:
                return self._detect(pipeline.time, "pc-misaligned")
            if instr is None:
                return self._detect(pipeline.time, "pc-out-of-program")
            iclass = instr.spec.iclass
            needs_entry = iclass in (InstrClass.LOAD, InstrClass.STORE,
                                     InstrClass.CSR)

            entry = None
            delivery = None
            if needs_entry:
                if self.next_entry >= num_entries:
                    if seg.closed:
                        return self._detect(pipeline.time, "log-exhausted")
                    return None  # entry not produced yet
                entry = entries[self.next_entry]
                delivery = deliveries[self.next_entry]
                self.next_entry += 1

            pc = state.pc
            port.entry = entry
            port.mismatch = None
            result = execute(instr, state,
                             mem_port=port if needs_entry else None)
            complete = pipeline.step(
                instr, pc, taken_branch=result.taken,
                load_data_available=(delivery
                                     if iclass is cls_load else None))
            self.executed += 1

            if needs_entry:
                consume = max(complete, delivery)
                record_consumption(consume)
                if iclass is InstrClass.CSR:
                    if entry.rkind is not RuntimeKind.CSR:
                        self._port.mismatch = "lsl-kind-mismatch-on-csr"
                    elif (entry.addr != result.csr_addr
                          or entry.data != result.rd_value):
                        self._port.mismatch = "csr-mismatch"
                if self._port.mismatch is not None:
                    return self._detect(consume, self._port.mismatch)

    def _final_compare(self):
        seg = self.segment
        when = max(self.pipeline.time, seg.ercp_delivery)
        when += self.compare_cycles
        drained = self.next_entry == len(seg.entries)
        matches = seg.ercp.matches(self.state.int_regs, self.state.fp_regs,
                                   self.state.csrs, self.state.pc)
        if matches and drained:
            self.verdict = SegmentVerdict(ok=True, finish_cycle=when,
                                          seg_id=seg.seg_id)
            if self._rec is not None:
                # Only clean segments are worth remembering (faulty
                # ones are detection-dependent one-offs), and only
                # clean ones are *safe* to remember: the recorded
                # finals then equal the committed ERCP.
                segmemo.commit_recording(self)
        else:
            reason = "ercp-register-mismatch" if drained else "log-not-drained"
            self.verdict = self._detect(when, reason)
        return self.verdict

    def finish_from_memo(self, summary):
        """Settle a fully memoized segment: the same final comparison
        as :meth:`_final_compare`, against the recorded architectural
        state (which equals what re-execution would have produced).
        The log is drained by construction of the memo walk."""
        seg = self.segment
        when = max(self.pipeline.time, seg.ercp_delivery)
        when += self.compare_cycles
        if seg.ercp.matches(summary.final_int_regs, summary.final_fp_regs,
                            summary.final_csrs, summary.final_pc):
            self.verdict = SegmentVerdict(ok=True, finish_cycle=when,
                                          seg_id=seg.seg_id)
            return self.verdict
        return self._detect(when, "ercp-register-mismatch")
