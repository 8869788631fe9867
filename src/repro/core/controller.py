"""MEEK commit-stage controller.

This is the orchestration glue the paper distributes between the DEU's
control circuits, the F2 scheduler and the OS-reserved LSLs: it watches
every big-core commit through the commit hook, forwards run-time data
to the active segment's little core, triggers RCPs (LSL full /
instruction timeout / kernel trap), selectively broadcasts status data
to the ERCP and SRCP consumers, schedules segments onto free little
cores, and — crucially for the evaluation — converts resource
exhaustion into commit stalls attributed to the three Fig. 9
categories: data collecting, data forwarding, and little-core
availability.
"""

import enum

from repro.bigcore.deu import DataExtractionUnit
from repro.common.errors import SimulationError
from repro.core.checker import CheckerRun
from repro.core.lsl import LoadStoreLog
from repro.core.segments import Segment, SegmentEndReason
from repro.fabric.dcbuffer import DcBufferModel
from repro.fabric.packets import Packet, PacketKind
from repro.perf.decode import slow_kernel_enabled

#: Inline budget meaning "never consult the controller" (checking
#: disabled): larger than any possible committed-instruction count.
_HOT_UNBOUNDED = 1 << 62


class StallReason(enum.Enum):
    COLLECTING = "data_collecting"
    FORWARDING = "data_forwarding"
    LITTLE_CORE = "little_core"


class MeekController:
    """Per-run MEEK orchestration state."""

    def __init__(self, config, program, state, fabric, pipelines, lsls=None,
                 injector=None):
        self.config = config
        self.program = program
        self.state = state
        self.fabric = fabric
        self.pipelines = pipelines
        self.num_cores = len(pipelines)
        self.lsls = lsls if lsls is not None else [
            LoadStoreLog(config.little_core.lsl, core_id=i)
            for i in range(self.num_cores)]
        self.injector = injector
        self.deu = DataExtractionUnit()
        self.deu.set_enabled(config.checking_enabled)
        width = config.big_core.commit_width
        self.dc_buffers = [
            DcBufferModel(config.fabric.status_fifo_depth,
                          config.fabric.runtime_fifo_depth,
                          name=f"dcbuf{i}")
            for i in range(width)]
        self._num_buffers = len(self.dc_buffers)
        # getattr: tests drive the controller with duck-typed injectors
        # that predate the dcbuf/fabric targets.
        if getattr(injector, "wants_dcbuf", False):
            for buffer in self.dc_buffers:
                buffer.fault_hook = self._dcbuf_fault
        if getattr(injector, "wants_fabric", False):
            fabric.fault_hook = self._fabric_fault
        self.segments = []
        self.active = None
        self.checkers = {}          # seg_id -> CheckerRun
        self.core_free = [0] * self.num_cores
        self.stall_cycles = {reason: 0 for reason in StallReason}
        self.detections = []        # (seg_id, cycle, reason)
        self.verdicts = []
        self._rcp_counter = 0
        self._next_core = 0
        self._pending_srcp = None   # (snapshot, delivery_cycle)
        self._timeout = config.little_core.lsl.instruction_timeout
        self._initialized = False
        # Fast kernel: batch checker replay.  The checker's progress is
        # only observable to the big core through LSL consumption times
        # (the credit-full check) and the close-time verdict, and
        # neither depends on *when* advance() runs — the pipeline model
        # is driven by delivery times, not wall order.  So the fast
        # kernel advances only when the credit check could fire (see
        # _lsl_credit_full) and at segment close, replaying whole runs
        # of work per call; the slow kernel keeps the naive
        # advance-every-commit loop as the oracle.
        self._eager_advance = slow_kernel_enabled()
        # Hook-path elimination (fast kernel): the fused steppers share
        # this cell — ``[instr_count, close_budget]`` — and absorb
        # *dormant* commits (nothing to log, cannot trap) by bumping
        # ``_hot[0]`` inline while it stays below ``_hot[1]``, entering
        # fast_commit only for log-producing commits and segment
        # open/close.  fast_commit re-syncs ``seg.instr_count`` from
        # the cell on entry and republishes the budget on exit; while
        # no segment is active the budget is 0, so every commit reaches
        # the controller (which opens the segment — or raises if
        # initialize() was never called).
        self._hot = [0, 0]

    # -- lifecycle ---------------------------------------------------------

    def initialize(self, cycle=0):
        """Take the initial RCP (SRCP of segment 0) and forward it."""
        if not self.deu.enabled:
            # With checking off the hook is pure overhead; give the
            # inline path an unbounded budget so no commit ever pays
            # the controller call.
            self._hot[1] = _HOT_UNBOUNDED
            self._initialized = True
            return
        snapshot = self.deu.extract_status(self.state, self._rcp_counter,
                                           seg_id=0, next_pc=self.state.pc)
        self._rcp_counter += 1
        if self.injector is not None:
            self.injector.maybe_inject_status(snapshot, cycle, seg_id=0)
        packet = Packet(PacketKind.STATUS, snapshot, seg_id=0,
                        created_cycle=cycle, dests=(self._next_core,))
        report = self.fabric.send(packet, cycle)
        self._pending_srcp = (snapshot,
                              report.delivery_times[self._next_core])
        self._initialized = True

    # -- the commit hook (DEU observation channel) ---------------------------

    def commit_hook(self, event):
        """Observe one commit; return its (possibly stalled) cycle.

        A thin adapter: classifies the commit through the DEU and
        delegates to :meth:`fast_commit`, so the classic (slow-kernel /
        custom-hook) path and the JIT path share one implementation of
        the commit protocol.
        """
        result = event.result
        record = self.deu.classify(result)
        if record is None:
            rkind, addr, data, size = None, 0, 0, 0
        else:
            rkind, addr, data, size = record
        return self.fast_commit(event.index, event.pc, event.commit_cycle,
                                event.commit_slot, result.trap, rkind,
                                addr, data, size)

    def fast_commit(self, index, pc, t, slot, trap, rkind, addr, data, size,
                    prebuilt=None):
        """The commit protocol, on scalar commit facts.

        The fused big-core steppers (:mod:`repro.perf.jit`) call this
        directly, skipping the per-instruction CommitEvent/ExecResult;
        :meth:`commit_hook` adapts the classic event interface onto it.
        ``rkind`` is the RuntimeKind of a load/store/CSR commit or
        ``None``.
        """
        if not self._initialized:
            raise SimulationError("controller used before initialize()")
        if not self.deu.enabled:
            return t
        hot = self._hot
        if self.active is None:
            t = self._open_segment(t, pc)
            seg = self.active
        else:
            seg = self.active
            if hot[0] > seg.instr_count:
                # Commits the inline path absorbed since the last call.
                seg.instr_count = hot[0]

        if rkind is not None:
            if prebuilt is not None:
                entry = self.deu.adopt_runtime(prebuilt)
            else:
                entry = self.deu.record_runtime(rkind, addr, data, size)
            if self.injector is not None:
                # Unconditional call: the injector's own segment-gap
                # check subsumes the old ``not seg.injected`` gate
                # without extra RNG draws, and permanent (stuck-at)
                # lines must see every forwarded record.
                record = self.injector.maybe_inject_runtime(entry, t,
                                                            seg.seg_id)
                if record is not None:
                    seg.injected = True
            accept_times, delivery = self.fabric.send_runtime(
                seg.assigned_core, t)
            buffer = self.dc_buffers[slot % self._num_buffers]
            stall_until = buffer.push("runtime", accept_times, t,
                                      payload=entry)
            if stall_until > t:
                self.stall_cycles[StallReason.FORWARDING] += stall_until - t
                t = stall_until
            seg.add_entry(entry, delivery)
            self.lsls[seg.assigned_core].record_delivery(delivery)
            logged = True
        else:
            logged = False

        seg.instr_count += 1
        if self._eager_advance:
            self.checkers[seg.seg_id].advance()

        reason = None
        if logged and self._lsl_credit_full(seg, t):
            reason = SegmentEndReason.LSL_FULL
        elif seg.instr_count >= self._timeout:
            reason = SegmentEndReason.TIMEOUT
        elif trap is not None:
            reason = SegmentEndReason.KERNEL_TRAP
        if reason is not None:
            t = self._close_segment(t, reason, slot)
        if self.active is None:
            hot[0] = 0
            hot[1] = 0
        else:
            hot[0] = seg.instr_count
            hot[1] = self._timeout
        return t

    def finalize(self, end_cycle):
        """Close the trailing partial segment and drain all checkers.

        Returns the cycle at which the last checker finished.
        """
        if not self.deu.enabled:
            return end_cycle
        if (self.active is not None
                and self._hot[0] > self.active.instr_count):
            # Trailing commits the inline fast path absorbed.
            self.active.instr_count = self._hot[0]
        if self.active is not None and self.active.instr_count > 0:
            self._close_segment(end_cycle, SegmentEndReason.PROGRAM_END, 0)
        elif self.active is not None:
            # An empty segment needs no verification.
            self.abandon_recording()
            self.active = None
        drain = max(self.core_free) if self.core_free else end_cycle
        return max(drain, end_cycle)

    def abandon_recording(self):
        """Retire the active segment's in-flight memo recording, if any
        (an empty trailing segment, a run that unwinds, a lane leaving
        its batch), so no later run follows a leader that will never
        progress."""
        if self.active is not None:
            checker = self.checkers.get(self.active.seg_id)
            if checker is not None:
                checker.abandon_recording()

    # -- internals -------------------------------------------------------------

    def _dcbuf_fault(self, channel, payload, now):
        """DC-Buffer fault hook: corrupt a buffered run-time record."""
        if channel == "runtime" and self.active is not None:
            record = self.injector.maybe_inject_dcbuf(
                payload, now, self.active.seg_id)
            if record is not None:
                self.active.injected = True

    def _fabric_fault(self, packet, now):
        """Fabric fault hook: corrupt an in-flight status payload."""
        record = self.injector.maybe_inject_fabric(packet, now)
        if record is not None and self.active is not None:
            self.active.injected = True

    def _lsl_credit_full(self, seg, now):
        """LSL-full RCP trigger, credit-based: entries sent minus
        entries the checker has consumed by ``now``.

        Fast kernel: the checker advances on demand.  Its known
        consumption times only grow, so the outstanding count against
        them is an upper bound on the count after an advance.  While
        that bound is below capacity and at most the peak already
        seen, neither the trigger nor ``peak_occupancy`` can change,
        and the advance waits for a later record or the segment close.
        """
        lsl = self.lsls[seg.assigned_core]
        if not self._eager_advance:
            bound = lsl.outstanding_bound(now)
            if bound < lsl.capacity and bound <= lsl.peak_occupancy:
                return False
            self.checkers[seg.seg_id].advance()
        return lsl.outstanding(now) >= lsl.capacity

    def _open_segment(self, t, start_pc):
        core = self._next_core
        free = self.core_free[core]
        if free > t:
            self.stall_cycles[StallReason.LITTLE_CORE] += free - t
            t = free
        snapshot, delivery = self._pending_srcp
        seg = Segment(seg_id=len(self.segments), start_pc=start_pc,
                      srcp=snapshot, srcp_delivery=delivery,
                      assigned_core=core, start_cycle=t)
        self.segments.append(seg)
        self.active = seg
        lsl = self.lsls[core]
        lsl.bind_segment()
        checker = CheckerRun(
            seg, self.program, self.pipelines[core], lsl,
            clock_ratio=2,
            one_instruction_behind=self.config.one_instruction_behind,
            # Segment boundaries drift once a detection has perturbed
            # checker timing, so post-detection segments key uniquely
            # per trial: recording them would only pollute the memo
            # store.  (Replaying *from* the store stays allowed.)
            memo_record=not self.detections)
        self.checkers[seg.seg_id] = checker
        return t

    def _choose_next_core(self, closing_core):
        if self.num_cores == 1:
            return 0
        candidates = [c for c in range(self.num_cores) if c != closing_core]
        return min(candidates, key=lambda c: (self.core_free[c], c))

    def _close_segment(self, t, reason, commit_slot):
        seg = self.active
        # Data collecting: the DEU preempts the PRF read ports for a
        # few cycles to capture the register files (Fig. 3c).
        extraction = self.deu.status_extraction_cycles
        self.stall_cycles[StallReason.COLLECTING] += extraction
        t += extraction

        snapshot = self.deu.extract_status(self.state, self._rcp_counter,
                                           seg_id=seg.seg_id + 1,
                                           next_pc=self.state.pc)
        self._rcp_counter += 1
        if self.injector is not None:
            record = self.injector.maybe_inject_status(snapshot, t,
                                                       seg.seg_id)
            if record is not None:
                seg.injected = True

        next_core = self._choose_next_core(seg.assigned_core)
        dests = (seg.assigned_core, next_core)
        if next_core == seg.assigned_core:
            dests = (seg.assigned_core,)
        packet = Packet(PacketKind.STATUS, snapshot, seg.seg_id, t,
                        dests=dests)
        report = self.fabric.send(packet, t)
        buffer = self.dc_buffers[commit_slot % self._num_buffers]
        stall_until = buffer.push("status", report.accept_times, t)
        if stall_until > t:
            self.stall_cycles[StallReason.FORWARDING] += stall_until - t
            t = stall_until

        seg.close(t, reason, ercp=snapshot,
                  ercp_delivery=report.delivery_times[seg.assigned_core],
                  end_pc=self.state.pc)
        checker = self.checkers[seg.seg_id]
        verdict = checker.advance()
        if verdict is None:
            raise SimulationError(
                f"checker for segment {seg.seg_id} did not finish at close")
        self.verdicts.append(verdict)
        self.core_free[seg.assigned_core] = verdict.finish_cycle
        if not verdict.ok:
            self.detections.append((seg.seg_id, verdict.detect_cycle,
                                    verdict.reason))

        self._pending_srcp = (snapshot, report.delivery_times[next_core])
        self._next_core = next_core
        self.active = None
        return t

    # -- reporting --------------------------------------------------------------

    def total_stall_cycles(self):
        return sum(self.stall_cycles.values())

    def stats(self):
        closed = [s for s in self.segments if s.closed]
        return {
            "segments": len(self.segments),
            "rcp_count": self._rcp_counter,
            "stall_cycles": {r.value: c for r, c in self.stall_cycles.items()},
            "end_reasons": {
                reason.value: sum(1 for s in closed if s.end_reason is reason)
                for reason in SegmentEndReason},
            "mean_segment_instrs": (
                sum(s.instr_count for s in closed) / len(closed)
                if closed else 0.0),
            "deu": self.deu.stats(),
            "fabric": self.fabric.stats(),
            "lsl_peak_occupancy": max(
                (lsl.peak_occupancy for lsl in self.lsls), default=0),
        }
