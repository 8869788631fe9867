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

The fused record path
---------------------
On the fast kernel a log-producing commit forwards its record in one
inlined sequence in :meth:`MeekController.fast_commit`: DEU sequence
stamp, fabric slot cursor and counters, DC-Buffer runtime-channel
purge/extend/stall, segment entry log, LSL delivery and the LSL credit
check.  It computes exactly what the classic calls
(``DataExtractionUnit.record_runtime``, ``ForwardingFabric.send_runtime``,
``DcBufferModel.push``, ``Segment.add_entry``,
``LoadStoreLog.record_delivery``) compute, because:

* the fabric's hooks are constant for a run: the flits per record and
  the slot interval are resolved once per controller, the route latency
  to the active segment's core once per segment.  A fabric class that
  overrides ``send``, ``_transfers_for`` or ``send_runtime`` keeps the
  classic calls;
* deliveries to one core are monotone within a segment (the slot
  cursor never moves back and the route latency is fixed), so the LSL's
  delivery clamp cannot fire and the segment and its LSL share one
  delivery list;
* the DC-Buffer fault hook and the injector are called in the classic
  order, with the same arguments.

``REPRO_SLOW_KERNEL=1`` keeps the classic calls as the oracle.
"""

import enum
from bisect import bisect_right

from repro.bigcore.deu import DataExtractionUnit
from repro.common.errors import SimulationError
from repro.core.checker import CheckerRun
from repro.core.lsl import LoadStoreLog
from repro.core.segments import Segment, SegmentEndReason
from repro.fabric.base import ForwardingFabric
from repro.fabric.dcbuffer import DcBufferModel
from repro.fabric.packets import (RUNTIME_RECORD_BITS, Packet, PacketKind,
                                  RuntimeEntry)
from repro.perf.decode import slow_kernel_enabled

#: Inline budget meaning "never consult the controller" (checking
#: disabled): larger than any possible committed-instruction count.
_HOT_UNBOUNDED = 1 << 62


class StallReason(enum.Enum):
    COLLECTING = "data_collecting"
    FORWARDING = "data_forwarding"
    LITTLE_CORE = "little_core"


def _stock_runtime_path(fabric):
    """Whether ``fabric`` forwards run-time records exactly as
    :meth:`ForwardingFabric.send_runtime` does, so the controller may
    inline it."""
    cls = type(fabric)
    return (cls.send is ForwardingFabric.send
            and cls._transfers_for is ForwardingFabric._transfers_for
            and cls.send_runtime is ForwardingFabric.send_runtime)


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
        # Stall attribution (see :attr:`stall_cycles`), kept in plain
        # attributes so a per-record forwarding stall hashes no Enum.
        self._collecting_stall = 0
        self._forwarding_stall = 0
        self._little_core_stall = 0
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
        # the LSL-full trigger in fast_commit) and at segment close,
        # replaying whole runs of work per call; the slow kernel keeps
        # the naive advance-every-commit loop as the oracle.
        self._eager_advance = slow_kernel_enabled()
        #: The active segment's CheckerRun.
        self._checker = None
        # The fused record path (module docstring) and its per-run
        # constants.
        self._fused = not self._eager_advance and _stock_runtime_path(fabric)
        if self._fused:
            flits = -(-RUNTIME_RECORD_BITS // fabric.config.width_bits)
            interval = fabric._slot_interval()
            self._runtime_flits = flits
            self._slot_interval = interval
            self._record_busy = flits * interval
            self._runtime_ways = [(buffer, buffer._queues["runtime"])
                                  for buffer in self.dc_buffers]
            self._runtime_depth = config.fabric.runtime_fifo_depth
        #: The active segment's LSL and, on the fused path, the route
        #: latency to its core.
        self._active_lsl = None
        self._active_route = None
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

    @property
    def stall_cycles(self):
        """Commit-stall cycles per :class:`StallReason` (Fig. 9)."""
        return {StallReason.COLLECTING: self._collecting_stall,
                StallReason.FORWARDING: self._forwarding_stall,
                StallReason.LITTLE_CORE: self._little_core_stall}

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
        hot = self._hot
        seg = self.active
        if seg is None:
            # No segment is open before initialize() and never with
            # checking off, so the two guards cost nothing per record.
            if not self._initialized:
                raise SimulationError("controller used before initialize()")
            if not self.deu.enabled:
                return t
            t = self._open_segment(t, pc)
            seg = self.active
        elif hot[0] > seg.instr_count:
            # Commits the inline path absorbed since the last call.
            seg.instr_count = hot[0]

        if rkind is None:
            lsl = None
        elif self._fused:
            # DEU: stamp the record (its parity is computed once, here).
            deu = self.deu
            seq = deu._seq + 1
            deu._seq = seq
            if prebuilt is None:
                entry = RuntimeEntry(rkind, addr, data, size, seq)
            else:
                entry = prebuilt
                entry.seq = seq
            if self.injector is not None:
                if self.injector.maybe_inject_runtime(
                        entry, t, seg.seg_id) is not None:
                    seg.injected = True
            # DC-Buffer: fault hook, then the runtime channel's purge.
            buffer, queue = self._runtime_ways[slot % self._num_buffers]
            if buffer.fault_hook is not None:
                buffer.fault_hook("runtime", entry, t)
            while queue and queue[0] <= t:
                queue.popleft()
            # Fabric: accept the flits from the shared slot cursor
            # straight into the buffer.
            fabric = self.fabric
            cursor = fabric._next_slot
            if t > cursor:
                cursor = float(t)
            flits = self._runtime_flits
            if flits == 1:
                cursor += self._slot_interval
                queue.append(cursor)
            else:
                interval = self._slot_interval
                for _ in range(flits):
                    cursor += interval
                    queue.append(cursor)
            fabric._next_slot = cursor
            fabric.flits_carried += flits
            fabric.packets_carried += 1
            fabric.busy_time += self._record_busy
            buffer.flits_pushed["runtime"] += flits
            overflow = len(queue) - self._runtime_depth
            if overflow > 0:
                # The commit waits until `overflow` flits are accepted.
                stall_until = queue[overflow - 1]
                if stall_until > t:
                    buffer.stall_cycles += stall_until - t
                    self._forwarding_stall += stall_until - t
                    t = stall_until
            # Segment log and LSL delivery: one shared list.
            seg.entries.append(entry)
            lsl = self._active_lsl
            lsl.delivery_times.append(cursor + self._active_route)
        else:
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
                self._forwarding_stall += stall_until - t
                t = stall_until
            seg.add_entry(entry, delivery)
            lsl = self._active_lsl
            lsl.record_delivery(delivery)

        count = seg.instr_count + 1
        seg.instr_count = count
        if self._eager_advance:
            self._checker.advance()

        # LSL-full RCP trigger, credit-based: entries sent minus entries
        # the checker has consumed by ``t``.  The checker advances on
        # demand, and its known consumption times only grow, so the
        # count against them bounds the count after an advance.  While
        # the bound is below capacity and at most the peak already seen,
        # neither the trigger nor ``peak_occupancy`` can change, and the
        # advance waits for a later record or the segment close.
        if lsl is not None:
            bound = len(lsl.delivery_times) - bisect_right(lsl.consume_times,
                                                           t)
            if bound >= lsl.capacity or bound > lsl.peak_occupancy:
                if not self._eager_advance:
                    self._checker.advance()
                if lsl.outstanding(t) >= lsl.capacity:
                    t = self._close_segment(t, SegmentEndReason.LSL_FULL,
                                            slot)
                    hot[0] = 0
                    hot[1] = 0
                    return t
        if count >= self._timeout:
            t = self._close_segment(t, SegmentEndReason.TIMEOUT, slot)
        elif trap is not None:
            t = self._close_segment(t, SegmentEndReason.KERNEL_TRAP, slot)
        else:
            hot[0] = count
            hot[1] = self._timeout
            return t
        hot[0] = 0
        hot[1] = 0
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

    def _open_segment(self, t, start_pc):
        core = self._next_core
        free = self.core_free[core]
        if free > t:
            self._little_core_stall += free - t
            t = free
        snapshot, delivery = self._pending_srcp
        seg = Segment(seg_id=len(self.segments), start_pc=start_pc,
                      srcp=snapshot, srcp_delivery=delivery,
                      assigned_core=core, start_cycle=t)
        self.segments.append(seg)
        self.active = seg
        lsl = self.lsls[core]
        self._active_lsl = lsl
        if self._fused:
            lsl.bind_segment(seg.entry_deliveries)
            self._active_route = self.fabric._route_latency(core)
        else:
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
        self._checker = checker
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
        self._collecting_stall += extraction
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
            self._forwarding_stall += stall_until - t
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
