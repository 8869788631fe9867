"""Segment-granular memoization of checker replay bursts.

A clean (fault-free) segment replay is a pure function of:

* the decoded program (instruction semantics and timing classes),
* the SRCP architectural state it starts from (pc, registers, CSRs),
* the little-core pipeline configuration (latency products, icache
  geometry, clock ratio) and the one-instruction-behind rule,

provided none of the *ambient* pipeline state intrudes: the divider
and FPU must be free by segment start, every fetched icache line must
already be resident (and the last-fetched-line cell must match), and
no LSL entry may be delivered late enough to stall a load's data bind.
When those conditions hold, every per-instruction timestamp of the
replay is ``start + rel`` for constants ``rel`` recorded on the first
execution — so a repeat of the same segment skips re-execution
entirely: it validates the conditions entry-by-entry as the log
arrives, emits the same LSL consumption times, applies the final
pipeline/icache state at close, and reproduces the verdict,
bit-identical to the replay it skipped.

Nothing is mutated until the whole segment validates (consumption
times excepted — they are proven equal before emission), so any
failed condition — a corrupted entry, a late delivery, a diverged
segment boundary — falls back to the normal replay loop *from the
segment start* and produces exactly the scalar result, detections
included.  The register scoreboards are deliberately not restored on
a hit: every consumer (:meth:`CheckerRun.__init__` via ``reset_to``)
clears them before reading.

Campaigns are the customer: thousands of near-identical trials replay
the same clean segments, and the batched kernel
(:mod:`repro.perf.batch`) replays each of them once per *lane*.  Each
:class:`~repro.perf.decode.DecodedProgram` owns one table, ``memo``,
mapping a segment fingerprint to one :class:`_Record` (lanes and
pooled trials share program objects through the campaign program
cache), so the memo is created with its program and dies with it.

A record is *in flight* while the run that opened its segment first
(the leader) replays it, logging each entry's schedule.  The batched
kernel's lanes run in lockstep with a stable lane order, so the leader
has logged each entry before its sibling lanes reach it: siblings
attach as *followers* and validate against the growing record instead
of re-executing.  A clean leader *commits* the record — it gains the
final state and the icache touch set, and drops its per-instruction pc
trace — and every later run of the segment is a *hit*.  A leader that
detects, binds a load late, misses in its icache or leaves its run
*abandons* the record, which leaves the table; its followers fall
back.  Hits and followers
share one validation walk.  A follower only follows a leader of its
own thread: it drives that leader's replay forward itself (leaders
advance on demand), which is only sound when the two never run
concurrently.

Every segment's outcome is counted once in the process metrics
registry (:func:`repro.obs.metrics.get_registry`): ``segmemo.hit``,
``segmemo.follow``, ``segmemo.record`` or ``segmemo.unarmed`` when the
run is armed, then ``segmemo.commit``, ``segmemo.abandon.<cause>`` and
``segmemo.fallback.<cause>`` as they happen.

``REPRO_NO_SEGMEMO=1`` disables the memo; the equivalence battery
pins memo-on and memo-off bit-identical.
"""

import os
import threading

from repro.obs.metrics import get_registry

#: Sentinel: the record cannot describe this segment; re-execute.
FALLBACK = object()

_MAX_RECORDS = 8192


def memo_enabled():
    return os.environ.get("REPRO_NO_SEGMEMO", "") in ("", "0")


def _count(event):
    get_registry().counter("segmemo." + event).inc()


def _fallback(cause):
    _count("fallback." + cause)
    return FALLBACK


class _Record:
    """One segment's memo entry: in flight, then committed or
    abandoned."""

    __slots__ = (
        "key", "owner", "thread", "committed", "abandoned",
        # The entry schedule, grown by the leader while in flight.
        "pcs", "positions", "recs", "complete_rel", "is_load",
        # The leader's pipeline at segment start.
        "start", "entry_line", "div0", "fpu0", "busy0", "misses0",
        # Set at commit: everything a hit needs to stand in for a replay.
        "n_instrs", "final_int_regs", "final_fp_regs", "final_csrs",
        "final_pc", "time_rel", "busy_rel", "div_final_rel",
        "fpu_final_rel", "touches", "same_line_hits", "final_line")

    def __init__(self, key, start, entry_line, owner):
        pipeline = owner.pipeline
        self.key = key
        #: The leader's CheckerRun while the record is in flight.
        self.owner = owner
        self.thread = threading.get_ident()
        self.committed = False
        self.abandoned = False
        self.pcs = []
        self.positions = []
        self.recs = []
        self.complete_rel = []
        self.is_load = []
        self.start = start
        self.entry_line = entry_line
        self.div0 = pipeline._div_free
        self.fpu0 = pipeline._fpu_free
        self.busy0 = pipeline.busy_cycles
        self.misses0 = pipeline.icache.misses


def _pipeline_key(pipeline):
    """The replay timing constants plus the icache geometry (residency
    of the recorded touch set depends on it)."""
    from repro.perf.jit import replay_constants

    icache = pipeline.icache
    return replay_constants(pipeline) + (icache.num_sets, icache._ways)


def _segment_key(run):
    srcp = run.segment.srcp
    # Everything the replay reads from the SRCP: a corrupted snapshot
    # fingerprints differently and simply misses (normal replay then
    # detects it through the log/ERCP comparison as always).
    return (srcp.pc, srcp.int_regs, srcp.fp_regs,
            tuple(sorted(srcp.csrs.items())),
            run.one_behind, run.pipeline._ic_line[0],
            _pipeline_key(run.pipeline))


def _resident(pipeline, rec):
    """Whether every line a committed record touches is resident.
    Resident lines stay resident: a hit performs no fills, so this
    holds for the whole segment."""
    probe = pipeline.icache.probe
    for pc in rec.touches:
        if not probe(pc):
            return False
    return True


def prepare(run):
    """Arm ``run`` as a hit, a follower or a leader, if eligible."""
    pipeline = run.pipeline
    start = run.start_cycle
    if pipeline._div_free > start or pipeline._fpu_free > start:
        # Ambient unit-busy state can stall replay issue: neither a
        # hit (the rels assume no stall) nor a recording (the rels
        # would bake the stall in) is sound.
        _count("unarmed")
        return
    key = _segment_key(run)
    table = run._decoded.memo
    rec = table.get(key)
    if rec is not None:
        if rec.committed:
            if _resident(pipeline, rec):
                run._memo = rec
                _count("hit")
            else:
                _count("unarmed")
            return
        if rec.thread == threading.get_ident():
            run._follow = rec
            # Incremental icache-residency verification state: the
            # leader's relative schedule assumes every fetch hits, so
            # the follower probes each line transition in the leader's
            # pc trace before trusting a consume time derived from it.
            run._follow_i = 0
            run._follow_line = pipeline._ic_line[0]
            _count("follow")
            return
    if not run._memo_record:
        _count("unarmed")
        return
    rec = _Record(key, start, pipeline._ic_line[0], run)
    run._rec = rec
    if len(table) >= _MAX_RECORDS:
        table.pop(next(iter(table)))
    table[key] = rec
    _count("record")


def abandon(run, cause):
    """Drop ``run``'s in-flight record (``cause``: a detection, a late
    load bind, an icache miss, or the run retiring it — lane eviction,
    an unwound run, an empty trailing segment).  Followers already
    attached to it fall back at their next advance."""
    rec = run._rec
    run._rec = None
    if rec is None:
        return
    rec.abandoned = True
    rec.owner = None
    table = run._decoded.memo
    if table.get(rec.key) is rec:
        del table[rec.key]
    _count("abandon." + cause)


def _walk(run, rec):
    """Validate the run's log against ``rec``'s schedule from
    ``run.next_entry`` on, emitting each proven consumption time.

    Stops at the run's allowed count or the end of the log so far.
    Returns ``None``, or the cause when the record cannot describe
    this segment.  An in-flight record's schedule assumed all-hit
    fetches, so against one the walk also probes every line the leader
    fetched up to each entry's instruction.
    """
    seg = run.segment
    allowed = run._allowed_count
    entries = seg.entries
    deliveries = seg.entry_deliveries
    num_avail = len(entries)
    positions = rec.positions
    recs = rec.recs
    complete_rel = rec.complete_rel
    is_load = rec.is_load
    pcs = rec.pcs  # None once committed
    total = len(positions)
    start = run.start_cycle
    record_consumption = run.lsl.record_consumption
    if pcs is not None:
        icache = run.pipeline.icache
        probe = icache.probe
        shift = icache._offset_bits
        i = run._follow_i
        cur = run._follow_line
    k = run.next_entry
    while k < total and positions[k] < allowed:
        if k >= num_avail:
            if seg.closed:
                return "log-exhausted"  # replay would detect it
            break  # entry not produced yet; wait
        entry = entries[k]
        r = recs[k]
        if (entry.rkind is not r[0] or entry.addr != r[1]
                or entry.data != r[2] or entry.size != r[3]):
            return "entry"  # corrupted (or diverging) record
        if pcs is not None:
            limit = positions[k]
            while i <= limit:
                pc_i = pcs[i]
                line = pc_i >> shift
                if line != cur:
                    if not probe(pc_i):
                        return "icache"
                    cur = line
                i += 1
            run._follow_i = i
            run._follow_line = cur
        delivery = deliveries[k]
        complete = start + complete_rel[k]
        if is_load[k]:
            if delivery > complete:
                return "late-load"  # the bind would stall the replay
            consume = complete
        else:
            consume = complete if complete > delivery else delivery
        k += 1
        run.next_entry = k
        # Proven equal to what the replay would emit: safe to record
        # even though the segment may still fall back later.
        record_consumption(consume)
    return None


def follow_advance(run):
    """Advance a follower against its leader's in-flight record.

    The leader advances on demand, so the follower first drives the
    leader's replay as far as the leader's log allows; lanes log in a
    fixed order within each lockstep commit, so that covers every
    entry the follower may consume.  Once the leader commits, the
    follower settles through :func:`memo_advance` as a hit.  Any
    leader misadventure (abandoned record, diverged entry) returns
    :data:`FALLBACK`.
    """
    rec = run._follow
    leader = rec.owner
    if leader is not None:
        leader.advance()
        if leader.pipeline.icache.misses != rec.misses0:
            # The leader's fetches missed: its relative schedule carries
            # miss penalties this follower's resident lines would not
            # pay, and the record can never commit.
            abandon(leader, "icache-miss")
    if rec.committed:
        # Probe the whole touch set (tail lines included) before
        # settling, exactly as a hit would have at prepare time.
        if not _resident(run.pipeline, rec):
            return _fallback("icache")
        run._follow = None
        run._memo = rec
        return memo_advance(run)
    if rec.abandoned:
        return _fallback("leader-abandoned")
    if run.segment.closed:
        # Our segment settled before the leader's: boundaries diverged.
        return _fallback("boundary")
    cause = _walk(run, rec)
    return None if cause is None else _fallback(cause)


def memo_advance(run):
    """Advance a hit without executing.

    Returns the final verdict, ``None`` (waiting on the main thread,
    exactly where the replay loop would wait), or :data:`FALLBACK`
    when the record cannot describe this segment.
    """
    m = run._memo
    seg = run.segment
    n_instrs = m.n_instrs
    if seg.closed:
        if seg.instr_count != n_instrs:
            return _fallback("boundary")
    elif seg.instr_count > n_instrs:
        return _fallback("boundary")  # ran past the recorded boundary
    cause = _walk(run, m)
    if cause is not None:
        return _fallback(cause)
    if not seg.closed:
        return None
    total = len(m.positions)
    if run.next_entry != total or len(seg.entries) != total:
        return _fallback("stream")  # the main thread logged more
    # The whole segment matches: apply the deferred pipeline state
    # exactly as the replay would have left it, then settle.
    start = run.start_cycle
    pipeline = run.pipeline
    lookup = pipeline.icache.lookup
    for pc in m.touches:
        lookup(pc)
    pipeline.icache.hits += m.same_line_hits
    pipeline._ic_line[0] = m.final_line
    pipeline.time = start + m.time_rel
    pipeline.instructions_retired += n_instrs
    pipeline.busy_cycles += m.busy_rel
    if m.div_final_rel is not None:
        pipeline._div_free = start + m.div_final_rel
    if m.fpu_final_rel is not None:
        pipeline._fpu_free = start + m.fpu_final_rel
    run.executed = n_instrs
    return run.finish_from_memo(m)


def commit_recording(run):
    """Commit the run's finished record (called on clean verdicts
    only)."""
    pipeline = run.pipeline
    icache = pipeline.icache
    rec = run._rec
    if icache.misses != rec.misses0:
        # A fetch missed: line residency cannot be promised.
        abandon(run, "icache-miss")
        return
    run._rec = None
    state = run.state
    rec.n_instrs = run.executed
    rec.final_int_regs = tuple(state.int_regs)
    rec.final_fp_regs = tuple(state.fp_regs)
    rec.final_csrs = dict(state.csrs)
    rec.final_pc = state.pc
    start = rec.start
    rec.time_rel = pipeline.time - start
    rec.busy_rel = pipeline.busy_cycles - rec.busy0
    div = pipeline._div_free
    rec.div_final_rel = div - start if div != rec.div0 else None
    fpu = pipeline._fpu_free
    rec.fpu_final_rel = fpu - start if fpu != rec.fpu0 else None
    shift = icache._offset_bits
    cur = rec.entry_line
    touches = []
    same_hits = 0
    for pc in rec.pcs:
        line = pc >> shift
        if line == cur:
            same_hits += 1
        else:
            touches.append(pc)
            cur = line
    rec.touches = touches
    rec.same_line_hits = same_hits
    rec.final_line = cur
    # The touch set replaces the per-instruction trace: a committed
    # record stays in the table for the program's lifetime.
    rec.pcs = None
    rec.owner = None
    rec.committed = True
    # Another thread's record for the same key may have displaced this
    # one while it was in flight; the committed one wins.
    run._decoded.memo[rec.key] = rec
    _count("commit")
