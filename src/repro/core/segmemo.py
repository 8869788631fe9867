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
(:mod:`repro.perf.batch`) replays each of them once per *lane*.  The
store is keyed by decoded-program identity (lanes and pooled trials
share program objects through the campaign program cache), then by
the segment fingerprint.

``REPRO_NO_SEGMEMO=1`` disables the memo; the equivalence battery
pins memo-on and memo-off bit-identical.
"""

import os
import threading

#: Sentinel: the summary cannot describe this segment; re-execute.
FALLBACK = object()

_MAX_PROGRAMS = 16
_MAX_SUMMARIES = 8192

#: decoded-program object -> {segment fingerprint -> _Summary}
_store = {}

#: decoded-program object -> {segment fingerprint -> _Recording}.
#: In-flight recordings.  The batched kernel's lanes run in lockstep
#: with a stable lane order, so the first lane to open a segment (the
#: leader) has logged each entry before its sibling lanes reach the
#: same entry — siblings attach as *followers* and validate against
#: the growing recording instead of re-executing, settling from the
#: committed summary once the leader closes cleanly.  A follower only
#: follows a leader of its own thread: it drives that leader's replay
#: forward itself (leaders advance on demand), which is only sound
#: when the two never run concurrently.
_inflight = {}


def memo_enabled():
    return os.environ.get("REPRO_NO_SEGMEMO", "") in ("", "0")


def clear():
    """Drop every recorded summary (test isolation)."""
    _store.clear()
    _inflight.clear()


def stats():
    """Summary counts per cached program (observability/tests)."""
    return {"programs": len(_store),
            "summaries": sum(len(t) for t in _store.values())}


class _Summary:
    """Everything a validated repeat needs to stand in for a replay."""

    __slots__ = (
        "n_instrs", "positions", "recs", "complete_rel", "is_load",
        "final_int_regs", "final_fp_regs", "final_csrs", "final_pc",
        "time_rel", "busy_rel", "div_final_rel", "fpu_final_rel",
        "touches", "same_line_hits", "final_line")


class _Recording:
    """In-flight capture of one segment's first (clean) replay."""

    __slots__ = ("key", "pcs", "positions", "recs", "complete_rel",
                 "is_load", "start", "entry_line", "div0", "fpu0",
                 "busy0", "misses0", "summary", "abandoned", "owner",
                 "thread")

    def __init__(self, key, start, entry_line, owner):
        pipeline = owner.pipeline
        self.key = key
        self.summary = None
        self.abandoned = False
        #: The leader's CheckerRun while the recording is in flight.
        self.owner = owner
        self.thread = threading.get_ident()
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


def prepare(run):
    """Arm ``run`` with a memo hit, or a recording, if eligible."""
    pipeline = run.pipeline
    start = run.start_cycle
    if pipeline._div_free > start or pipeline._fpu_free > start:
        # Ambient unit-busy state can stall replay issue: neither a
        # hit (the rels assume no stall) nor a recording (the rels
        # would bake the stall in) is sound.
        return
    key = _segment_key(run)
    table = _store.get(run._decoded)
    summary = table.get(key) if table is not None else None
    if summary is not None:
        probe = pipeline.icache.probe
        for pc in summary.touches:
            if not probe(pc):
                return
        # Resident lines stay resident: a hit performs no fills, so
        # the probe above holds for the whole segment.
        run._memo = summary
        return
    infl = _inflight.get(run._decoded)
    if infl is not None:
        rec = infl.get(key)
        if (rec is not None and not rec.abandoned
                and rec.thread == threading.get_ident()):
            run._follow = rec
            # Incremental icache-residency verification state: the
            # leader's relative schedule assumes every fetch hits, so
            # the follower probes each line transition in the leader's
            # pc trace before trusting a consume time derived from it.
            run._follow_i = 0
            run._follow_line = pipeline._ic_line[0]
            return
    if run._memo_record:
        rec = _Recording(key, start, pipeline._ic_line[0], run)
        run._rec = rec
        if infl is None:
            infl = _inflight[run._decoded] = {}
        infl[key] = rec


def abandon(run):
    """Drop ``run``'s in-flight recording (detection, late load bind,
    lane eviction, empty trailing segment).  Followers already attached
    to it fall back to real replay at their next advance."""
    rec = run._rec
    run._rec = None
    if rec is None:
        return
    rec.abandoned = True
    _unregister(run._decoded, rec)


def _unregister(decoded, rec):
    rec.owner = None
    infl = _inflight.get(decoded)
    if infl is not None and infl.get(rec.key) is rec:
        del infl[rec.key]
        if not infl:
            del _inflight[decoded]


def follow_advance(run):
    """Advance a follower against its leader's in-flight recording.

    Validates entries exactly as :func:`memo_advance` does, and
    settles from the committed summary once the leader closes.  The
    leader advances on demand, so the follower first drives the
    leader's replay as far as the leader's log allows; lanes log in a
    fixed order within each lockstep commit, so that covers every
    entry the follower may consume.  Any leader misadventure
    (abandoned recording, missing summary at close, diverged entry)
    returns :data:`FALLBACK`.
    """
    rec = run._follow
    leader = rec.owner
    if leader is not None:
        leader.advance()
        if leader.pipeline.icache.misses != rec.misses0:
            # The leader's fetches missed: its relative schedule carries
            # miss penalties this follower's resident lines would not
            # pay, and the recording can never commit.
            abandon(leader)
    pipeline = run.pipeline
    probe = pipeline.icache.probe
    if rec.summary is not None:
        # Leader closed cleanly.  Probe the whole touch set (tail
        # lines included) before adopting the summary, exactly as a
        # store hit would have at prepare time.
        m = rec.summary
        for pc in m.touches:
            if not probe(pc):
                return FALLBACK
        run._follow = None
        run._memo = m
        return memo_advance(run)
    if rec.abandoned:
        return FALLBACK
    seg = run.segment
    if seg.closed:
        # Our segment settled before the leader's: boundaries diverged.
        return FALLBACK
    allowed = run._allowed_count
    entries = seg.entries
    deliveries = seg.entry_deliveries
    num_avail = len(entries)
    positions = rec.positions
    recs = rec.recs
    complete_rel = rec.complete_rel
    is_load = rec.is_load
    pcs = rec.pcs
    total = len(positions)
    start = run.start_cycle
    record_consumption = run.lsl.record_consumption
    shift = pipeline.icache._offset_bits
    i = run._follow_i
    cur = run._follow_line
    k = run.next_entry
    while k < total and k < num_avail and positions[k] < allowed:
        entry = entries[k]
        r = recs[k]
        if (entry.rkind is not r[0] or entry.addr != r[1]
                or entry.data != r[2] or entry.size != r[3]):
            return FALLBACK
        # The consume time below embeds the leader's issue schedule,
        # which assumed all-hit fetches: verify residency of every
        # line fetched up to and including this entry's instruction.
        limit = positions[k]
        while i <= limit:
            pc_i = pcs[i]
            line = pc_i >> shift
            if line != cur:
                if not probe(pc_i):
                    return FALLBACK
                cur = line
            i += 1
        run._follow_i = i
        run._follow_line = cur
        delivery = deliveries[k]
        complete = start + complete_rel[k]
        if is_load[k]:
            if delivery > complete:
                return FALLBACK
            consume = complete
        else:
            consume = complete if complete > delivery else delivery
        k += 1
        run.next_entry = k
        record_consumption(consume)
    return None


def memo_advance(run):
    """Advance a memo-hit run without executing.

    Returns the final verdict, ``None`` (waiting on the main thread,
    exactly where the replay loop would wait), or :data:`FALLBACK`
    when the recording cannot describe this segment.
    """
    m = run._memo
    seg = run.segment
    n_instrs = m.n_instrs
    if seg.closed:
        if seg.instr_count != n_instrs:
            return FALLBACK  # segment boundary diverged
    elif seg.instr_count > n_instrs:
        return FALLBACK  # ran past the recorded boundary while open
    allowed = run._allowed_count
    entries = seg.entries
    deliveries = seg.entry_deliveries
    num_avail = len(entries)
    positions = m.positions
    recs = m.recs
    complete_rel = m.complete_rel
    is_load = m.is_load
    total = len(positions)
    start = run.start_cycle
    record_consumption = run.lsl.record_consumption
    k = run.next_entry
    while k < total and positions[k] < allowed:
        if k >= num_avail:
            if seg.closed:
                return FALLBACK  # replay would detect log-exhausted
            break  # entry not produced yet; wait
        entry = entries[k]
        rec = recs[k]
        if (entry.rkind is not rec[0] or entry.addr != rec[1]
                or entry.data != rec[2] or entry.size != rec[3]):
            return FALLBACK  # corrupted (or diverging) record
        delivery = deliveries[k]
        complete = start + complete_rel[k]
        if is_load[k]:
            if delivery > complete:
                return FALLBACK  # late data bind would stall the replay
            consume = complete
        else:
            consume = complete if complete > delivery else delivery
        k += 1
        run.next_entry = k
        # Proven equal to what the replay would emit: safe to record
        # even though the segment may still fall back later.
        record_consumption(consume)
    if not seg.closed or allowed < n_instrs:
        return None
    if k != total or num_avail != total:
        return FALLBACK  # the main thread logged a different stream
    # The whole segment matches: apply the deferred pipeline state
    # exactly as the replay would have left it, then settle.
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
    """Store a finished recording (called on clean verdicts only)."""
    rec = run._rec
    run._rec = None
    pipeline = run.pipeline
    icache = pipeline.icache
    if icache.misses != rec.misses0:
        # A fetch missed: line residency cannot be promised.
        rec.abandoned = True
        _unregister(run._decoded, rec)
        return
    state = run.state
    m = _Summary()
    m.n_instrs = run.executed
    m.positions = rec.positions
    m.recs = rec.recs
    m.complete_rel = rec.complete_rel
    m.is_load = rec.is_load
    m.final_int_regs = tuple(state.int_regs)
    m.final_fp_regs = tuple(state.fp_regs)
    m.final_csrs = dict(state.csrs)
    m.final_pc = state.pc
    start = rec.start
    m.time_rel = pipeline.time - start
    m.busy_rel = pipeline.busy_cycles - rec.busy0
    div = pipeline._div_free
    m.div_final_rel = div - start if div != rec.div0 else None
    fpu = pipeline._fpu_free
    m.fpu_final_rel = fpu - start if fpu != rec.fpu0 else None
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
    m.touches = touches
    m.same_line_hits = same_hits
    m.final_line = cur
    # Publish to followers first (they hold the recording object),
    # then retire it from the in-flight registry and the store.
    rec.summary = m
    _unregister(run._decoded, rec)
    table = _store.get(run._decoded)
    if table is None:
        if len(_store) >= _MAX_PROGRAMS:
            _store.pop(next(iter(_store)))
        table = {}
        _store[run._decoded] = table
    if len(table) >= _MAX_SUMMARIES:
        table.pop(next(iter(table)))
    table[rec.key] = m
