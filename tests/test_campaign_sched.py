"""Unit and property tests for the pure scheduler core.

:mod:`repro.campaign.sched` owns chunk leasing, lease epochs and
expiry, batch-unit grouping, and result folding — with no processes,
sockets, or clocks of its own.  Everything here drives it with plain
function calls: the lease-loss/requeue/straggler story is exercised
deterministically, then a randomized adversary (random interleavings
of lease / partial report / release / expire / stale replays) checks
the core invariant — every point folds exactly once, whatever the
loss pattern.
"""

import random

import pytest

from repro.campaign import CampaignPoint
from repro.campaign.sched import (WORKER_DIED_ERROR, ChunkScheduler,
                                  batch_units, chunk_pending)
from repro.campaign.tasks import batch_group_key


def make_pairs(n, task="meek", **params):
    return [(i, CampaignPoint(task=task, workload="w", instructions=100,
                              seed=i, params=dict(params)))
            for i in range(n)]


def row_for(pair, value=None):
    index, point = pair
    return {"point_id": point.point_id, "index": index, "ok": True,
            "metrics": {"value": index if value is None else value},
            "elapsed_s": 0.0, "worker": "t"}


def drain_all(sched, owner="w", value=None):
    """Lease everything and report every row (the happy path)."""
    deliverables = []
    while True:
        chunk = sched.lease(owner)
        if chunk is None:
            break
        for pair in list(chunk.pairs):
            deliverables.extend(
                sched.record(chunk.chunk_id, chunk.epoch,
                             row_for(pair, value)))
    return deliverables


# -- unit planning ---------------------------------------------------------

@pytest.mark.quick
def test_chunk_pending_default_targets_four_steals_per_source():
    pending = make_pairs(80)
    chunks = chunk_pending(pending, None, sources=4)
    assert [len(c) for c in chunks] == [5] * 16
    assert [pair for chunk in chunks for pair in chunk] == pending


def make_inject_pairs(n):
    """Batch-compatible inject pairs: one program, trials differ."""
    return [(i, CampaignPoint(task="inject", workload="w",
                              instructions=100, seed=0,
                              params={"rate": 0.01, "trial": i}))
            for i in range(n)]


@pytest.mark.quick
def test_batch_units_groups_compatible_points_up_to_lanes():
    pairs = make_inject_pairs(5)
    units = batch_units(pairs, lanes=2)
    assert [len(u) for u in units] == [2, 2, 1]
    assert [pair for unit in units for pair in unit] == pairs


@pytest.mark.quick
def test_batch_units_scalar_for_incompatible_or_lanes_one():
    pairs = make_pairs(4)  # meek: batch_group_key is None
    assert [len(u) for u in batch_units(pairs, lanes=4)] == [1, 1, 1, 1]
    inject = make_inject_pairs(4)
    assert [len(u) for u in batch_units(inject, lanes=1)] == [1] * 4


@pytest.mark.quick
def test_unbatchable_points_chunk_without_a_batch_floor():
    """Twelve meek points on two sources are twelve leases, not one
    batch-width chunk that starves the second source."""
    units = batch_units(make_pairs(12), lanes=32, sources=2)
    assert [len(u) for u in units] == [1] * 12


@pytest.mark.quick
def test_batch_units_sized_to_the_fleet():
    """Property: for random meek/inject mixes, group sizes, fleets and
    caps, the plan covers every index once, never mixes batch keys,
    and cuts each group into equal-width units — a multiple of the
    source count, the fewest that fit under the cap.  (A cap of 1
    leaves no choice: one point per unit, whatever the fleet.)"""
    rng = random.Random(2024)
    for _ in range(300):
        points = [CampaignPoint(task="meek", workload="w",
                                instructions=100, seed=i, params={})
                  for i in range(rng.randint(0, 20))]
        for group in range(rng.randint(1, 3)):
            points += [CampaignPoint(task="inject", workload="w",
                                     instructions=100, seed=group,
                                     params={"rate": 0.01, "trial": t})
                       for t in range(rng.randint(1, 130))]
        rng.shuffle(points)
        pairs = list(enumerate(points))
        sources, cap = rng.randint(1, 8), rng.randint(1, 64)
        units = batch_units(pairs, lanes=cap, sources=sources)
        assert sorted(i for unit in units for i, _ in unit) == \
            list(range(len(pairs)))
        widths = {}
        for unit in units:
            keys = {batch_group_key(point) for _, point in unit}
            assert len(keys) == 1, "a unit mixes batch keys"
            widths.setdefault(keys.pop(), []).append(len(unit))
        widths.pop(None, None)
        for group in widths.values():
            g = sum(group)
            assert max(group) - min(group) <= 1
            assert max(group) <= cap
            if g >= sources and cap > 1:
                assert len(group) % sources == 0
                fewer = len(group) - sources
                assert fewer == 0 or -(-g // fewer) > cap
            if sources == 1 and g <= cap:
                assert group == [g]


# -- lease / fold happy path -----------------------------------------------

@pytest.mark.quick
def test_lease_fold_roundtrip_collects_every_index():
    pending = make_pairs(17)
    sched = ChunkScheduler(pending, chunk_size=4)
    deliverables = drain_all(sched)
    assert sched.done
    assert sorted(sched.results()) == list(range(17))
    kinds = {kind for kind, _ in deliverables}
    assert kinds == {"result"}
    assert len(deliverables) == 17


@pytest.mark.quick
def test_duplicate_and_unknown_rows_fold_to_nothing():
    pending = make_pairs(3)
    sched = ChunkScheduler(pending, chunk_size=3)
    chunk = sched.lease("w")
    first = sched.record(chunk.chunk_id, chunk.epoch, row_for(pending[0]))
    assert [k for k, _ in first] == ["result"]
    assert sched.record(chunk.chunk_id, chunk.epoch,
                        row_for(pending[0])) == []  # duplicate index
    assert sched.record(99, chunk.epoch, row_for(pending[1])) == []
    assert sched.record(chunk.chunk_id, chunk.epoch,
                        {"not": "a row"}) == []
    assert sched.remaining == 2


# -- loss: release, expiry, stale epochs -----------------------------------

@pytest.mark.quick
def test_release_requeues_only_the_unreported_tail():
    pending = make_pairs(6)
    sched = ChunkScheduler(pending, chunk_size=6)
    chunk = sched.lease("dead")
    old_epoch = chunk.epoch
    sched.record(chunk.chunk_id, old_epoch, row_for(pending[0]))
    sched.record(chunk.chunk_id, old_epoch, row_for(pending[1]))
    requeued = sched.release("dead")
    assert [c.chunk_id for c in requeued] == [chunk.chunk_id]
    assert {i for i, _ in requeued[0].pairs} == {2, 3, 4, 5}
    assert sched.requeues == 1
    # A straggler from the dead lease is already stale.
    assert sched.record(chunk.chunk_id, old_epoch,
                        row_for(pending[2])) == []
    # The re-lease finishes the remainder under a fresh epoch.
    drain_all(sched, owner="alive")
    assert sched.done and sched.completed == 6


@pytest.mark.quick
def test_release_of_fully_reported_chunk_marks_it_done():
    pending = make_pairs(2)
    sched = ChunkScheduler(pending, chunk_size=2)
    chunk = sched.lease("w")
    for pair in pending:
        sched.record(chunk.chunk_id, chunk.epoch, row_for(pair))
    assert sched.release("w") == []  # nothing left to requeue
    assert sched.done


@pytest.mark.quick
def test_expire_requeues_past_deadline_and_renew_extends_it():
    pending = make_pairs(4)
    sched = ChunkScheduler(pending, chunk_size=2, lease_timeout_s=10.0)
    slow = sched.lease("slow", now=100.0)
    slow_epoch = slow.epoch  # epoch as the lost lease saw it
    fast = sched.lease("fast", now=100.0)
    sched.renew("fast", now=109.0)
    expired = sched.expire(now=111.0)
    assert [c.chunk_id for c in expired] == [slow.chunk_id]
    assert fast.chunk_id in sched.leased
    # The expired owner's late rows are blackholed...
    assert sched.record(slow.chunk_id, slow_epoch,
                        row_for(pending[0])) == []
    # ...and the chunk is re-leasable right away.
    again = sched.lease("other", now=112.0)
    assert again.chunk_id == slow.chunk_id
    assert again.epoch == slow_epoch + 2  # requeue bump + lease bump


@pytest.mark.quick
def test_no_deadline_without_timeout_or_clock():
    sched = ChunkScheduler(make_pairs(2), chunk_size=1)
    assert sched.lease("w", now=5.0).deadline is None
    timed = ChunkScheduler(make_pairs(2), chunk_size=1,
                           lease_timeout_s=1.0)
    assert timed.lease("w").deadline is None  # no clock supplied
    assert timed.expire(now=1e9) == []


# -- batch-stats atomicity (the lost-control-row fix) ----------------------

@pytest.mark.quick
def test_batch_stats_delivered_only_when_chunk_completes():
    pending = make_inject_pairs(3)
    sched = ChunkScheduler(pending, batch_lanes=3)
    chunk = sched.lease("w")
    assert sched.record(chunk.chunk_id, chunk.epoch,
                        {"__batch__": {"lanes": 3}}) == []
    sched.record(chunk.chunk_id, chunk.epoch, row_for(pending[0]))
    sched.record(chunk.chunk_id, chunk.epoch, row_for(pending[1]))
    last = sched.record(chunk.chunk_id, chunk.epoch, row_for(pending[2]))
    assert [k for k, _ in last] == ["result", "batch"]
    assert last[1][1] == {"lanes": 3}


@pytest.mark.quick
def test_batch_stats_die_with_a_lost_lease():
    """A shard dying between its ``__batch__`` control row and the
    chunk's data rows must not leak phantom stats (the historical
    WorkerPool bookkeeping hole)."""
    pending = make_inject_pairs(3)
    sched = ChunkScheduler(pending, batch_lanes=3)
    chunk = sched.lease("dying")
    sched.record(chunk.chunk_id, chunk.epoch, {"__batch__": {"lanes": 3}})
    sched.release("dying")
    deliverables = drain_all(sched, owner="healthy")
    batches = [payload for kind, payload in deliverables
               if kind == "batch"]
    assert batches == []  # stats from the dead lease never surfaced
    assert sched.done


# -- terminal loss ---------------------------------------------------------

@pytest.mark.quick
def test_fail_lost_fills_worker_died_for_the_remainder():
    pending = make_pairs(5)
    sched = ChunkScheduler(pending, chunk_size=2)
    chunk = sched.lease("w")
    sched.record(chunk.chunk_id, chunk.epoch, row_for(pending[0]))
    deliverables = sched.fail_lost()
    assert sched.done
    failed = [payload for _, payload in deliverables]
    assert {r.index for r in failed} == {1, 2, 3, 4}
    assert all(r.error == WORKER_DIED_ERROR and not r.ok
               for r in failed)
    results = sched.results()
    assert results[0].ok and len(results) == 5


# -- randomized adversary --------------------------------------------------

@pytest.mark.quick
@pytest.mark.parametrize("seed", range(8))
def test_random_loss_interleavings_fold_every_point_once(seed):
    """Whatever mixture of partial reports, releases, expiries, and
    stale-row replays happens, every index folds exactly once and the
    folded value comes from a live lease."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    pending = make_pairs(n)
    sched = ChunkScheduler(pending, chunk_size=rng.choice([1, 2, 3, 7]),
                           lease_timeout_s=5.0)
    owners = ["a", "b", "c"]
    held = {}  # owner -> list of (chunk, epoch-at-lease)
    delivered = []
    stale_rows = []
    now = 0.0
    for _ in range(1200):
        if sched.done:
            break
        now += rng.random()
        action = rng.randrange(6)
        owner = rng.choice(owners)
        if action == 0:
            chunk = sched.lease(owner, now=now)
            if chunk is not None:
                held.setdefault(owner, []).append(
                    (chunk, chunk.epoch))
        elif action == 1 and held.get(owner):
            chunk, epoch = rng.choice(held[owner])
            candidates = [p for p in chunk.pairs
                          if p[0] in chunk.outstanding]
            if candidates:
                pair = rng.choice(candidates)
                stale_rows.append((chunk.chunk_id, epoch, row_for(pair)))
                delivered.extend(
                    sched.record(chunk.chunk_id, epoch, row_for(pair)))
        elif action == 2:
            sched.release(owner)
            held.pop(owner, None)
        elif action == 3:
            expired = sched.expire(now)
            gone = {c.chunk_id for c in expired}
            for held_owner in list(held):
                held[held_owner] = [
                    (c, e) for c, e in held[held_owner]
                    if c.chunk_id not in gone]
        elif action == 4:
            sched.renew(owner, now)
        elif action == 5 and stale_rows:
            chunk_id, epoch, row = rng.choice(stale_rows)
            delivered.extend(sched.record(chunk_id, epoch, row))
    # Finish whatever is left through one reliable owner.
    for held_owner in list(held):
        sched.release(held_owner)
    drain_all(sched, owner="finisher")
    assert sched.done
    results = sched.results()
    assert sorted(results) == list(range(n))
    # Exactly-once delivery: the deliverable stream never repeated an
    # index, and every folded row is the pure per-point function.
    seen = [r.index for _, r in delivered]
    assert len(seen) == len(set(seen))
    for index, result in results.items():
        assert result.ok and result.metrics == {"value": index}
