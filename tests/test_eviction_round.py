"""One placement-and-eviction round does only the work its decisions need.

Each lean path is checked against a plain reference that does the work in
full:

- ``BufferPool.place`` skips ``malloc`` while the pool has fewer free bytes
  than the page needs; an unguarded placement loop must give the same
  offsets, eviction rounds and errors, for both pool allocators;
- ``DataAwarePolicy`` scores candidates as plain totals and builds a
  :class:`CostBreakdown` only for the winner, which must equal
  :func:`eviction_cost_breakdown` of the chosen set's next victim;
- ``LocalShard.evict_pages`` bumps each counter once per batch, to the sums
  that evicting page by page gives;
- ``VirtualHashBuffer._write`` charges a root's combines as one product,
  which must leave every clock where per-entry charging does.
"""

import dataclasses
import random

import pytest

from repro import MachineProfile, PangeaCluster, ReadingPattern
from repro.buffer.page import Page
from repro.buffer.pool import BufferPool, BufferPoolFullError
from repro.core.policies import (
    DataAwarePolicy,
    PagingPolicy,
    eviction_cost_breakdown,
    next_victim,
)
from repro.services.hashsvc import ENTRY_OVERHEAD, VirtualHashBuffer
from repro.sim.devices import KB, MB
from repro.sim.metrics import collect, reconcile


# ----------------------------------------------------------------------
# the malloc guard
# ----------------------------------------------------------------------


def unguarded_place(pool: BufferPool, page: Page) -> None:
    """The placement loop without the guard: try ``malloc`` first, evict
    and retry on every failure."""
    alloc = pool._alloc
    rounds = 0
    while True:
        offset = alloc.malloc(page.size)
        if offset is not None:
            page.offset = offset
            pool.pages[page.page_id] = page
            pool.stats.placements += 1
            return
        if pool.evictor is None:
            raise BufferPoolFullError(
                f"cannot place a {page.size}-byte page: pool has "
                f"{pool.free_bytes} free bytes and no evictor installed"
            )
        if rounds >= pool.max_eviction_rounds:
            raise BufferPoolFullError(
                f"cannot place a {page.size}-byte page after "
                f"{rounds} eviction rounds ({pool.free_bytes} free bytes)"
            )
        used_before = alloc.used_bytes
        if not pool.evictor(page.size):
            raise BufferPoolFullError(
                f"cannot place a {page.size}-byte page: pool has "
                f"{pool.free_bytes} free bytes and nothing evictable"
            )
        rounds += 1
        if alloc.used_bytes >= used_before:
            raise BufferPoolFullError(
                f"eviction round {rounds} reported success but freed "
                f"no bytes; refusing to retry placement of a "
                f"{page.size}-byte page"
            )


#: Page sizes a trace draws from.  A slab class carves whole 64 KB slabs,
#: so many sizes strand free memory in other classes and the pool rarely
#: fills; two sizes keep it filling.
TRACE_SIZES = {
    "tlsf": [4 * KB, 10 * KB, 16 * KB, 40 * KB, 64 * KB],
    "slab": [16 * KB, 64 * KB],
}


class _Trace:
    """A pool with a FIFO evictor, recording what each operation did."""

    def __init__(self, allocator: str, guarded: bool) -> None:
        self.sizes = TRACE_SIZES[allocator]
        self.pool = BufferPool(
            256 * KB, allocator=allocator, max_page_size=64 * KB,
            max_eviction_rounds=6,
        )
        self.pool.evictor = self._evict
        self.guarded = guarded
        self.resident: list[Page] = []
        self.log: list = []
        self.mallocs = 0
        self.doomed_mallocs = 0
        malloc = self.pool._alloc.malloc

        def counting_malloc(size: int):
            self.mallocs += 1
            if self.pool.free_bytes < size:
                self.doomed_mallocs += 1
            return malloc(size)

        self.pool._alloc.malloc = counting_malloc

    def _evict(self, needed: int) -> bool:
        for page in self.resident:
            if page.pin_count == 0:
                self.resident.remove(page)
                self.pool.release(page)
                self.log.append(("evict", page.page_id))
                return True
        return False

    def place(self, page: Page) -> None:
        try:
            if self.guarded:
                self.pool.place(page)
            else:
                unguarded_place(self.pool, page)
        except BufferPoolFullError as exc:
            self.log.append(("full", page.page_id, str(exc)))
            return
        self.resident.append(page)
        self.log.append(("place", page.page_id, page.offset))

    def run(self, seed: int) -> None:
        rng = random.Random(seed)
        for page_id in range(200):
            roll = rng.random()
            if roll < 0.15 and self.resident:
                page = rng.choice(self.resident)
                if page.pin_count:
                    self.pool.unpin(page)
                else:
                    self.pool.pin(page)
            elif roll < 0.25 and self.resident:
                page = rng.choice(self.resident)
                if page.pin_count == 0:
                    self.resident.remove(page)
                    self.pool.release(page)
                    self.log.append(("release", page.page_id))
            else:
                self.place(Page(page_id, rng.choice(self.sizes)))
        self.log.append(("stats", dataclasses.astuple(self.pool.stats)))


class TestMallocGuard:
    @pytest.mark.parametrize("allocator", ["tlsf", "slab"])
    @pytest.mark.parametrize("seed", range(8))
    def test_guarded_pool_matches_unguarded_placement(self, allocator, seed):
        guarded = _Trace(allocator, guarded=True)
        reference = _Trace(allocator, guarded=False)
        guarded.run(seed)
        reference.run(seed)
        assert guarded.log == reference.log
        assert guarded.doomed_mallocs == 0
        # The trace really pages, and the guard really skips attempts.
        assert any(entry[0] == "evict" for entry in reference.log)
        assert reference.doomed_mallocs > 0
        assert guarded.mallocs == reference.mallocs - reference.doomed_mallocs
        guarded.pool.check_invariants()

    @pytest.mark.parametrize("allocator", ["tlsf", "slab"])
    def test_full_pool_errors_match(self, allocator):
        # Pinned pages leave nothing to evict: both loops give up the same way.
        for guarded in (True, False):
            trace = _Trace(allocator, guarded=guarded)
            for page_id in range(4):
                page = Page(page_id, 64 * KB)
                trace.place(page)
                trace.pool.pin(page)
            trace.place(Page(9, 64 * KB))
            if guarded:
                guarded_log = trace.log
            else:
                assert trace.log == guarded_log
        assert guarded_log[-1][0] == "full"
        assert "nothing evictable" in guarded_log[-1][2]


# ----------------------------------------------------------------------
# winner-only cost breakdowns
# ----------------------------------------------------------------------


def reference_decision(paging, horizon: float):
    """Score every candidate's full breakdown; the first cheapest wins."""
    candidates = [s for s in paging.shards if s.recency.evictable_count() > 0]
    dead = [s for s in candidates if s.attributes.lifetime_ended]
    if dead:
        candidates = dead
    tick = paging.current_tick
    best = None
    for shard in candidates:
        breakdown = eviction_cost_breakdown(shard, next_victim(shard), tick, horizon)
        if best is None or breakdown.total < best[1].total:
            best = (shard, breakdown)
    return best


def write_pages(shard, count: int) -> None:
    for i in range(count):
        page = shard.new_page()
        page.append(i, 10)
        shard.seal_page(page)
        shard.unpin_page(page)


class TestWinnerOnlyBreakdown:
    def test_every_decision_matches_the_reference(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=6 * MB)
        )
        node = cluster.nodes[0]
        policy = node.paging.policy
        make_room = node.pool.evictor
        checked = []

        def checking_evictor(needed: int) -> bool:
            expected = reference_decision(node.paging, policy.horizon)
            result = make_room(needed)
            assert policy.last_decision == expected
            checked.append(expected[0].dataset.name)
            return result

        node.pool.evictor = checking_evictor
        dirty = cluster.create_set("dirty", durability="write-back", page_size=1 * MB)
        clean = cluster.create_set("clean", page_size=1 * MB)
        rand = cluster.create_set(
            "rand", durability="write-back", page_size=512 * KB,
            reading_pattern=ReadingPattern.RANDOM_READ, random_reread_penalty=3.0,
        )
        for _ in range(3):
            write_pages(dirty.shards[0], 3)
            write_pages(clean.shards[0], 3)
            write_pages(rand.shards[0], 4)
            for shard in (clean.shards[0], rand.shards[0]):
                for page in list(shard.pages):
                    shard.unpin_page(shard.pin_page(page))
        dirty.end_lifetime()
        write_pages(clean.shards[0], 4)
        assert len(checked) > 10
        assert {"dirty", "clean", "rand"} <= set(checked)

    def test_tie_goes_to_the_first_registered_set(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )
        paging = cluster.nodes[0].paging
        # At this horizon every re-use probability rounds to 1.0, so two
        # clean sets of one page size cost exactly the same.
        policy = DataAwarePolicy(horizon=1e12)
        paging.set_policy(policy)
        first = cluster.create_set("first", page_size=1 * MB)
        second = cluster.create_set("second", page_size=1 * MB)
        write_pages(second.shards[0], 2)
        write_pages(first.shards[0], 2)
        tick = paging.current_tick
        totals = [
            eviction_cost_breakdown(s, next_victim(s), tick, policy.horizon).total
            for s in (first.shards[0], second.shards[0])
        ]
        assert totals[0] == totals[1]
        victims = policy.select_victims(paging.shards, 1 * MB)
        assert policy.last_decision == reference_decision(paging, policy.horizon)
        assert policy.last_decision[0] is first.shards[0]
        assert victims and all(p.shard is first.shards[0] for p in victims)


# ----------------------------------------------------------------------
# batched eviction counters
# ----------------------------------------------------------------------


class _Scripted(PagingPolicy):
    """Hands out prepared victim lists, one per round."""

    name = "scripted"

    def __init__(self, rounds):
        self.rounds = iter(rounds)

    def select_victims(self, shards, needed_bytes):
        return next(self.rounds)


def _evict_rounds(node, rounds) -> None:
    """Run one ``make_room`` round per prepared victim list."""
    node.paging.set_policy(_Scripted(rounds))
    for _ in rounds:
        assert node.paging.make_room(1)


def _mixed_cluster():
    """A write-back set holding a dirty, a clean-on-disk and a dirty-on-disk
    page, and a dead write-back set holding a dirty and a clean page."""
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB)
    )
    tracer = cluster.enable_tracing()
    node = cluster.nodes[0]
    live = cluster.create_set("live", durability="write-back", page_size=1 * MB)
    dead = cluster.create_set("dead", durability="write-back", page_size=512 * KB)
    write_pages(live.shards[0], 3)
    write_pages(dead.shards[0], 2)
    # Flush and page back in: clean, with an image on disk.
    flushed = [live.shards[0].pages[1], live.shards[0].pages[2], dead.shards[0].pages[1]]
    _evict_rounds(node, [[page] for page in flushed])
    for page in flushed:
        page.shard.unpin_page(page.shard.pin_page(page))
    live.shards[0].pages[2].dirty = True  # changed again since its image
    dead.end_lifetime()
    pages = live.shards[0].pages + dead.shards[0].pages
    return cluster, tracer, node, live, dead, pages


def _counters(node, live, dead):
    return (
        dataclasses.astuple(node.pool.stats),
        node.paging.stats.pages_evicted,
        dataclasses.astuple(live.shards[0].metrics),
        dataclasses.astuple(dead.shards[0].metrics),
    )


class TestBatchedEvictionCounters:
    def test_one_batch_counts_what_page_by_page_counts(self):
        batched = _mixed_cluster()
        cluster, tracer, node, live, dead, pages = batched
        start = len(tracer.events)
        _evict_rounds(node, [pages])
        batch_events = [e.args for e in tracer.events[start:] if e.name == "shard.evict"]

        single = _mixed_cluster()
        cluster1, tracer1, node1, live1, dead1, pages1 = single
        start = len(tracer1.events)
        _evict_rounds(node1, [[page] for page in pages1])
        single_events = [e.args for e in tracer1.events[start:] if e.name == "shard.evict"]

        assert _counters(node, live, dead) == _counters(node1, live1, dead1)
        assert batch_events == single_events
        assert [(e["was_dirty"], e["flushed"]) for e in batch_events] == [
            (True, True), (False, False), (True, False), (True, False), (False, False),
        ]
        # Only the flushed page changes state: a dead set's dirty page and a
        # dirty page with an older image keep their bits.
        assert [(p.on_disk, p.dirty) for p in pages] == [
            (True, False), (True, False), (True, True), (False, True), (True, False),
        ]
        assert [(p.on_disk, p.dirty) for p in pages1] == [
            (p.on_disk, p.dirty) for p in pages
        ]
        # The set-up's three single-page rounds (two 1 MB live pages, one
        # 512 KB dead page), then the batch, which flushes one 1 MB page.
        stats = node.pool.stats
        assert (stats.pageouts, stats.bytes_paged_out) == (4, 3 * MB + 512 * KB)
        assert stats.evictions == 3 + len(pages)
        live_metrics, dead_metrics = live.shards[0].metrics, dead.shards[0].metrics
        assert (live_metrics.flushed_pages, live_metrics.flushed_bytes) == (3, 3 * MB)
        assert (dead_metrics.flushed_pages, dead_metrics.flushed_bytes) == (1, 512 * KB)
        assert (live_metrics.evictions, dead_metrics.evictions) == (2 + 3, 1 + 2)
        assert node.paging.stats.eviction_rounds == 3 + 1
        assert node1.paging.stats.eviction_rounds == 3 + len(pages)
        assert reconcile(collect(cluster)) == []
        assert reconcile(collect(cluster1)) == []
        node.pool.check_invariants()
        for shard in (live.shards[0], dead.shards[0]):
            shard.recency.check_consistency(shard)


# ----------------------------------------------------------------------
# hash-write charges
# ----------------------------------------------------------------------


class _Boom(Exception):
    pass


def _sum_or_raise(old, new):
    if new == "boom":
        raise _Boom
    return old + new


def _hash_cluster():
    cluster = PangeaCluster(
        num_nodes=3, profile=MachineProfile.tiny(pool_bytes=16 * MB)
    )
    data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
    buffer = VirtualHashBuffer(data, num_root_partitions=6, combiner=_sum_or_raise)
    return cluster, buffer


def _clocks(cluster):
    return [node.clock.ticks for node in cluster.nodes]


def per_entry_ticks(buffer, keys, nbytes, stored=()):
    """Each node's ticks, and the combines, that charging ``keys`` entry by
    entry gives: a new key costs ``record_ticks(nbytes + ENTRY_OVERHEAD, 1,
    1.5)`` on its root's node, a combine ``record_ticks(0, 1, 1.5)``.  No
    root grows in these tests, so an entry's bytes are its own."""
    seen = set(stored)
    ticks = {}
    combines = 0
    for key in keys:
        index, _sub = buffer._route(key)
        node = buffer.roots[index].shard.node
        if key in seen:
            combines += 1
            cost = node.cpu.record_ticks(0, 1, 1.5)
        else:
            seen.add(key)
            cost = node.cpu.record_ticks(nbytes + ENTRY_OVERHEAD, 1, 1.5)
        ticks[node.node_id] = ticks.get(node.node_id, 0) + cost
    return ticks, combines


def _elapsed(cluster, before):
    return {
        node.node_id: node.clock.ticks - start
        for node, start in zip(cluster.nodes, before)
        if node.clock.ticks != start
    }


class TestHashWriteCharges:
    KEYS = [f"k{i}" for i in range(40)]

    def _batch(self, rng):
        keys = [rng.choice(self.KEYS) for _ in range(300)]
        return keys, [rng.randint(1, 9) for _ in keys]

    def test_batched_combines_charge_what_per_entry_charging_does(self):
        keys, values = self._batch(random.Random(5))
        cluster, buffer = _hash_cluster()
        before = _clocks(cluster)
        buffer.insert_many(keys, values, nbytes=40)
        ticks, combines = per_entry_ticks(buffer, keys, 40)
        assert _elapsed(cluster, before) == ticks
        assert len(ticks) == len(cluster.nodes)
        assert buffer.stats.combines == combines == len(keys) - len(set(keys))
        assert buffer.stats.splits == 0
        # One insert call per entry charges the same.
        single, reference = _hash_cluster()
        for key, value in zip(keys, values):
            reference.insert(key, value, nbytes=40)
        assert _clocks(single) == _clocks(cluster)
        assert reference.stats == buffer.stats
        assert sorted(reference.items()) == sorted(buffer.items())

    def test_pure_combines_cost_count_times_the_entry_ticks(self):
        cluster, buffer = _hash_cluster()
        buffer.insert_many(self.KEYS, [0] * len(self.KEYS), nbytes=40)
        before = _clocks(cluster)
        keys = self.KEYS * 3
        buffer.insert_many(keys, [1] * len(keys), nbytes=40)
        ticks, combines = per_entry_ticks(buffer, keys, 40, stored=self.KEYS)
        assert combines == len(keys)
        assert _elapsed(cluster, before) == ticks

    def test_a_combiner_raising_mid_batch_charges_the_entries_before_it(self):
        keys, values = self._batch(random.Random(9))
        # keys[0] is stored by then, so this entry combines, and raises.
        keys.insert(200, keys[0])
        values.insert(200, "boom")
        cluster, buffer = _hash_cluster()
        before = _clocks(cluster)
        with pytest.raises(_Boom):
            buffer.insert_many(keys, values, nbytes=40)
        ticks, combines = per_entry_ticks(buffer, keys[:200], 40)
        assert _elapsed(cluster, before) == ticks
        assert buffer.stats.combines == combines > 0
        assert buffer.stats.inserts == len(set(keys[:200]))
        single, reference = _hash_cluster()
        with pytest.raises(_Boom):
            for key, value in zip(keys, values):
                reference.insert(key, value, nbytes=40)
        assert _clocks(single) == _clocks(cluster)
        assert reference.stats == buffer.stats
