"""Tests for the paging policies (data-aware, LRU, MRU, DBMIN variants)."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.core.attributes import CurrentOperation, ReadingPattern, WritingPattern
from repro.core.policies import (
    DataAwarePolicy,
    DbminBlockedError,
    DbminPolicy,
    GlobalLruPolicy,
    GlobalMruPolicy,
    eviction_cost,
    make_policy,
    next_victim,
    set_strategy,
    victim_batch,
)
from repro.sim.devices import MB


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB))


def make_shard(cluster, name, durability="write-back", pages=4, unpin=True):
    data = cluster.create_set(name, durability=durability, page_size=1 * MB)
    shard = data.shards[0]
    for i in range(pages):
        page = shard.new_page()
        page.append(f"{name}-{i}", 10)
        if unpin:
            shard.unpin_page(page)
    return shard


class TestStrategySelection:
    def test_sequential_write_uses_mru(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
        assert set_strategy(shard) == "mru"

    def test_concurrent_write_uses_mru(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_write_service(WritingPattern.CONCURRENT_WRITE)
        assert set_strategy(shard) == "mru"

    def test_random_mutable_write_uses_lru(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_write_service(WritingPattern.RANDOM_MUTABLE_WRITE)
        assert set_strategy(shard) == "lru"

    def test_sequential_read_uses_mru(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        assert set_strategy(shard) == "mru"

    def test_random_read_uses_lru(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        assert set_strategy(shard) == "lru"


class TestVictimSelection:
    def test_mru_picks_most_recent(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
        victim = next_victim(shard)
        assert victim is shard.pages[-1]

    def test_lru_picks_least_recent(self, cluster):
        shard = make_shard(cluster, "s")
        shard.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        victim = next_victim(shard)
        assert victim is shard.pages[0]

    def test_pinned_pages_never_victims(self, cluster):
        shard = make_shard(cluster, "s", pages=2, unpin=False)
        assert next_victim(shard) is None

    def test_write_sets_evict_one(self, cluster):
        shard = make_shard(cluster, "s", pages=10)
        shard.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
        assert len(victim_batch(shard)) == 1

    def test_read_sets_evict_ten_percent(self, cluster):
        shard = make_shard(cluster, "s", pages=10)
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        shard.attributes.current_operation = CurrentOperation.READ
        assert len(victim_batch(shard)) == 1  # max(1, 10% of 10)

    def test_dead_sets_evict_everything(self, cluster):
        shard = make_shard(cluster, "s", pages=6)
        shard.dataset.end_lifetime()
        assert len(victim_batch(shard)) == 6


class TestEvictionCost:
    def test_dirty_write_back_costs_more(self, cluster):
        dirty = make_shard(cluster, "dirty", durability="write-back", pages=1)
        clean = make_shard(cluster, "clean", durability="write-through", pages=1)
        clean.seal_page(clean.pages[0])
        now = cluster.nodes[0].paging.current_tick + 5
        cost_dirty = eviction_cost(dirty, dirty.pages[0], now)
        cost_clean = eviction_cost(clean, clean.pages[0], now)
        assert cost_dirty > cost_clean

    def test_random_read_penalty_increases_cost(self, cluster):
        seq = make_shard(cluster, "seq", pages=1)
        seq.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        rnd = make_shard(cluster, "rnd", pages=1)
        rnd.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        now = cluster.nodes[0].paging.current_tick + 5
        seq.pages[0].dirty = rnd.pages[0].dirty = False
        seq.pages[0].on_disk = rnd.pages[0].on_disk = True
        assert eviction_cost(rnd, rnd.pages[0], now) > eviction_cost(
            seq, seq.pages[0], now
        )

    def test_recent_page_costs_more_than_stale(self, cluster):
        shard = make_shard(cluster, "s", pages=2)
        old, new = shard.pages
        old.last_access_tick = 1
        new.last_access_tick = 100
        cost_old = eviction_cost(shard, old, 101)
        cost_new = eviction_cost(shard, new, 101)
        assert cost_new > cost_old

    def test_just_accessed_page_has_max_reuse_probability(self, cluster):
        shard = make_shard(cluster, "s", pages=1)
        page = shard.pages[0]
        cost_now = eviction_cost(shard, page, page.last_access_tick)
        cost_later = eviction_cost(shard, page, page.last_access_tick + 1000)
        assert cost_now > cost_later


class TestDataAwarePolicy:
    def test_dead_sets_evicted_first(self, cluster):
        live = make_shard(cluster, "live", pages=2)
        dead = make_shard(cluster, "dead", pages=2)
        dead.dataset.end_lifetime()
        policy = DataAwarePolicy()
        victims = policy.select_victims([live, dead], 1 * MB)
        assert victims
        assert all(v.shard is dead for v in victims)

    def test_prefers_cheapest_set(self, cluster):
        # A write-through set's pages are already on disk: cw = 0.
        cheap = make_shard(cluster, "cheap", durability="write-through", pages=2)
        for page in cheap.pages:
            cheap.seal_page(page)
        costly = make_shard(cluster, "costly", durability="write-back", pages=2)
        policy = DataAwarePolicy()
        victims = policy.select_victims([cheap, costly], 1 * MB)
        assert all(v.shard is cheap for v in victims)

    def test_nothing_evictable_returns_empty(self, cluster):
        pinned = make_shard(cluster, "pinned", pages=2, unpin=False)
        assert DataAwarePolicy().select_victims([pinned], 1 * MB) == []


class TestGlobalPolicies:
    def test_lru_takes_oldest_batch(self, cluster):
        a = make_shard(cluster, "a", pages=5)
        b = make_shard(cluster, "b", pages=5)
        victims = GlobalLruPolicy().select_victims([a, b], 1 * MB)
        assert victims
        oldest = min(
            (p for s in (a, b) for p in s.pages), key=lambda p: p.last_access_tick
        )
        assert victims[0] is oldest

    def test_mru_takes_newest_batch(self, cluster):
        a = make_shard(cluster, "a", pages=5)
        b = make_shard(cluster, "b", pages=5)
        victims = GlobalMruPolicy().select_victims([a, b], 1 * MB)
        newest = max(
            (p for s in (a, b) for p in s.pages), key=lambda p: p.last_access_tick
        )
        assert victims[0] is newest

    def test_batch_is_ten_percent(self):
        roomy = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=32 * MB)
        )
        a = make_shard(roomy, "a", pages=10)
        b = make_shard(roomy, "b", pages=10)
        victims = GlobalLruPolicy().select_victims([a, b], 1 * MB)
        assert len(victims) == 2  # 10% of 20


class TestDbmin:
    def test_dbmin_1_never_blocks(self, cluster):
        shards = [make_shard(cluster, f"s{i}", pages=3) for i in range(3)]
        policy = DbminPolicy(mode="one")
        victims = policy.select_victims(shards, 1 * MB)
        assert victims

    def test_dbmin_adaptive_blocks_when_oversubscribed(self, cluster):
        shard = make_shard(cluster, "s", pages=8)
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        # Desired = whole set; make the set bigger than the pool.
        for _ in range(12):
            page = shard.new_page()
            shard.unpin_page(page)
        with pytest.raises(DbminBlockedError):
            DbminPolicy(mode="adaptive").select_victims([shard], 1 * MB)

    def test_dbmin_fixed_blocks_like_paper_1000(self, cluster):
        shard = make_shard(cluster, "s", pages=2)
        with pytest.raises(DbminBlockedError):
            DbminPolicy(mode="fixed", fixed_pages=1000).select_victims([shard], 1 * MB)

    def test_dbmin_tuned_never_blocks(self, cluster):
        shard = make_shard(cluster, "s", pages=8)
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        victims = DbminPolicy(mode="tuned").select_victims([shard], 1 * MB)
        assert victims

    def test_evicts_from_most_oversubscribed_set(self, cluster):
        small = make_shard(cluster, "small", pages=1)
        large = make_shard(cluster, "large", pages=6)
        policy = DbminPolicy(mode="one")
        victims = policy.select_victims([small, large], 1 * MB)
        assert victims[0].shard is large

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DbminPolicy(mode="magic")


class TestPolicyFactory:
    @pytest.mark.parametrize(
        "name",
        ["data-aware", "lru", "mru", "dbmin-1", "dbmin-1000", "dbmin-adaptive",
         "dbmin-tuned"],
    )
    def test_known_policies(self, name):
        policy = make_policy(name)
        assert policy is not None

    def test_unknown_policy_rejected(self):
        for name in ("clock-pro", "lru-x"):
            with pytest.raises(ValueError, match="unknown paging policy"):
                make_policy(name)
