"""Tests for locality sets and their per-node shards."""

import pytest

from repro import DurabilityType, MachineProfile, PangeaCluster
from repro.buffer.pool import BufferPoolFullError
from repro.sim.devices import MB


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB))


class TestShardLifecycle:
    def test_new_page_is_placed_and_pinned(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        assert page.in_memory
        assert page.pinned
        assert page in shard.pool

    def test_seal_write_through_persists(self, cluster):
        data = cluster.create_set("s", durability="write-through", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("r", 10)
        shard.seal_page(page)
        assert page.on_disk
        assert not page.dirty
        assert shard.file.contains(page.page_id)

    def test_seal_write_back_does_not_persist(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("r", 10)
        shard.seal_page(page)
        assert not page.on_disk
        assert page.dirty

    def test_evict_flushes_dirty_write_back(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("payload", 10)
        shard.seal_page(page)
        shard.unpin_page(page)
        shard.evict_page(page)
        assert not page.in_memory
        assert page.on_disk
        assert shard.pool.stats.pageouts == 1

    def test_evict_dead_set_skips_flush(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("payload", 10)
        shard.unpin_page(page)
        data.end_lifetime()
        shard.evict_page(page)
        assert not page.on_disk
        assert shard.pool.stats.pageouts == 0

    def test_evict_pinned_rejected(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        with pytest.raises(ValueError):
            shard.evict_page(page)

    def test_pin_reloads_evicted_page(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append({"k": 1}, 10)
        shard.seal_page(page)
        shard.unpin_page(page)
        shard.evict_page(page)
        assert page.records == []
        shard.pin_page(page)
        assert page.in_memory
        assert page.records == [{"k": 1}]
        assert shard.pool.stats.pageins == 1

    def test_pin_lost_page_rejected(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        shard.unpin_page(page)
        page.offset = None  # simulate corruption: neither memory nor disk
        del shard.pool.pages[page.page_id]
        with pytest.raises(ValueError):
            shard.pin_page(page)

    def test_touch_updates_recency(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        before = page.last_access_tick
        shard.touch(page)
        assert page.last_access_tick > before
        assert data.attributes.access_recency == page.last_access_tick

    def test_clear_drops_everything(self, cluster):
        data = cluster.create_set("s", durability="write-through", page_size=1 * MB)
        data.add_data(["x"] * 100, nbytes_each=100)
        shard = data.shards[0]
        assert shard.pages
        shard.clear()
        assert not shard.pages
        assert shard.file.num_pages == 0


class TestLocalitySetDistribution:
    def test_add_data_spreads_over_nodes(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(100)))
        counts = [shard.num_objects for shard in data.shards.values()]
        assert sum(counts) == 100
        assert all(c > 0 for c in counts)

    def test_add_object_round_robin(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        for i in range(10):
            data.add_object(i)
        assert data.num_objects == 10
        assert all(s.num_objects == 5 for s in data.shards.values())

    def test_scan_returns_all_records(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(500)))
        assert sorted(data.scan_records()) == list(range(500))

    def test_logical_bytes(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=128)
        data.add_data(["r"] * 64)
        assert data.logical_bytes == 64 * 128

    def test_create_on_subset_of_nodes(self, cluster):
        data = cluster.create_set("only1", page_size=1 * MB, nodes=[1])
        assert list(data.shards) == [1]

    def test_page_fills_and_rolls(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=600 * 1024,
                                  nodes=[0])
        data.add_data(["a", "b", "c"])
        # 600KB objects: one per 1MB page.
        assert data.num_pages == 3

    def test_oversized_object_rejected(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with pytest.raises(ValueError):
            data.add_object("huge", nbytes=2 * MB)

    def test_spill_and_full_rescan(self, cluster):
        """Writing 4x the pool spills; a rescan still sees every record."""
        data = cluster.create_set(
            "big", durability="write-back", page_size=1 * MB, object_bytes=64 * 1024
        )
        records = list(range(1024))  # 64MB logical over two 8MB pools
        data.add_data(records)
        assert any(node.fs.bytes_on_disk > 0 for node in cluster.nodes)
        assert sorted(data.scan_records()) == records
