"""Edge-case and robustness tests across modules."""

import pytest

from repro import BufferPoolFullError, MachineProfile, PangeaCluster
from repro.services.hashsvc import VirtualHashBuffer
from repro.sim.devices import KB, MB


class TestHashServiceLimits:
    def test_finalize_raises_when_map_cannot_fit(self):
        """Resident finalize on a map larger than the pool fails clearly
        (items() streaming still works)."""
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("h", durability="write-back",
                                  page_size=512 * KB)
        buffer = VirtualHashBuffer(data, num_root_partitions=2)
        for i in range(2000):  # ~8MB of entries against a 2MB pool
            buffer.insert(i, i, nbytes=4096)
        with pytest.raises(BufferPoolFullError):
            buffer.finalize(max_rounds_per_spill=2)

    def test_streaming_items_still_complete_when_finalize_would_fail(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("h", durability="write-back",
                                  page_size=512 * KB)
        buffer = VirtualHashBuffer(data, num_root_partitions=2)
        for i in range(2000):
            buffer.insert(i, i, nbytes=4096)
        assert len(dict(buffer.items())) == 2000

    def test_oversized_entry_rejected(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        data = cluster.create_set("h", durability="write-back", page_size=256 * KB)
        buffer = VirtualHashBuffer(data, num_root_partitions=1)
        with pytest.raises(ValueError):
            buffer.insert("k", "v", nbytes=1 * MB)


class TestDropSetRobustness:
    def test_drop_set_with_spilled_pages(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("s", durability="write-back",
                                  page_size=512 * KB, object_bytes=128 * KB)
        data.add_data(list(range(64)))  # spills
        assert cluster.nodes[0].fs.bytes_on_disk > 0
        cluster.drop_set("s")
        assert cluster.nodes[0].fs.bytes_on_disk == 0
        assert cluster.nodes[0].pool.used_bytes == 0

    def test_drop_missing_set_raises(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        with pytest.raises(KeyError):
            cluster.drop_set("ghost")

    def test_set_recreatable_after_drop(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        cluster.create_set("s", page_size=1 * MB)
        cluster.drop_set("s")
        again = cluster.create_set("s", page_size=1 * MB, object_bytes=10)
        again.add_data([1, 2, 3])
        assert again.num_objects == 3


class TestManagerEdges:
    def test_replica_group_lookup_missing(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        with pytest.raises(KeyError):
            cluster.manager.replica_group(999)

    def test_statistics_missing_set(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        with pytest.raises(KeyError):
            cluster.manager.statistics("ghost")


class TestDiskArrayEdges:
    def test_odd_byte_counts_conserved(self):
        from repro.sim.devices import DiskArray, DiskDevice

        array = DiskArray([DiskDevice(), DiskDevice(), DiskDevice()])
        array.write(1_000_003)
        assert array.total_bytes_written() == 1_000_003
        array.read(999_999)
        assert array.total_bytes_read() == 999_999

    def test_zero_byte_transfer(self):
        from repro.sim.devices import DiskArray, DiskDevice

        array = DiskArray([DiskDevice()])
        cost = array.write(0)
        assert cost >= 0


class TestSlabPoolAdapterEdges:
    def test_free_and_reuse_cycle(self):
        from repro.buffer.page import Page
        from repro.buffer.pool import BufferPool

        pool = BufferPool(8 * MB, allocator="slab", max_page_size=1 * MB)
        pages = [Page(i, 1 * MB) for i in range(6)]
        for page in pages:
            pool.place(page)
        for page in pages[:3]:
            pool.release(page)
        replacements = [Page(10 + i, 1 * MB) for i in range(3)]
        for page in replacements:
            pool.place(page)
        assert all(p.in_memory for p in replacements)


class TestSchedulerEdges:
    def test_empty_set_scan(self):
        from repro.query import QueryScheduler, ScanNode

        cluster = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny())
        cluster.create_set("empty", page_size=1 * MB)
        scheduler = QueryScheduler(cluster, object_bytes=10)
        assert scheduler.execute(ScanNode("empty")) == []

    def test_join_with_empty_right(self):
        from repro.query import QueryScheduler, ScanNode

        cluster = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny())
        left = cluster.create_set("left", page_size=1 * MB, object_bytes=10)
        left.add_data([{"k": 1}])
        cluster.create_set("right", page_size=1 * MB)
        scheduler = QueryScheduler(cluster, object_bytes=10)
        plan = ScanNode("left").join(
            ScanNode("right"),
            left_key=lambda r: r["k"],
            right_key=lambda r: r["k"],
            merge=lambda l, r: l,
            how="left_outer",
        )
        rows = scheduler.execute(plan)
        assert len(rows) == 1

    def test_limit_zero(self):
        from repro.query import QueryScheduler, ScanNode

        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=10)
        data.add_data([1, 2, 3])
        scheduler = QueryScheduler(cluster, object_bytes=10)
        assert scheduler.execute(ScanNode("s").limit(0)) == []
