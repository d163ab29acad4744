"""Tests for the shuffle service and virtual shuffle buffers."""

import pytest

from repro import CurrentOperation, MachineProfile, PangeaCluster, WritingPattern
from repro.services.sequential import NodeFailedError
from repro.services.shuffle import ShuffleService, SmallPageAllocator
from repro.sim.devices import KB, MB

from .conftest import AbortingInjector


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=16 * MB))


def make_service(cluster, partitions=4):
    return ShuffleService(
        cluster, "sh", num_partitions=partitions,
        page_size=1 * MB, small_page_size=64 * KB, object_bytes=100,
    )


class TestSmallPageAllocator:
    def test_small_pages_carve_one_big_page(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB,
                                  nodes=[0])
        alloc = SmallPageAllocator(data.shards[0], small_page_size=256 * KB)
        pages = [alloc.get_small_page() for _ in range(4)]
        assert len(data.shards[0].pages) == 1
        assert all(p.budget == 256 * KB for p in pages)

    def test_big_page_rolls_when_exhausted(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB,
                                  nodes=[0])
        alloc = SmallPageAllocator(data.shards[0], small_page_size=512 * KB)
        for _ in range(3):
            small = alloc.get_small_page()
            small.finish(data.shards[0])
        assert len(data.shards[0].pages) == 2

    def test_big_page_unpins_only_when_all_small_finished(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB,
                                  nodes=[0])
        shard = data.shards[0]
        alloc = SmallPageAllocator(shard, small_page_size=512 * KB)
        first = alloc.get_small_page()
        second = alloc.get_small_page()
        third = alloc.get_small_page()  # rolls to a new big page
        big = first.big.page
        assert big.pinned  # first/second still outstanding
        first.finish(shard)
        assert big.pinned
        second.finish(shard)
        assert not big.pinned
        third.finish(shard)

    def test_oversized_small_page_rejected(self, cluster):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB,
                                  nodes=[0])
        with pytest.raises(ValueError):
            SmallPageAllocator(data.shards[0], small_page_size=2 * MB)


class TestShuffleService:
    def test_one_set_per_partition(self, cluster):
        service = make_service(cluster)
        assert len(service.partition_sets) == 4
        homes = [sorted(s.shards)[0] for s in service.partition_sets]
        assert homes == [0, 1, 0, 1]

    def test_records_grouped_by_partition(self, cluster):
        service = make_service(cluster)
        for worker in range(2):
            for i in range(100):
                partition = i % 4
                service.buffer_for(worker, partition).add_object((worker, i))
        service.finish_writing()
        for partition in range(4):
            records = list(service.partition_set(partition).scan_records())
            assert len(records) == 50
            assert all(i % 4 == partition for _w, i in records)

    def test_concurrent_write_attribute(self, cluster):
        service = make_service(cluster)
        for dataset in service.partition_sets:
            assert dataset.attributes.writing_pattern is WritingPattern.CONCURRENT_WRITE
            assert dataset.attributes.current_operation is CurrentOperation.WRITE
        service.finish_writing()
        for dataset in service.partition_sets:
            assert dataset.attributes.current_operation is CurrentOperation.NONE

    def test_multiple_writers_share_a_page(self, cluster):
        """Data from all writers of one partition lands in one locality set
        (Spark would use cores x partitions files)."""
        service = make_service(cluster, partitions=1)
        for worker in range(4):
            for i in range(10):
                service.buffer_for(worker, 0).add_object((worker, i))
        service.finish_writing()
        dataset = service.partition_set(0)
        assert dataset.num_pages == 1
        assert dataset.num_objects == 40

    def test_remote_writer_charges_network(self, cluster):
        service = make_service(cluster, partitions=2)
        remote_node = cluster.nodes[1]  # partition 0 lives on node 0
        buffer = service.buffer_for(9, 0, worker_node=remote_node)
        for i in range(100):
            buffer.add_object(i)
        buffer.close()
        assert remote_node.network.stats.bytes_sent > 0

    def test_local_writer_charges_no_network(self, cluster):
        service = make_service(cluster, partitions=2)
        local_node = cluster.nodes[0]
        buffer = service.buffer_for(3, 0, worker_node=local_node)
        for i in range(100):
            buffer.add_object(i)
        buffer.close()
        assert local_node.network.stats.bytes_sent == 0

    def test_drop_removes_transient_sets(self, cluster):
        service = make_service(cluster)
        service.buffer_for(0, 0).add_object("x")
        service.finish_writing()
        service.drop()
        assert all(
            not cluster.manager.has_set(f"sh_p{p}") for p in range(4)
        )

    def test_spill_and_reread_under_pressure(self, cluster):
        """A shuffle bigger than the pool spills and still reads back fully."""
        service = ShuffleService(
            cluster, "big", num_partitions=2,
            page_size=1 * MB, small_page_size=64 * KB, object_bytes=64 * KB,
        )
        for worker in range(2):
            for i in range(600):  # ~37MB logical over two 16MB pools
                service.buffer_for(worker, i % 2).add_object(i)
        service.finish_writing()
        total = sum(
            len(list(service.partition_set(p).scan_records())) for p in range(2)
        )
        assert total == 1200

    def test_zero_partitions_rejected(self, cluster):
        with pytest.raises(ValueError):
            ShuffleService(cluster, "bad", num_partitions=0)


class TestWritesAfterFinish:
    """A finished shuffle takes no more writes and finishes only once."""

    def test_finish_writing_twice_detaches_once(self, cluster):
        service = make_service(cluster, partitions=2)
        service.buffer_for(0, 0).add_object("x")
        service.finish_writing()
        service.finish_writing()
        for dataset in service.partition_sets:
            assert dataset.active_writers == 0
            assert dataset.attributes.current_operation is CurrentOperation.NONE
        assert service.partition_set(0).num_objects == 1

    def test_add_object_after_finish_raises_and_pins_nothing(self, cluster):
        service = make_service(cluster, partitions=2)
        held = service.buffer_for(0, 0)
        held.add_object("x")
        service.finish_writing()
        pages = [ds.num_pages for ds in service.partition_sets]
        ticks = [node.clock.ticks for node in cluster.nodes]
        with pytest.raises(ValueError):
            held.add_object("late")
        with pytest.raises(ValueError):
            service.buffer_for(1, 1).add_object("late")
        assert [ds.num_pages for ds in service.partition_sets] == pages
        assert [node.clock.ticks for node in cluster.nodes] == ticks
        assert list(service.partition_set(0).scan_records()) == ["x"]
        assert list(service.partition_set(1).scan_records()) == []
        service.drop()  # would raise on a leaked pinned page

    def test_write_batch_after_finish_raises_and_pins_nothing(self, cluster):
        service = make_service(cluster, partitions=2)
        service.write_batch(0, ["a", "b"], [0, 1], worker_node=cluster.nodes[1])
        service.finish_writing()
        ticks = [node.clock.ticks for node in cluster.nodes]
        sent = [node.network.stats.bytes_sent for node in cluster.nodes]
        with pytest.raises(ValueError):
            service.write_batch(0, ["c", "d"], [0, 1], worker_node=cluster.nodes[1])
        assert [node.clock.ticks for node in cluster.nodes] == ticks
        assert [node.network.stats.bytes_sent for node in cluster.nodes] == sent
        assert [list(ds.scan_records()) for ds in service.partition_sets] == [["a"], ["b"]]
        service.drop()


def test_negative_record_size_raises_and_stages_nothing(cluster):
    service = make_service(cluster, partitions=1)
    buffer = service.buffer_for(0, 0, worker_node=cluster.nodes[0])
    buffer.add_object("a")
    with pytest.raises(ValueError):
        buffer.add_object("bad", -100)
    buffer.add_object("b")
    service.finish_writing()
    page = service.partition_set(0).shards[0].pages[0]
    assert page.records == ["a", "b"]
    assert page.used_bytes == 200


class TestCrashAtRoll:
    """A ``mid-shuffle`` crash as a writer rolls its full small page."""

    @staticmethod
    def crash_at_roll(cluster, writer):
        """Fill one 2 KB small page with 20 records of 100 bytes, then
        crash the home node as the 21st record rolls it."""
        service = ShuffleService(
            cluster, "sh", num_partitions=2, page_size=1 * MB,
            small_page_size=2 * KB, object_bytes=100,
        )
        AbortingInjector(seed=0).attach(cluster).schedule_crash(
            "mid-shuffle", node_id=0, at_count=1
        )
        buffer = service.buffer_for(0, 0, worker_node=writer)
        for i in range(20):
            buffer.add_object(i)
        full = buffer._small
        with pytest.raises(NodeFailedError):
            buffer.add_object(20)
        return service, buffer, full

    @pytest.mark.parametrize("local", [False, True], ids=["remote", "local"])
    def test_crash_leaves_the_run_settled_and_the_page_unfinished(self, cluster, local):
        service, buffer, full = self.crash_at_roll(cluster, cluster.nodes[0 if local else 1])
        page = service.partition_set(0).shards[0].pages[0]
        assert page.records == list(range(20))
        assert page.used_bytes == full.used == 2000
        assert buffer._run == [] and buffer._room == 0
        # The small page is still the writer's, unfinished, and nothing
        # went over the network.
        assert buffer._small is full and not full.closed
        assert full.big.outstanding == 1
        assert cluster.nodes[1].network.stats.bytes_sent == 0
        assert cluster.nodes[0].network.stats.bytes_received == 0

    def test_crash_charges_the_settled_run_exactly(self, cluster):
        """The settle before the fault point charges the remote writer's
        clock exactly what twenty per-record charges would."""
        reference = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=16 * MB))
        for _ in range(20):
            reference.nodes[1].cpu.records(1, 100)
        self.crash_at_roll(cluster, cluster.nodes[1])
        assert cluster.nodes[1].clock.ticks == reference.nodes[1].clock.ticks
