"""Tests for the sequential read/write service."""

import pytest

from repro import (
    CurrentOperation,
    FaultInjector,
    MachineProfile,
    PangeaCluster,
    ReadingPattern,
    WritingPattern,
)
from repro.services.sequential import (
    NodeFailedError,
    PageIterator,
    SequentialWriter,
    ShardWriters,
    make_page_iterators,
    make_shard_iterators,
)
from repro.sim.devices import MB

from .conftest import AbortingInjector


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB))


class TestSequentialWriter:
    def test_writes_land_in_pages(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with SequentialWriter(data.shards[0]) as writer:
            for i in range(10):
                writer.add_object(i, nbytes=100)
        assert data.num_objects == 10

    def test_attributes_inferred_on_attach(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with SequentialWriter(data.shards[0]):
            assert data.attributes.writing_pattern is WritingPattern.SEQUENTIAL_WRITE
            assert data.attributes.current_operation is CurrentOperation.WRITE
        assert data.attributes.current_operation is CurrentOperation.NONE

    def test_unattached_writer_rejects_writes(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        writer = SequentialWriter(data.shards[0])
        with pytest.raises(RuntimeError):
            writer.add_object("x", nbytes=10)

    def test_page_rollover(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with SequentialWriter(data.shards[0]) as writer:
            writer.add_data(["x"] * 3, nbytes_each=600 * 1024)
        shard = data.shards[0]
        assert len(shard.pages) == 3
        assert shard.pages[0].sealed
        assert not shard.pages[-1].pinned

    def test_default_object_bytes(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0], object_bytes=250)
        with SequentialWriter(data.shards[0]) as writer:
            writer.add_object("r")
        assert data.logical_bytes == 250

    def test_flush_seals_partial_page(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with SequentialWriter(data.shards[0]) as writer:
            writer.add_object("x", nbytes=10)
            writer.flush()
        assert data.shards[0].pages[0].sealed

    def test_writing_charges_time(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        before = cluster.nodes[0].clock.now
        with SequentialWriter(data.shards[0]) as writer:
            writer.add_data(["x"] * 1000, nbytes_each=100)
        assert cluster.nodes[0].clock.now > before

    @pytest.mark.parametrize("nbytes", [5 * MB, -1])
    def test_unfit_size_rejected_before_any_effect(self, nbytes):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB))
        data = cluster.create_set(
            "s", durability="write-through", page_size=4 * MB, nodes=[0]
        )
        node, shard = cluster.nodes[0], data.shards[0]

        def state():
            return (
                node.clock.ticks,
                [(page.page_id, page.sealed, page.on_disk) for page in shard.pages],
                node.disks.total_bytes_written(),
            )

        with SequentialWriter(shard) as writer:
            writer.add_object("open", nbytes=1 * MB)
            before = state()
            with pytest.raises(ValueError):
                writer.add_data([1, 2, 3], nbytes_each=nbytes)
            assert state() == before
            assert shard.pages[0].records == ["open"]

    def test_crash_at_mid_write_fails_the_write_at_the_page_boundary(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=8 * MB))
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_crash("mid-write", node_id=0, at_count=1)
        data = cluster.create_set("s", page_size=1 * MB, nodes=[0])
        with pytest.raises(NodeFailedError) as raised:
            with SequentialWriter(data.shards[0]) as writer:
                writer.add_data(list(range(25)), nbytes_each=100 * 1024)
        assert raised.value.node_id == 0
        shard = data.shards[0]
        assert [page.records for page in shard.pages] == [list(range(10))]
        assert shard.pages[0].sealed and not shard.pages[0].pinned
        assert data.active_writers == 0


class TestShardWriters:
    def test_routes_records_to_the_named_node(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        with ShardWriters(data, [0, 1]) as writers:
            writers.add_object(1, "x", nbytes=100)
            writers.add_object(1, "y", nbytes=100)
            writers.add_object(0, "z", nbytes=100)
        assert data.shards[0].num_objects == 1
        assert data.shards[1].num_objects == 2
        assert all(page.sealed for shard in data.shards.values() for page in shard.pages)

    def test_add_many_writes_a_batch_to_the_named_node(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        with ShardWriters(data, [0, 1]) as writers:
            writers.add_many(1, ["x", "y", "z"], nbytes=400 * 1024)
            writers.add_many(0, [], nbytes=400 * 1024)
        assert data.shards[0].pages == []
        assert [page.records for page in data.shards[1].pages] == [["x", "y"], ["z"]]

    def test_flushes_then_closes_in_node_order_also_on_error(self, cluster, monkeypatch):
        data = cluster.create_set("s", page_size=1 * MB)
        calls = []
        for name in ("attach", "flush", "close"):
            original = getattr(SequentialWriter, name)

            def spy(self, _name=name, _original=original):
                calls.append((_name, self.shard.node.node_id))
                return _original(self)

            monkeypatch.setattr(SequentialWriter, name, spy)
        with pytest.raises(RuntimeError, match="mid-import"):
            with ShardWriters(data, [1, 0]) as writers:
                writers.add_object(0, "x", nbytes=100)
                raise RuntimeError("mid-import failure")
        assert calls == [
            ("attach", 1), ("attach", 0),
            ("flush", 1), ("close", 1), ("flush", 0), ("close", 0),
        ]
        assert data.active_writers == 0
        assert data.attributes.current_operation is CurrentOperation.NONE


class TestPageIterators:
    def test_single_iterator_sees_all_pages(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(50)))
        records = []
        for iterator in make_page_iterators(data, 1):
            for page in iterator:
                records.extend(page.records)
        assert sorted(records) == list(range(50))

    def test_concurrent_iterators_partition_work(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=300 * 1024,
                                  nodes=[0])
        data.add_data(["r"] * 12)  # several pages
        iterators = make_page_iterators(data, 3)
        seen = [sum(p.num_objects for p in it) for it in iterators]
        assert sum(seen) == 12

    def test_read_attributes_inferred(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(10)))
        iterators = make_page_iterators(data, 2)
        assert data.attributes.reading_pattern is ReadingPattern.SEQUENTIAL_READ
        assert data.attributes.current_operation is CurrentOperation.READ
        for iterator in iterators:
            for _page in iterator:
                pass
        assert data.attributes.current_operation is CurrentOperation.NONE

    def test_pages_unpinned_after_iteration(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(20)))
        for iterator in make_page_iterators(data, 1):
            for _page in iterator:
                pass
        for shard in data.shards.values():
            assert all(not p.pinned for p in shard.pages)

    def test_iterator_close_releases_pin(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100, nodes=[0])
        data.add_data(list(range(10)))
        iterator = make_page_iterators(data, 1)[0]
        page = iterator.next()
        assert page.pinned
        iterator.close()
        assert not page.pinned

    def test_iteration_reloads_spilled_pages(self, cluster):
        data = cluster.create_set(
            "s", durability="write-back", page_size=1 * MB, object_bytes=256 * 1024,
            nodes=[0],
        )
        data.add_data(list(range(64)))  # 16MB logical vs 8MB pool
        assert cluster.nodes[0].pool.stats.evictions > 0
        seen = sorted(data.scan_records())
        assert seen == list(range(64))
        assert cluster.nodes[0].pool.stats.pageins > 0

    def test_shard_iterators_scope_to_one_node(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(40)))
        shard0 = data.shards[0]
        records = []
        for iterator in make_shard_iterators(shard0, 2):
            for page in iterator:
                records.extend(page.records)
        assert len(records) == shard0.num_objects

    def test_zero_iterators_rejected(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        with pytest.raises(ValueError):
            make_page_iterators(data, 0)


class TestAbandonedScan:
    """A scan that stops early or fails still unpins and detaches."""

    @pytest.fixture
    def data(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=300 * 1024,
                                  nodes=[0])
        data.add_data(list(range(12)))  # several pages
        return data

    @staticmethod
    def assert_released(data):
        assert not [p for shard in data.shards.values() for p in shard.pages if p.pinned]
        assert data.active_readers == 0
        assert data.attributes.current_operation is CurrentOperation.NONE

    def test_break_out_of_the_loop(self, data):
        for iterator in make_page_iterators(data, 1):
            for _page in iterator:
                break
        self.assert_released(data)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_dropped_scan_records_generator(self, data, workers):
        records = data.scan_records(workers=workers)
        next(records)
        del records
        self.assert_released(data)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_scan_records_attaches_at_its_first_record(self, data, workers):
        records = data.scan_records(workers=workers)
        assert iter(records) is records
        assert data.active_readers == 0
        self.assert_released(data)
        assert next(records) == 0
        assert data.active_readers == 1
        assert sum(p.pinned for p in data.shards[0].pages) == 1
        assert sorted([0, *records]) == list(range(12))
        self.assert_released(data)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exception_in_a_scan_records_consumer(self, data, workers):
        seen = []
        with pytest.raises(RuntimeError):
            for record in data.scan_records(workers=workers):
                seen.append(record)
                if len(seen) == 5:
                    raise RuntimeError("consumer failed")
        assert seen == [0, 1, 2, 3, 4]
        self.assert_released(data)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_mid_scan_crash_fails_scan_records(self, cluster, data, workers):
        injector = AbortingInjector(seed=1).attach(cluster)
        injector.schedule_crash("mid-scan", node_id=0, at_count=2)
        with pytest.raises(NodeFailedError):
            list(data.scan_records(workers=workers))
        self.assert_released(data)

    def test_scan_records_of_an_empty_set(self, cluster):
        empty = cluster.create_set("e", page_size=1 * MB, nodes=[0])
        assert list(empty.scan_records(workers=3)) == []
        self.assert_released(empty)

    def test_exception_in_the_loop_body(self, data):
        with pytest.raises(RuntimeError):
            for iterator in make_page_iterators(data, 1):
                for _page in iterator:
                    raise RuntimeError("stage failed")
        self.assert_released(data)

    def test_mid_scan_crash_failing_the_loop_body(self, cluster, data):
        out = cluster.create_set("o", page_size=1 * MB, object_bytes=300 * 1024,
                                 nodes=[0])
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_crash("mid-scan", node_id=0, at_count=2)
        with pytest.raises(NodeFailedError):
            with SequentialWriter(out.shards[0]) as writer:
                for iterator in make_shard_iterators(data.shards[0], 1):
                    for page in iterator:
                        writer.add_data(list(page.records))
        self.assert_released(data)
