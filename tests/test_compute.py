"""Tests for the computation-process model: circular buffer, data proxy,
long-living workers, waves of tasks."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.compute import CircularBuffer, DataProxy, WavesOfTasks, WorkerPool
from repro.compute.circular import PageMeta
from repro.sim.devices import MB


def meta(i):
    return PageMeta(page_id=i, offset=i * 100, size=100, num_objects=1)


class TestCircularBuffer:
    def test_fifo_order(self):
        ring = CircularBuffer(4)
        for i in range(3):
            ring.put(meta(i))
        assert [ring.get().page_id for _ in range(3)] == [0, 1, 2]

    def test_full_put_stalls(self):
        ring = CircularBuffer(2)
        assert ring.put(meta(0))
        assert ring.put(meta(1))
        assert not ring.put(meta(2))
        assert ring.producer_stalls == 1

    def test_empty_get_stalls(self):
        ring = CircularBuffer(2)
        assert ring.get() is None
        assert ring.consumer_stalls == 1

    def test_wraparound(self):
        ring = CircularBuffer(2)
        for i in range(10):
            ring.put(meta(i))
            assert ring.get().page_id == i

    def test_close_semantics(self):
        ring = CircularBuffer(2)
        ring.put(meta(0))
        ring.close()
        assert not ring.drained
        assert ring.get().page_id == 0
        assert ring.drained
        with pytest.raises(ValueError):
            ring.put(meta(1))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CircularBuffer(0)


@pytest.fixture
def loaded_cluster():
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
    )
    data = cluster.create_set("s", durability="write-back",
                              page_size=1 * MB, object_bytes=64 * 1024)
    data.add_data(list(range(128)))  # 8MB over two 8MB pools
    return cluster, data


class TestDataProxy:
    def test_serves_every_page_once(self, loaded_cluster):
        cluster, data = loaded_cluster
        shard = data.shards[0]
        proxy = DataProxy(shard)
        seen = []
        while True:
            page = proxy.next_page()
            if page is None:
                break
            seen.append(page.page_id)
            proxy.release_page(page)
        assert sorted(seen) == sorted(p.page_id for p in shard.pages)
        assert proxy.drained

    def test_pages_pinned_while_served(self, loaded_cluster):
        cluster, data = loaded_cluster
        shard = data.shards[0]
        proxy = DataProxy(shard)
        page = proxy.next_page()
        assert page.pinned
        proxy.release_page(page)
        assert not page.pinned

    def test_release_unknown_page_rejected(self, loaded_cluster):
        cluster, data = loaded_cluster
        shard = data.shards[0]
        proxy = DataProxy(shard)
        with pytest.raises(ValueError):
            proxy.release_page(shard.pages[0])

    def test_close_releases_outstanding_pins(self, loaded_cluster):
        cluster, data = loaded_cluster
        shard = data.shards[0]
        proxy = DataProxy(shard)
        page = proxy.next_page()
        proxy.close()
        assert not page.pinned

    def test_metadata_messages_charged(self, loaded_cluster):
        cluster, data = loaded_cluster
        shard = data.shards[0]
        before = shard.node.network.stats.num_messages
        proxy = DataProxy(shard)
        while True:
            page = proxy.next_page()
            if page is None:
                break
            proxy.release_page(page)
        # GetSetPages + one PagePinned per page.
        assert shard.node.network.stats.num_messages >= before + 1 + len(shard.pages)


class TestWorkerPool:
    def test_processes_every_page(self, loaded_cluster):
        cluster, data = loaded_cluster
        pool = WorkerPool(cluster, workers_per_node=4)
        result = pool.run_stage(data, page_fn=lambda p: p.num_objects)
        assert result.pages_processed == data.num_pages
        assert sum(result.all_results()) == data.num_objects

    def test_stage_time_positive(self, loaded_cluster):
        cluster, data = loaded_cluster
        pool = WorkerPool(cluster)
        result = pool.run_stage(data, page_fn=lambda p: None,
                                seconds_per_object=1e-6)
        assert result.seconds > 0

    def test_more_workers_is_faster(self, loaded_cluster):
        cluster, data = loaded_cluster
        slow = WorkerPool(cluster, workers_per_node=1).run_stage(
            data, page_fn=lambda p: None, seconds_per_object=1e-5
        )
        fast = WorkerPool(cluster, workers_per_node=4).run_stage(
            data, page_fn=lambda p: None, seconds_per_object=1e-5
        )
        assert fast.seconds < slow.seconds

    def test_invalid_worker_count(self, loaded_cluster):
        cluster, _data = loaded_cluster
        with pytest.raises(ValueError):
            WorkerPool(cluster, workers_per_node=0)

    def test_page_fn_error_propagates_and_unpins(self, loaded_cluster):
        cluster, data = loaded_cluster

        def explode(page):
            raise RuntimeError("worker crashed")

        with pytest.raises(RuntimeError, match="worker crashed"):
            WorkerPool(cluster, workers_per_node=4).run_stage(data, explode)
        for shard in data.shards.values():
            assert not any(page.pinned for page in shard.pages)

    def test_stage_under_paging_pressure(self):
        """The pool is smaller than the set: the proxy's pins force
        evictions and reloads mid-stage."""
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=3 * MB)
        )
        data = cluster.create_set("big", durability="write-back",
                                  page_size=256 * 1024, object_bytes=16 * 1024)
        data.add_data(list(range(24 * 16)))
        result = WorkerPool(
            cluster, workers_per_node=4, buffer_capacity=4
        ).run_stage(data, page_fn=lambda p: sum(p.records))
        node = cluster.nodes[0]
        node.pool.check_invariants()
        assert node.pool.stats.pageins > 0
        assert result.pages_processed == data.num_pages
        assert sum(result.all_results()) == sum(range(24 * 16))
        assert not any(page.pinned for page in data.shards[0].pages)

    def test_kmeans_assignment_stage(self):
        """A k-means assignment pass (the paper's Fig. 3 workload) gives
        each node exactly the assignments of the pages it stores."""
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        data = cluster.create_set("points", durability="write-back",
                                  page_size=1 * MB, object_bytes=64 * 1024)
        data.add_data([(float(i % 17), float(i % 5)) for i in range(256)])
        centers = [(0.0, 0.0), (8.0, 2.0), (16.0, 4.0)]

        def assign(page):
            return [
                min(range(len(centers)),
                    key=lambda c: (x - centers[c][0]) ** 2 + (y - centers[c][1]) ** 2)
                for x, y in page.records
            ]

        result = WorkerPool(cluster, workers_per_node=4).run_stage(data, assign)
        assert result.pages_processed == data.num_pages
        for node_id, shard in data.shards.items():
            expected = sorted(assign(page) for page in shard.pages)
            assert sorted(result.per_node[node_id]) == expected
        assert sum(len(a) for a in result.all_results()) == 256


class TestWavesVsWorkers:
    def test_same_answers(self, loaded_cluster):
        cluster, data = loaded_cluster
        workers = WorkerPool(cluster, workers_per_node=4).run_stage(
            data, page_fn=lambda p: p.num_objects
        )
        waves = WavesOfTasks(cluster, cores_per_node=4).run_stage(
            data, page_fn=lambda p: p.num_objects
        )
        assert sorted(workers.all_results()) == sorted(waves.all_results())

    def test_waves_pay_per_task_overhead(self, loaded_cluster):
        cluster, data = loaded_cluster
        workers = WorkerPool(cluster, workers_per_node=4).run_stage(
            data, page_fn=lambda p: None
        )
        waves = WavesOfTasks(cluster, cores_per_node=4).run_stage(
            data, page_fn=lambda p: None
        )
        assert waves.tasks_scheduled == data.num_pages
        assert waves.seconds > workers.seconds


@pytest.mark.parametrize(
    "make_model",
    [
        pytest.param(lambda c: WorkerPool(c, buffer_capacity=0),
                     id="buffer_capacity=0"),
        pytest.param(lambda c: WavesOfTasks(c, cores_per_node=0),
                     id="cores_per_node=0"),
        pytest.param(lambda c: WavesOfTasks(c, task_overhead=-1.0),
                     id="task_overhead=-1"),
    ],
)
def test_invalid_arguments_rejected_before_any_clock_moves(make_model):
    """Bad arguments raise in the constructor, not mid-stage after the
    opening barrier has already synchronized the node clocks."""
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
    )
    cluster.nodes[0].clock.advance(1.0003)
    cluster.nodes[1].clock.advance(0.0003)
    before = [node.clock.now for node in cluster.nodes]
    with pytest.raises(ValueError):
        make_model(cluster)
    assert [node.clock.now for node in cluster.nodes] == before
