"""End-to-end integration tests across subsystems."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.ml.kmeans import PangeaKMeans, generate_points
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.recovery import recover_node
from repro.placement.replication import register_replica
from repro.query.operators import ScanNode
from repro.query.scheduler import QueryScheduler
from repro.services.hashsvc import VirtualHashBuffer
from repro.services.shuffle import ShuffleService
from repro.sim.devices import GB, KB, MB


class TestSharedBufferPoolAcrossWorkloads:
    def test_user_job_shuffle_and_hash_data_share_one_pool(self):
        """The headline claim: all data types in one pool, coordinated."""
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        user = cluster.create_set("user", durability="write-through",
                                  page_size=1 * MB, object_bytes=64 * KB)
        user.add_data(list(range(64)))  # 4MB of user data

        shuffle = ShuffleService(cluster, "sh", num_partitions=2,
                                 page_size=1 * MB, small_page_size=64 * KB,
                                 object_bytes=32 * KB)
        for i in range(128):  # 4MB of shuffle data
            shuffle.buffer_for(0, i % 2).add_object(i)
        shuffle.finish_writing()

        out = cluster.create_set("agg", durability="write-back", page_size=1 * MB)
        buffer = VirtualHashBuffer(out, num_root_partitions=2)
        buffer.combiner = lambda a, b: a + b
        for i in range(2000):
            buffer.insert(i % 100, 1, nbytes=60)

        # Everything coexists under pressure, nothing is lost.
        assert sorted(user.scan_records()) == list(range(64))
        total = sum(
            len(list(shuffle.partition_set(p).scan_records())) for p in range(2)
        )
        assert total == 128
        assert len(dict(buffer.items())) == 100
        for node in cluster.nodes:
            assert node.pool.used_bytes <= node.pool.capacity

    def test_transient_data_evicted_before_user_data_on_lifetime_end(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        job = cluster.create_set("job", durability="write-back", page_size=1 * MB)
        shard = job.shards[0]
        for _ in range(2):
            page = shard.new_page()
            shard.unpin_page(page)
        job.end_lifetime()
        user = cluster.create_set("user", durability="write-through",
                                  page_size=1 * MB, object_bytes=512 * KB)
        user.add_data(["x"] * 6)
        # The dead job data was dropped without a single disk write.
        assert all(not p.on_disk for p in shard.pages)
        assert cluster.nodes[0].fs.get_file("job").num_pages == 0


class TestQueryOverRecoveredData:
    def test_query_correct_after_node_failure_and_recovery(self):
        cluster = PangeaCluster(
            num_nodes=3, profile=MachineProfile.tiny(pool_bytes=64 * MB)
        )
        src = cluster.create_set("facts", page_size=1 * MB, object_bytes=64)
        src.add_data([{"k": i, "v": i % 5, "id": i} for i in range(600)])
        rep_a = cluster.create_set("facts_by_k", page_size=1 * MB, object_bytes=64)
        partition_set(src, rep_a, HashPartitioner(lambda r: r["k"], 12, key_name="k"))
        rep_b = cluster.create_set("facts_by_v", page_size=1 * MB, object_bytes=64)
        partition_set(src, rep_b, HashPartitioner(lambda r: r["v"], 12, key_name="v"))
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])

        recover_node(cluster, group, failed_node=1)
        # Query the recovered replica directly (skip the failed node's shard).
        recovered_ids = set()
        for node_id, shard in rep_a.shards.items():
            if node_id == 1:
                continue
            for page in shard.pages:
                records = page.records
                if not records and page.on_disk:
                    records = shard.file.peek_records(page.page_id)
                recovered_ids.update(r["id"] for r in records)
        assert recovered_ids == set(range(600))


class TestKmeansWithQueriesInterleaved:
    def test_two_applications_share_imported_data(self):
        """Pangea's point: imported data is reusable across applications."""
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.r4_2xlarge(pool_bytes=1 * GB)
        )
        km = PangeaKMeans(cluster, k=3, dims=4, page_size=1 * MB)
        points = generate_points(300, dims=4, num_clusters=3)
        data = km.load_points(points, represent=1.0)
        first = km.run(data, represent=1.0, iterations=2)
        # Second application re-reads the same locality set: no re-import.
        pageins_before = sum(n.pool.stats.pageins for n in cluster.nodes)
        second = PangeaKMeans(cluster, k=3, dims=4, page_size=1 * MB)
        result = second.run(data, represent=1.0, iterations=1)
        assert result.centroids.shape == first.centroids.shape
        pageins_after = sum(n.pool.stats.pageins for n in cluster.nodes)
        assert pageins_after == pageins_before  # still fully cached

    def test_kmeans_then_query_on_same_cluster(self):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=128 * MB)
        )
        table = cluster.create_set("t", page_size=1 * MB, object_bytes=64)
        table.add_data([{"g": i % 3, "x": i} for i in range(120)])
        km = PangeaKMeans(cluster, k=2, dims=4, page_size=1 * MB)
        pts = km.load_points(generate_points(100, dims=4), represent=1.0,
                             name="pts")
        km.run(pts, represent=1.0, iterations=1)
        scheduler = QueryScheduler(cluster, object_bytes=64)
        rows = scheduler.execute(
            ScanNode("t").aggregate(
                key_fn=lambda r: r["g"],
                seed_fn=lambda r: 1,
                merge_fn=lambda a, b: a + b,
                final_fn=lambda k, c: {"g": k, "n": c},
            )
        )
        assert {r["g"]: r["n"] for r in rows} == {0: 40, 1: 40, 2: 40}


class TestPolicyEndToEnd:
    @pytest.mark.parametrize("policy", ["data-aware", "lru", "mru", "dbmin-tuned"])
    def test_full_scan_workload_correct_under_policy(self, policy):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB), policy=policy
        )
        data = cluster.create_set("s", durability="write-back",
                                  page_size=512 * KB, object_bytes=64 * KB)
        records = list(range(256))  # 16MB over a 4MB pool
        data.add_data(records)
        for _ in range(3):
            assert sorted(data.scan_records()) == records

    def test_data_aware_beats_lru_on_mixed_workload(self):
        """The paper's core performance claim, end to end."""
        def run(policy):
            cluster = PangeaCluster(
                num_nodes=1,
                profile=MachineProfile.m3_xlarge(pool_bytes=8 * MB),
                policy=policy,
            )
            data = cluster.create_set("s", durability="write-back",
                                      page_size=1 * MB, object_bytes=128 * KB)
            data.add_data(list(range(128)))  # 16MB over an 8MB pool
            for _ in range(3):
                list(data.scan_records())
            return cluster.simulated_seconds()

        assert run("data-aware") < run("lru")
