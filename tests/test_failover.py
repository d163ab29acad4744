"""Tests for the heartbeat failure detector and transparent scan failover."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import register_replica
from repro.services.sequential import NodeFailedError, make_shard_iterators
from repro.sim.devices import MB


def tiny_cluster(num_nodes=4, pool_mb=32):
    return PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=pool_mb * MB)
    )


def build_replicated(num_nodes=4, rows=600, nodes_b=None):
    cluster = tiny_cluster(num_nodes=num_nodes)
    src = cluster.create_set("src", page_size=1 * MB, object_bytes=100)
    src.add_data([{"a": i, "b": (i * 131) % 997, "id": i} for i in range(rows)])
    rep_a = cluster.create_set("rep_a", page_size=1 * MB, object_bytes=100)
    partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
    rep_b = cluster.create_set(
        "rep_b", page_size=1 * MB, object_bytes=100, nodes=nodes_b
    )
    partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
    group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
    return cluster, group, rep_a, rep_b


class TestFailureDetector:
    def test_detects_failure_at_barrier_and_charges_delay(self):
        cluster, group, rep_a, rep_b = build_replicated()
        detector = cluster.enable_self_healing(
            interval=0.5, miss_threshold=3, auto_recover=False
        )
        before = cluster.simulated_seconds()
        cluster.nodes[1].fail()
        detected_before = set(detector.handled)
        cluster.barrier()
        assert 1 in detector.handled
        assert 1 not in detected_before
        assert cluster.simulated_seconds() >= before + detector.detection_delay

    def test_detection_happens_once(self):
        cluster, group, *_ = build_replicated()
        detector = cluster.enable_self_healing(auto_recover=False)
        cluster.nodes[2].fail()
        assert detector.poll() == [2]
        assert detector.poll() == []
        cluster.barrier()
        assert detector.poll() == []

    def test_recovered_process_can_fail_again(self):
        cluster, group, *_ = build_replicated()
        detector = cluster.enable_self_healing(auto_recover=False)
        cluster.nodes[2].fail()
        detector.poll()
        cluster.nodes[2].recover_process()
        detector.poll()
        assert 2 not in detector.handled
        cluster.nodes[2].fail()
        assert detector.poll() == [2]

    def test_auto_recovery_runs_exactly_once(self):
        cluster, group, rep_a, rep_b = build_replicated()
        cluster.enable_self_healing()
        cluster.nodes[1].fail()
        cluster.barrier()
        assert cluster.robustness.recoveries == 1
        assert 1 in group.recovered_nodes
        count = rep_a.num_objects
        cluster.barrier()
        assert cluster.robustness.recoveries == 1
        assert rep_a.num_objects == count

    def test_bad_detector_parameters_rejected(self):
        cluster = tiny_cluster()
        with pytest.raises(ValueError):
            cluster.enable_self_healing(interval=0.0)
        with pytest.raises(ValueError):
            cluster.enable_self_healing(miss_threshold=0)


class TestScanFailover:
    def test_scan_heals_after_auto_recovery(self):
        cluster, group, rep_a, rep_b = build_replicated()
        cluster.enable_self_healing()
        cluster.nodes[1].fail()
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))
        assert cluster.robustness.recoveries == 1
        assert cluster.robustness.failovers >= 1

    def test_scan_fails_over_to_fully_live_member(self):
        """No detector, no recovery: the read service switches to a replica
        whose shards are all alive."""
        cluster, group, rep_a, rep_b = build_replicated(nodes_b=[1, 2, 3])
        cluster.nodes[0].fail()
        assert 0 in rep_a.shards and 0 not in rep_b.shards
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))
        assert cluster.robustness.failovers >= 1

    def test_scan_without_replica_raises_with_node_and_set(self):
        cluster = tiny_cluster(num_nodes=3)
        lone = cluster.create_set("orders", page_size=1 * MB, object_bytes=100)
        lone.add_data([{"id": i} for i in range(60)])
        cluster.nodes[2].fail()
        with pytest.raises(NodeFailedError) as excinfo:
            list(lone.scan_records())
        assert excinfo.value.node_id == 2
        assert excinfo.value.set_name == "orders"
        assert "node 2" in str(excinfo.value)
        assert "'orders'" in str(excinfo.value)

    def test_worker_pool_fails_over_without_double_counting(self):
        """The compute layer resolves through the same failover path as a
        scan: after auto-recovery the crashed node's orphaned in-memory
        pages must not be read *in addition to* the re-dispatched copies."""
        from repro.compute import WavesOfTasks, WorkerPool

        cluster, group, rep_a, rep_b = build_replicated()
        cluster.enable_self_healing()
        expected = sum(r["id"] for r in rep_a.scan_records())
        cluster.nodes[1].fail()
        result = WorkerPool(cluster, workers_per_node=4).run_stage(
            rep_a, page_fn=lambda p: sum(r["id"] for r in p.records)
        )
        assert sum(sum(v) for v in result.per_node.values()) == expected
        assert 1 not in result.per_node
        waves = WavesOfTasks(cluster).run_stage(
            rep_a, page_fn=lambda p: sum(r["id"] for r in p.records)
        )
        assert sum(sum(v) for v in waves.per_node.values()) == expected
        assert cluster.robustness.recoveries == 1

    def test_shard_iterators_raise_by_default_and_skip_on_request(self):
        cluster = tiny_cluster(num_nodes=2)
        data = cluster.create_set("d", page_size=1 * MB, object_bytes=100)
        data.add_data([{"id": i} for i in range(20)])
        shard = data.shards[0]
        cluster.nodes[0].fail()
        with pytest.raises(NodeFailedError) as excinfo:
            make_shard_iterators(shard)
        assert excinfo.value.node_id == 0
        assert excinfo.value.set_name == "d"
        assert make_shard_iterators(shard, on_failure="skip") == []
        with pytest.raises(ValueError):
            make_shard_iterators(shard, on_failure="ignore")
