"""Tests for node-failure recovery from heterogeneous replicas."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.services.sequential import SequentialWriter
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.recovery import recover_node
from repro.placement.replication import register_replica
from repro.sim.devices import KB, MB


def build(num_nodes=4, rows=800):
    cluster = PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=32 * MB)
    )
    src = cluster.create_set("src", page_size=1 * MB, object_bytes=100)
    src.add_data([{"a": i, "b": (i * 131) % 997, "id": i} for i in range(rows)])
    rep_a = cluster.create_set("rep_a", page_size=1 * MB, object_bytes=100)
    partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
    rep_b = cluster.create_set("rep_b", page_size=1 * MB, object_bytes=100)
    partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
    group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
    return cluster, group, src, rep_a, rep_b


def surviving_ids(dataset, failed_node):
    ids = set()
    for node_id, shard in dataset.shards.items():
        if node_id == failed_node:
            continue
        for page in shard.pages:
            records = page.records
            if not records and page.on_disk:
                records = shard.file.peek_records(page.page_id)
            for record in records:
                ids.add(record["id"])
    return ids


class TestRecovery:
    def test_all_replicas_complete_after_recovery(self):
        cluster, group, src, rep_a, rep_b = build()
        report = recover_node(cluster, group, failed_node=1)
        everything = set(range(800))
        assert surviving_ids(rep_a, 1) == everything
        assert surviving_ids(rep_b, 1) == everything
        assert report.objects_recovered > 0

    def test_recovery_latency_positive_and_reported(self):
        cluster, group, *_ = build()
        report = recover_node(cluster, group, failed_node=0)
        assert report.seconds > 0
        assert report.failed_node == 0

    def test_colliding_objects_recovered_from_safety_set(self):
        cluster, group, src, rep_a, rep_b = build()
        lost_colliding = {
            oid for oid, home in group.colliding_home.items() if home == 2
        }
        report = recover_node(cluster, group, failed_node=2)
        assert report.colliding_recovered == len(lost_colliding)
        assert surviving_ids(rep_a, 2) == set(range(800))

    def test_recovered_data_lands_on_survivors_only(self):
        cluster, group, src, rep_a, rep_b = build()
        recover_node(cluster, group, failed_node=3)
        # No new pages were created on the failed node.
        failed_pages_a = len(rep_a.shards[3].pages)
        recover_node  # noqa: B018 - silence lint on unused reference
        assert all(
            record["id"] in set(range(800))
            for page in rep_a.shards[3].pages
            for record in page.records
        )
        assert failed_pages_a == len(rep_a.shards[3].pages)

    def test_recovery_charges_network(self):
        cluster, group, *_ = build()
        before = sum(n.network.stats.bytes_sent for n in cluster.nodes)
        recover_node(cluster, group, failed_node=1)
        after = sum(n.network.stats.bytes_sent for n in cluster.nodes)
        assert after > before

    def test_single_member_group_cannot_recover(self):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )
        src = cluster.create_set("only", page_size=1 * MB, object_bytes=100)
        src.add_data([{"id": i} for i in range(10)])
        from repro.placement.replication import ReplicationGroup

        group = ReplicationGroup(members=[src], object_id_fn=lambda r: r["id"])
        with pytest.raises(ValueError):
            recover_node(cluster, group, failed_node=0)

    def test_missing_object_id_fn_rejected(self):
        cluster, group, *_ = build()
        group.object_id_fn = None
        with pytest.raises(ValueError):
            recover_node(cluster, group, failed_node=0)

    def test_larger_cluster_fewer_colliding(self):
        """The paper's trend: colliding ratio declines with node count."""
        _c4, group4, *_ = build(num_nodes=4)
        _c8, group8, *_ = build(num_nodes=8)
        ratio4 = group4.num_colliding / 800
        ratio8 = group8.num_colliding / 800
        assert ratio8 < ratio4


class TestRecoveryEdgeCases:
    def test_recover_node_twice_is_idempotent(self):
        cluster, group, src, rep_a, rep_b = build()
        first = recover_node(cluster, group, failed_node=1)
        assert first.objects_recovered > 0
        assert 1 in group.recovered_nodes
        counts_after_first = {
            name: cluster.get_set(name).num_objects for name in ("rep_a", "rep_b")
        }
        second = recover_node(cluster, group, failed_node=1)
        # The second call is a no-op: nothing re-dispatched, no duplicates.
        assert second.objects_recovered == 0
        assert second.seconds == 0
        for name, count in counts_after_first.items():
            assert cluster.get_set(name).num_objects == count
        assert surviving_ids(rep_a, 1) == set(range(800))

    def test_two_randomly_dispatched_members_recover(self):
        """Neither member has a partitioner: recovery must fall back to the
        lost-id metadata scan for both directions."""
        cluster = PangeaCluster(
            num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB)
        )
        records = [{"id": i, "v": i * 7} for i in range(400)]
        rep_a = cluster.create_set("ra", page_size=1 * MB, object_bytes=100)
        rep_a.add_data(records)
        rep_b = cluster.create_set("rb", page_size=1 * MB, object_bytes=100)
        rep_b.add_data(records)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        assert rep_a.partitioner is None and rep_b.partitioner is None
        report = recover_node(cluster, group, failed_node=2)
        assert report.objects_recovered > 0
        assert surviving_ids(rep_a, 2) == set(range(400))
        assert surviving_ids(rep_b, 2) == set(range(400))

    def test_recovery_near_full_pool_does_not_deadlock(self):
        """Re-dispatched writes land while the survivors' pools are nearly
        full; bounded eviction must keep making room instead of
        livelocking or raising."""
        cluster = PangeaCluster(
            num_nodes=3, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        records = [{"id": i, "v": i} for i in range(900)]
        rep_a = cluster.create_set("ra", page_size=1 * MB, object_bytes=1000)
        rep_a.add_data(records)
        rep_b = cluster.create_set("rb", page_size=1 * MB, object_bytes=1000)
        rep_b.add_data(records)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        for node in cluster.nodes:
            assert node.pool.used_bytes > 0
        report = recover_node(cluster, group, failed_node=0)
        assert report.objects_recovered > 0
        assert surviving_ids(rep_a, 0) == set(range(900))
        for node in cluster.nodes[1:]:  # the survivors
            node.pool.check_invariants()

    def test_colliding_writers_attach_first_and_retire_member_by_member(
        self, monkeypatch
    ):
        """Colliding recovery writes every member at once: all members'
        writers attach before the safety-set scan, and on exit the members
        flush and close front to back (the order the fault RNG sees)."""
        cluster, group, src, rep_a, rep_b = build()
        calls = []
        for name in ("attach", "flush", "close"):
            original = getattr(SequentialWriter, name)

            def spy(self, _name=name, _original=original):
                calls.append((_name, self.shard.dataset.name, self.shard.node.node_id))
                return _original(self)

            monkeypatch.setattr(SequentialWriter, name, spy)
        report = recover_node(cluster, group, failed_node=2)
        assert report.colliding_recovered > 0
        # The colliding pass is the last group of writer calls: one attach,
        # flush and close per member and survivor.
        tail = calls[-18:]
        assert {name for name, _set, _node in tail[:6]} == {"attach"}
        assert tail[6:] == [
            (op, member, node)
            for member in ("rep_a", "rep_b")
            for node in (0, 1, 3)
            for op in ("flush", "close")
        ]


    @pytest.mark.parametrize("failed_node", [1, 2])
    def test_corrupt_image_on_failed_node_is_recovered_from_its_index(self, failed_node):
        """A randomly dispatched member's lost ids come from page images; a
        corrupt image on the failed node contributes its indexed ids, so
        none of its objects is dropped."""
        cluster = PangeaCluster(
            num_nodes=4, profile=MachineProfile.tiny(pool_bytes=256 * KB)
        )
        src = cluster.create_set(
            "src", durability="write-back", page_size=16 * KB, object_bytes=256
        )
        src.add_data([{"id": i, "a": i // 3} for i in range(1600)])
        rep_a = cluster.create_set("rep_a", page_size=16 * KB, object_bytes=256)
        partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
        shard = src.shards[failed_node]
        victim = shard.pages[0]
        shard.evict_page(victim)
        # Registration indexes the evicted image; then it is corrupted.
        group = register_replica(src, rep_a, object_id_fn=lambda r: r["id"])
        shard.file.corrupt_image(victim.page_id)

        recover_node(cluster, group, failed_node=failed_node)

        assert surviving_ids(src, failed_node) == set(range(1600))
        assert surviving_ids(rep_a, failed_node) == set(range(1600))


class TestLostRecordFilters:
    """Recovery's page filters name each lost record with its object id,
    computing every scanned record's id at most once."""

    @staticmethod
    def counting_id_fn():
        calls = []

        def object_id(record):
            calls.append(record["id"])
            return record["id"]

        return object_id, calls

    def test_by_partition_filter_computes_only_lost_ids(self):
        from repro.placement.recovery import _lost_test

        cluster, group, _src, rep_a, _rep_b = build()
        object_id, calls = self.counting_id_fn()
        records = [{"a": i, "b": i, "id": i} for i in range(64)]
        lost = _lost_test(rep_a, 1, None, object_id)(records)
        partitions = rep_a.partitioner.partition_many(records)
        node_ids = sorted(rep_a.shards)
        want = [i for i, p in enumerate(partitions) if node_ids[p % len(node_ids)] == 1]
        assert want and lost == [(i, records[i]) for i in want]
        assert calls == want

    def test_by_id_recovery_computes_each_id_once_per_pass(self):
        """Both members randomly dispatched (the by-id path both ways), no
        colliding objects: the id function runs once per record of each
        pass that reads it, not again for the records found lost."""
        cluster = PangeaCluster(
            num_nodes=3, profile=MachineProfile.tiny(pool_bytes=32 * MB)
        )
        rep_a = cluster.create_set("ra", page_size=1 * MB, object_bytes=100)
        rep_a.add_data([{"id": i} for i in range(300)])
        rep_b = cluster.create_set("rb", page_size=1 * MB, object_bytes=100)
        # Rotated by one, so no object has both copies on one node.
        rep_b.add_data([{"id": (i + 1) % 300} for i in range(300)])
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        assert group.colliding_set is None
        object_id, calls = self.counting_id_fn()
        group.object_id_fn = object_id
        report = recover_node(cluster, group, failed_node=1)
        (_, into_a), (_, into_b) = report.replicas_recovered
        # Each member is read whole once (its lost ids on the failed node,
        # its survivors as the other's source); rep_a is read after it
        # took its recovered records; each recovered page is indexed once.
        assert len(calls) == 300 + 300 + into_a + (into_a + into_b)
        for member in (rep_a, rep_b):
            ids = [record["id"] for node_id, shard in member.shards.items()
                   if node_id != 1 for page in shard.pages for record in page.records]
            assert sorted(ids) == list(range(300))
