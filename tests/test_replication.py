"""Tests for replication groups and colliding-object handling."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.core.locality_set import LocalShard
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import (
    expected_colliding_objects,
    expected_unsafe_ratio,
    register_replica,
)
from repro.sim.devices import MB

from .test_placement_golden import ROWS, load_source, make_cluster, object_id, replica


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB))


def build_two_replicas(cluster, rows=400):
    src = cluster.create_set("src", page_size=1 * MB, object_bytes=100)
    src.add_data([{"a": i, "b": (i * 131) % 997, "id": i} for i in range(rows)])
    rep_a = cluster.create_set("rep_a", page_size=1 * MB, object_bytes=100)
    partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
    rep_b = cluster.create_set("rep_b", page_size=1 * MB, object_bytes=100)
    partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
    return src, rep_a, rep_b


class TestEstimators:
    def test_expected_colliding_two_replicas(self):
        assert expected_colliding_objects(1000, 10) == pytest.approx(100.0)

    def test_expected_colliding_declines_with_nodes(self):
        assert expected_colliding_objects(1000, 30) < expected_colliding_objects(1000, 10)

    def test_expected_colliding_three_replicas(self):
        assert expected_colliding_objects(1000, 10, num_replicas=3) == pytest.approx(10.0)

    def test_expected_unsafe_ratio_formula(self):
        # k=10, r=1: 1 - (10*9)/100 = 0.1
        assert expected_unsafe_ratio(10, 1) == pytest.approx(0.1)

    def test_unsafe_ratio_is_one_when_failures_exceed_nodes(self):
        assert expected_unsafe_ratio(3, 3) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            expected_colliding_objects(10, 0)


class TestRegisterReplica:
    def test_group_contains_members(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        assert rep_a in group.members
        assert rep_b in group.members
        assert group.group_id is not None

    def test_members_share_group_id(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        assert rep_a.replica_group_id == rep_b.replica_group_id == group.group_id
        assert cluster.manager.replicas_of("rep_a") == group.members

    def test_extending_existing_group(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster)
        register_replica(src, rep_a, object_id_fn=lambda r: r["id"])
        group = register_replica(src, rep_b, object_id_fn=lambda r: r["id"])
        assert len(group.members) == 3

    def test_colliding_objects_detected(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        # Verify against a direct computation.
        def nodes_of(dataset):
            placement = {}
            for node_id, shard in dataset.shards.items():
                for page in shard.pages:
                    for record in page.records:
                        placement.setdefault(record["id"], set()).add(node_id)
            return placement
        a, b = nodes_of(rep_a), nodes_of(rep_b)
        expected = {
            oid for oid in a if len(a[oid] | b.get(oid, set())) == 1
        }
        assert group.colliding_ids == expected

    def test_colliding_set_created_and_placed_off_home(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        if not group.colliding_ids:
            pytest.skip("no colliding objects at this scale")
        safety = group.colliding_set
        assert safety is not None
        assert safety.num_objects == len(group.colliding_ids)
        # Each safety copy must live on a node other than the object's home.
        for node_id, shard in safety.shards.items():
            for page in shard.pages:
                for record in page.records:
                    assert group.colliding_home[record["id"]] != node_id

    def test_colliding_count_in_expected_range(self, cluster):
        src, rep_a, rep_b = build_two_replicas(cluster, rows=2000)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        expected = expected_colliding_objects(2000, 4)
        # Hash placement is not perfectly independent; allow a wide band.
        assert 0.2 * expected <= group.num_colliding <= 3.0 * expected

    def test_registration_reads_each_member_once(self):
        """The golden three-member group: each registration calls the id
        function once per member record, plus once per first-member record
        for the colliding samples.  The golden pool spills, so the second
        registration cannot reuse the first one's fold and re-reads all."""
        calls = 0

        def counting_id(record):
            nonlocal calls
            calls += 1
            return record["id"]

        cluster = make_cluster()
        src = load_source(cluster)
        rep_a = replica(cluster, src, "rep_a", "a")
        rep_b = replica(cluster, src, "rep_b", "b")
        group = register_replica(src, rep_a, object_id_fn=counting_id)
        assert group.colliding_ids
        assert calls == 3 * ROWS
        calls = 0
        register_replica(src, rep_b, object_id_fn=counting_id, group=group)
        assert group.colliding_ids
        assert calls == 4 * ROWS


def _resident_three_members(between, second_id_fn=None, refold=False):
    """Register ``src`` with ``rep_a``, apply ``between``, then add ``rep_b``.

    The pool holds every page, so the second registration may fold in
    ``rep_b`` alone.  ``refold`` drops the group's cached fold first, which
    makes the second registration re-read every member (the reference).
    Returns ``(group, observation, reads)``: ``reads`` counts the pages
    each set read during the second registration.
    """
    cluster = PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB))
    src = load_source(cluster)
    rep_a = replica(cluster, src, "rep_a", "a")
    rep_b = replica(cluster, src, "rep_b", "b")
    group = register_replica(src, rep_a, object_id_fn=object_id)
    between(src)
    if refold:
        group._fold = None
    reads: dict = {}
    read_records = LocalShard.read_records

    def counting_read(shard, page):
        reads[shard.dataset.name] = reads.get(shard.dataset.name, 0) + 1
        return read_records(shard, page)

    LocalShard.read_records = counting_read
    try:
        register_replica(src, rep_b, object_id_fn=second_id_fn or object_id, group=group)
    finally:
        LocalShard.read_records = read_records
    safety = group.colliding_set
    observation = {
        "colliding_home": list(group.colliding_home.items()),
        "safety_records": {
            node_id: [r for page in shard.pages for r in shard.stored_records(page)]
            for node_id, shard in sorted(safety.shards.items())
        },
        "page_image_ids": {
            member.name: [
                member.page_image_ids(node_id, page.page_id)
                for node_id, shard in sorted(member.shards.items())
                for page in shard.pages
            ]
            for member in group.members
        },
        "ticks": [node.clock.ticks for node in cluster.nodes],
        "disk_bytes": [
            (node.disks.total_bytes_read(), node.disks.total_bytes_written())
            for node in cluster.nodes
        ],
        "net_bytes_sent": [node.network.stats.bytes_sent for node in cluster.nodes],
    }
    return group, observation, reads


def _append_to_source(src):
    src.add_data([{"id": ROWS + i, "a": i, "b": i, "c": i} for i in range(100)])


def _evict_source(src):
    for shard in src.shards.values():
        shard.evict_pages(shard.resident_unpinned_pages())


class TestFoldJoiningMember:
    """A registration folds in only its new member when that is exact, and
    ends exactly where re-reading every member would."""

    @pytest.mark.parametrize(
        "between, second_id_fn, folds",
        [
            (lambda src: None, None, True),
            (_append_to_source, None, False),
            (_evict_source, None, False),
            (lambda src: None, lambda record: record["id"], False),
        ],
        ids=["unchanged", "appended", "evicted", "other_id_fn"],
    )
    def test_matches_a_full_reread(self, between, second_id_fn, folds):
        group, folded, reads = _resident_three_members(between, second_id_fn)
        _group, reference, ref_reads = _resident_three_members(
            between, second_id_fn, refold=True
        )
        assert group.colliding_ids
        assert folded == reference
        # A full re-read reads rep_a again; the fold skips it.
        assert ref_reads["rep_a"] > 0
        assert reads.get("rep_a", 0) == (0 if folds else ref_reads["rep_a"])

    def test_unchanged_members_are_not_reread(self):
        """The id/home pass of the second registration reads only rep_b;
        ``src`` is read once more, by the colliding-sample pass."""
        calls = 0

        def counting_id(record):
            nonlocal calls
            calls += 1
            return record["id"]

        cluster = PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB))
        src = load_source(cluster)
        rep_a = replica(cluster, src, "rep_a", "a")
        rep_b = replica(cluster, src, "rep_b", "b")
        group = register_replica(src, rep_a, object_id_fn=counting_id)
        assert group.colliding_ids
        assert calls == 3 * ROWS
        calls = 0
        register_replica(src, rep_b, object_id_fn=counting_id, group=group)
        assert group.colliding_ids
        assert calls == 2 * ROWS
