"""Seeded end-to-end chaos test (this PR's acceptance scenario).

One simulated TPC-H-style job runs under transient disk/network faults,
with one deliberately corrupted page image and one node crash mid-scan.
The replicated scan must return correct results at every stage, the
robustness counters must show the stack actually healed (retries,
read-repair, one automatic recovery), and replaying the same seed must
reproduce the identical fault schedule and statistics.  A second job
runs a repartition join plus aggregation through the query scheduler
under the same kind of transient faults: its rows must equal a
fault-free run's, and a replay must reproduce it bit for bit.  Further
jobs recover a three-member group under the same faults, crash a node at
the ``mid-write`` point while a replicated TPC-H table is partitioned,
make a group with one corrupted disk image safe against two failures, and
shuffle through write-combining virtual buffers into a pool that spills.

The seed comes from ``PANGEA_FAULT_SEED`` so CI can sweep a matrix of
schedules; any failure is reproducible locally by exporting the seed.
"""

import os
import random
from collections import Counter

import pytest

from repro import FaultConfig, FaultInjector, MachineProfile, PangeaCluster
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.recovery import recover_node
from repro.placement.replication import register_replica
from repro.placement.rsafety import ensure_r_safety, object_node_spread
from repro.query.operators import ScanNode
from repro.query.scheduler import QueryScheduler
from repro.services.sequential import NodeFailedError
from repro.services.shuffle import ShuffleService
from repro.sim.devices import KB, MB
from repro.sim.metrics import aggregate_robustness
from repro.tpch import TpchGenerator
from repro.tpch.schema import ROW_BYTES

SEED = int(os.environ.get("PANGEA_FAULT_SEED", "20260805"))
ROWS = 600
QUERY_ROWS = 4000
SHUFFLE_ROWS = 1500
RATE_FAULTS = FaultConfig(
    disk_read_error_rate=0.08,
    disk_write_error_rate=0.08,
    disk_latency_spike_rate=0.05,
    net_drop_rate=0.08,
    net_slow_rate=0.05,
)


def run_chaos(seed):
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB)
    )
    cluster.enable_self_healing()
    injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)

    # A lineitem-style slice, loaded and partitioned two ways under
    # transient faults (every write/transfer below may be retried).
    rows = [
        {
            "id": i,
            "orderkey": i // 4,
            "suppkey": (i * 131) % 997,
            "qty": (i % 50) + 1,
        }
        for i in range(ROWS)
    ]
    src = cluster.create_set("lineitem", page_size=1 * MB, object_bytes=100)
    src.add_data(rows)
    rep_a = cluster.create_set("li_by_order", page_size=1 * MB, object_bytes=100)
    partition_set(
        src, rep_a, HashPartitioner(lambda r: r["orderkey"], 16, key_name="orderkey")
    )
    rep_b = cluster.create_set("li_by_supp", page_size=1 * MB, object_bytes=100)
    partition_set(
        src, rep_b, HashPartitioner(lambda r: r["suppkey"], 16, key_name="suppkey")
    )
    register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])

    # Spill the scan target so the job reads real (fault-prone) disk
    # images, then corrupt one of them.
    for node_id in sorted(rep_a.shards):
        shard = rep_a.shards[node_id]
        for page in shard.resident_unpinned_pages():
            shard.evict_page(page)
    victim = rep_a.shards[1]
    injector.corrupt_page(victim, victim.pages[0].page_id)

    expected_ids = list(range(ROWS))
    expected_qty = sum(r["qty"] for r in rows)

    def scan():
        ids, qty = [], 0
        for record in rep_a.scan_records():
            ids.append(record["id"])
            qty += record["qty"]
        return sorted(ids), qty

    # Stage 1: scan under transient faults; the corrupted image is
    # detected and read-repaired from the surviving replica.
    assert scan() == (expected_ids, expected_qty)

    # Stage 2: node 2 crashes mid-scan; the in-flight job still finishes.
    injector.schedule_crash("mid-scan", node_id=2, at_count=1)
    assert scan() == (expected_ids, expected_qty)
    assert cluster.nodes[2].failed

    # Stage 3: the detector notices the crash, auto-recovery re-dispatches
    # the lost shard, and the scan fails over transparently.
    assert scan() == (expected_ids, expected_qty)
    assert cluster.nodes[2].failed  # the node itself stays dead; data healed

    return (
        aggregate_robustness(cluster).as_dict(),
        injector.stats.as_dict(),
        round(cluster.simulated_seconds(), 9),
    )


def run_query_chaos(seed):
    """A repartition join + aggregation; ``seed=None`` runs fault-free."""
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.tiny(pool_bytes=64 * MB)
    )
    injector = None
    if seed is not None:
        injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)
    orders = cluster.create_set("orders", page_size=4 * KB, object_bytes=100)
    orders.add_data(
        [{"orderkey": i, "cust": i % 13} for i in range(QUERY_ROWS // 4)]
    )
    lineitem = cluster.create_set("lineitem", page_size=4 * KB, object_bytes=100)
    lineitem.add_data(
        [{"id": i, "orderkey": i // 4, "qty": (i % 50) + 1} for i in range(QUERY_ROWS)]
    )
    # Spill both inputs so the scans read fault-prone disk images.
    for dataset in (orders, lineitem):
        for shard in dataset.shards.values():
            for page in shard.resident_unpinned_pages():
                shard.evict_page(page)
    plan = (
        ScanNode("lineitem")
        .join(
            ScanNode("orders"),
            left_key=lambda r: r["orderkey"],
            right_key=lambda r: r["orderkey"],
            merge=lambda l, r: {**l, "cust": r["cust"]},
        )
        .aggregate(
            key_fn=lambda r: r["cust"],
            seed_fn=lambda r: r["qty"],
            merge_fn=lambda a, b: a + b,
            final_fn=lambda k, acc: {"cust": k, "qty": acc},
        )
    )
    scheduler = QueryScheduler(cluster, broadcast_threshold=0, object_bytes=100)
    rows = scheduler.execute(plan)
    return {
        "rows": rows,
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "decisions": scheduler.metrics.decision_counters(),
        "batches": scheduler.metrics.batches_processed,
        "robustness": aggregate_robustness(cluster).as_dict(),
        "injected": None if injector is None else injector.stats.as_dict(),
    }


def run_recovery_chaos(seed):
    """Load, partition and recover a three-member group under rate faults.

    Returns every member's id counts after node 1 is recovered, with the
    clocks and fault statistics for the replay check.
    """
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB)
    )
    injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)
    src = cluster.create_set("lineitem", page_size=64 * KB, object_bytes=100)
    src.add_data(
        [{"id": i, "orderkey": i // 4, "suppkey": (i * 131) % 997} for i in range(ROWS)]
    )
    group = None
    for key in ("orderkey", "suppkey"):
        replica = cluster.create_set(f"li_by_{key}", page_size=64 * KB, object_bytes=100)
        partition_set(src, replica, HashPartitioner(lambda r, k=key: r[k], 16, key_name=key))
        group = register_replica(src, replica, object_id_fn=lambda r: r["id"], group=group)
    report = recover_node(cluster, group, failed_node=1)
    counts = {
        member.name: Counter(record["id"] for record in member.scan_records())
        for member in group.members
    }
    return {
        "counts": counts,
        "recovered": report.objects_recovered,
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "injected": injector.stats.as_dict(),
    }


def run_partition_crash_chaos(seed):
    """Partition a replicated TPC-H lineitem while a node crashes mid-write.

    lineitem is loaded and replicated by ``l_orderkey`` under the rate
    faults; then a seed-chosen node is scheduled to crash at its next
    ``mid-write`` point, and a second replica is partitioned by
    ``l_partkey``.  Returns the crash, the target's page layout and the
    clocks for the replay check.
    """
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB)
    )
    injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)

    def create(name):
        return cluster.create_set(
            name, durability="write-through", page_size=16 * KB,
            object_bytes=ROW_BYTES["lineitem"],
        )

    def object_id(row):
        return (row["l_orderkey"], row["l_linenumber"])

    src = create("lineitem")
    src.add_data(TpchGenerator(scale=0.0005, seed=7).lineitem())
    by_order = create("lineitem_by_l_orderkey")
    partition_set(
        src, by_order, HashPartitioner(lambda r: r["l_orderkey"], 16, key_name="l_orderkey")
    )
    register_replica(src, by_order, object_id_fn=object_id)
    crash_node = random.Random(seed).randrange(cluster.num_nodes)
    injector.schedule_crash("mid-write", node_id=crash_node, at_count=1)
    by_part = create("lineitem_by_l_partkey")
    with pytest.raises(NodeFailedError) as raised:
        partition_set(
            src, by_part, HashPartitioner(lambda r: r["l_partkey"], 16, key_name="l_partkey")
        )
    layout = {
        node_id: [
            (page.page_id, [object_id(row) for row in page.records], page.sealed)
            for page in shard.pages
        ]
        for node_id, shard in by_part.shards.items()
    }
    return {
        "crash_node": crash_node,
        "raised": (raised.value.node_id, raised.value.set_name),
        "layout": layout,
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "injected": injector.stats.as_dict(),
    }


def run_r_safety_chaos(seed):
    """Make a group 2-safe under rate faults after one image is corrupted.

    A randomly dispatched set and a partitioned replica are registered and
    spilled; one seed-chosen evicted image is corrupted; then
    ``ensure_r_safety(r=2)`` runs.  Returns the ids of the first member's
    intact copies, each object's node spread, every set's page layout, and
    the clocks for the replay check.
    """
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.tiny(pool_bytes=32 * MB)
    )
    injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)
    src = cluster.create_set("lineitem", page_size=4 * KB, object_bytes=100)
    src.add_data([{"id": i, "orderkey": i // 4} for i in range(ROWS)])
    by_order = cluster.create_set("li_by_orderkey", page_size=4 * KB, object_bytes=100)
    partition_set(
        src, by_order, HashPartitioner(lambda r: r["orderkey"], 16, key_name="orderkey")
    )
    group = register_replica(src, by_order, object_id_fn=lambda r: r["id"])
    for member in group.members:
        for shard in member.shards.values():
            for page in shard.resident_unpinned_pages():
                shard.evict_page(page)
    evicted = [
        (shard, page)
        for member in group.members
        for shard in member.shards.values()
        for page in shard.pages
        if page.on_disk and not page.records
    ]
    shard, page = random.Random(seed).choice(evicted)
    injector.corrupt_page(shard, page.page_id)

    ensure_r_safety(cluster, group, r=2)

    sets = [*group.members, group.colliding_set, *group.extra_safety_sets]
    layout = {
        dataset.name: [
            (node_id, page.page_id, page.on_disk,
             [record["id"] for record in shard.stored_records(page)])
            for node_id, shard in sorted(dataset.shards.items())
            for page in shard.pages
        ]
        for dataset in sets
        if dataset is not None
    }
    return {
        "first_member_ids": {
            record["id"]
            for shard in src.shards.values()
            for page in shard.pages
            for record in shard.stored_records(page)
        },
        "spread": object_node_spread(group),
        "layout": layout,
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "injected": injector.stats.as_dict(),
    }


def run_shuffle_chaos(seed):
    """Shuffle four writers' records into four partitions under rate faults.

    Two nodes each home two partitions and run two writers, so every
    writer is remote from half its partitions; 600 KB of output spills a
    256 KB pool.  Writers 0 and 1 use ``write_batch``, writers 2 and 3
    ``add_object``.  Returns what was written and read back per partition,
    the page layouts, disk bytes and clocks for the replay check.
    """
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=256 * KB)
    )
    injector = FaultInjector(seed=seed, config=RATE_FAULTS).attach(cluster)
    service = ShuffleService(
        cluster, "shuffle", num_partitions=4, page_size=16 * KB,
        small_page_size=4 * KB, object_bytes=100,
    )
    rng = random.Random(seed)
    written = [Counter() for _ in range(4)]
    for worker in range(4):
        node = cluster.nodes[worker % 2]
        records = [(worker, i) for i in range(SHUFFLE_ROWS)]
        partitions = [rng.randrange(4) for _ in records]
        for record, partition in zip(records, partitions):
            written[partition][record] += 1
        if worker < 2:
            service.write_batch(worker, records, partitions, worker_node=node)
        else:
            for record, partition in zip(records, partitions):
                service.buffer_for(worker, partition, worker_node=node).add_object(record)
    service.finish_writing()
    evictions = [node.pool.stats.evictions for node in cluster.nodes]
    read = [Counter(service.partition_set(p).scan_records()) for p in range(4)]
    layout = [
        [
            (node_id, page.page_id, page.on_disk, list(shard.stored_records(page)))
            for node_id, shard in sorted(dataset.shards.items())
            for page in shard.pages
        ]
        for dataset in service.partition_sets
    ]
    return {
        "written": written,
        "read": read,
        "evictions": evictions,
        "layout": layout,
        "disk": [node.disks.total_bytes_written() for node in cluster.nodes],
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "injected": injector.stats.as_dict(),
    }


class TestChaos:
    def test_chaos_job_survives_and_heals(self):
        stats, injected, _seconds = run_chaos(SEED)
        assert stats["retries"] >= 1
        assert stats["corruptions_detected"] >= 1
        assert stats["read_repairs"] >= 1
        assert stats["failovers"] >= 1
        assert stats["recoveries"] == 1
        assert injected["crashes"] == 1
        assert injected["corruptions_injected"] == 1

    def test_chaos_replay_is_bit_identical(self):
        assert run_chaos(SEED) == run_chaos(SEED)

    def test_query_under_faults_matches_fault_free_run(self):
        faulty = run_query_chaos(SEED)
        clean = run_query_chaos(None)
        assert faulty["rows"] == clean["rows"]
        assert sum(row["qty"] for row in faulty["rows"]) == sum(
            (i % 50) + 1 for i in range(QUERY_ROWS)
        )
        assert faulty["decisions"]["repartition_joins"] == 1
        assert faulty["batches"] > 0
        assert faulty["robustness"]["retries"] >= 1
        assert faulty["injected"]["disk_read_faults"] >= 1

    def test_query_chaos_replay_is_bit_identical(self):
        assert run_query_chaos(SEED) == run_query_chaos(SEED)

    def test_three_member_recovery_under_faults_is_complete(self):
        result = run_recovery_chaos(SEED)
        assert len(result["counts"]) == 3
        for name, counts in result["counts"].items():
            assert set(counts) == set(range(ROWS)), name
            assert set(counts.values()) == {1}, name
        assert result["recovered"] > 0
        injected = result["injected"]
        assert injected["disk_write_faults"] + injected["net_drops"] >= 1

    def test_three_member_recovery_replay_is_bit_identical(self):
        assert run_recovery_chaos(SEED) == run_recovery_chaos(SEED)

    def test_mid_write_crash_during_partition_set_raises(self):
        result = run_partition_crash_chaos(SEED)
        crash_node = result["crash_node"]
        assert result["raised"] == (crash_node, "lineitem_by_l_partkey")
        assert result["injected"]["crashes"] == 1
        # The crash hit the seal of the node's first full page: that page
        # is sealed and holds records, and no later page was pinned.
        pages = result["layout"][crash_node]
        assert len(pages) == 1 and pages[0][1] and pages[0][2]

    def test_mid_write_crash_replay_is_bit_identical(self):
        assert run_partition_crash_chaos(SEED) == run_partition_crash_chaos(SEED)

    def test_r_safety_with_a_corrupt_image_completes(self):
        result = run_r_safety_chaos(SEED)
        assert result["injected"]["corruptions_injected"] == 1
        assert result["first_member_ids"]
        spread = result["spread"]
        assert all(len(spread[oid]) >= 3 for oid in result["first_member_ids"])
        assert "__rsafety_group1_r2" in result["layout"]

    def test_r_safety_chaos_replay_is_bit_identical(self):
        assert run_r_safety_chaos(SEED) == run_r_safety_chaos(SEED)

    def test_shuffle_under_faults_reads_back_what_was_written(self):
        result = run_shuffle_chaos(SEED)
        assert result["read"] == result["written"]
        assert sum(sum(counts.values()) for counts in result["read"]) == 4 * SHUFFLE_ROWS
        assert all(evictions > 0 for evictions in result["evictions"])
        injected = result["injected"]
        assert injected["net_drops"] + injected["disk_write_faults"] >= 1

    def test_shuffle_chaos_replay_is_bit_identical(self):
        assert run_shuffle_chaos(SEED) == run_shuffle_chaos(SEED)
