"""Golden results of the placement layer, pinned as data.

``tests/golden/placement.json`` holds, for every case in :data:`CASES`,
what one placement workload did to a small cluster whose pool is small
enough to spill, so recovery and safety scans meet evicted pages and read
their disk images:

* every node's simulated clock as ``float.hex`` (exact float equality),
* per-node network bytes sent and disk bytes read/written,
* per-node pool evictions and page-ins,
* one SHA-256 layout digest per set over ``(node, page_id, on_disk,
  repr of each record)`` in page order (safety sets included),
* the colliding-id count of every replication group,
* the fields of the workload's report, and
* the type of the exception a workload raised.

The cases cover random, hash and partitioner dispatch, ``partition_set``,
``register_replica`` on two- and three-member groups, ``ensure_r_safety``,
``recover_node`` (partitioned and randomly dispatched targets),
``recover_concurrent_failures``, a scheduled ``mid-recovery`` crash and one
rate-fault seed.

To re-baseline after a deliberate change to placement, run
``PYTHONPATH=src python tests/test_placement_golden.py`` and say why in the
change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from collections import Counter
from pathlib import Path

import pytest

from repro import MachineProfile, PangeaCluster
from repro.placement import (
    HashPartitioner,
    ensure_r_safety,
    partition_set,
    recover_concurrent_failures,
    recover_node,
    register_replica,
)
from repro.services.dispatcher import Dispatcher
from repro.sim.devices import KB
from repro.sim.faults import FaultConfig, FaultInjector

GOLDEN = Path(__file__).parent / "golden" / "placement.json"

ROWS = 1600
PAGE = 16 * KB
OBJECT_BYTES = 256
#: 16 pages per node: every case below holds several times that, so the
#: pool spills and placement meets on-disk pages with no resident records.
POOL = 256 * KB

RATE_FAULTS = FaultConfig(
    disk_read_error_rate=0.05,
    disk_write_error_rate=0.05,
    disk_latency_spike_rate=0.05,
    net_drop_rate=0.05,
    net_slow_rate=0.05,
)


def rows():
    return [
        {"id": i, "a": i // 3, "b": (i * 131) % 997, "c": (i * 17) % 89}
        for i in range(ROWS)
    ]


def object_id(record):
    return record["id"]


def make_cluster(num_nodes=4):
    return PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=POOL)
    )


def create(cluster, name, durability="write-through"):
    return cluster.create_set(
        name, durability=durability, page_size=PAGE, object_bytes=OBJECT_BYTES
    )


def load_source(cluster):
    """The randomly dispatched base set (write-back, so eviction flushes)."""
    src = create(cluster, "src", durability="write-back")
    src.add_data(rows())
    return src


def replica(cluster, src, name, key):
    target = create(cluster, name)
    partition_set(src, target, HashPartitioner(lambda r: r[key], 16, key_name=key))
    return target


def two_members(cluster):
    """Two partitioned replicas of ``src`` in one group."""
    src = load_source(cluster)
    rep_a = replica(cluster, src, "rep_a", "a")
    rep_b = replica(cluster, src, "rep_b", "b")
    return register_replica(rep_a, rep_b, object_id_fn=object_id)


def random_and_partitioned(cluster):
    """``src`` (randomly dispatched) and one partitioned replica."""
    src = load_source(cluster)
    rep_a = replica(cluster, src, "rep_a", "a")
    return register_replica(src, rep_a, object_id_fn=object_id)


def three_members(cluster):
    """``src`` plus two partitioned replicas: the TPC-H lineitem shape."""
    src = load_source(cluster)
    rep_a = replica(cluster, src, "rep_a", "a")
    rep_b = replica(cluster, src, "rep_b", "b")
    group = register_replica(src, rep_a, object_id_fn=object_id)
    return register_replica(src, rep_b, object_id_fn=object_id, group=group)


def three_partitioned(cluster):
    """Three partitioned replicas of ``src`` in one group."""
    src = load_source(cluster)
    reps = [replica(cluster, src, f"rep_{key}", key) for key in ("a", "b", "c")]
    group = register_replica(reps[0], reps[1], object_id_fn=object_id)
    return register_replica(reps[0], reps[2], object_id_fn=object_id, group=group)


def import_report(report):
    return {
        "records": report.records,
        "bytes": report.bytes,
        "seconds": report.seconds.hex(),
        "per_node": sorted(report.per_node.items()),
    }


def recovery_report(report):
    fields = dataclasses.asdict(report)
    fields["seconds"] = report.seconds.hex()
    fields["replicas_recovered"] = [list(entry) for entry in report.replicas_recovered]
    return fields


def group_report(group):
    return {
        "members": [member.name for member in group.members],
        "colliding": group.num_colliding,
        "colliding_set": None if group.colliding_set is None else group.colliding_set.name,
    }


def dispatch(policy, key_fn=None):
    def run(cluster):
        dataset = create(cluster, "imported")
        dispatcher = Dispatcher(dataset, policy=policy, key_fn=key_fn, batch_bytes=32 * KB)
        report = import_report(dispatcher.import_data(rows()))
        scheme = dataset.partition_scheme
        report["scheme"] = None if scheme is None else dataclasses.asdict(scheme)
        return report

    return run


def run_partition_set(cluster):
    src = load_source(cluster)
    replica(cluster, src, "rep_a", "a")
    rep_c = replica(cluster, src, "rep_c", "c")
    return {"scheme": dataclasses.asdict(rep_c.partition_scheme)}


def run_register(build):
    def run(cluster):
        return group_report(build(cluster))

    return run


def run_r_safety(cluster):
    group = two_members(cluster)
    safety = ensure_r_safety(cluster, group, r=2)
    return {"safety": None if safety is None else safety.name, **group_report(group)}


def run_recover(build, failed_node):
    def run(cluster):
        group = build(cluster)
        return recovery_report(recover_node(cluster, group, failed_node=failed_node))

    return run


def run_concurrent(cluster):
    group = two_members(cluster)
    ensure_r_safety(cluster, group, r=2)
    report = recover_concurrent_failures(cluster, group, failed_nodes=[1, 3])
    return {**report, "seconds": report["seconds"].hex()}


@dataclasses.dataclass(frozen=True)
class Case:
    """One placement workload, optionally under faults or a crash."""

    #: ``cluster -> report dict``.
    run: typing.Callable
    num_nodes: int = 4
    #: Attach a FaultInjector with this config (or with a crash schedule).
    faults: "FaultConfig | None" = None
    seed: int = 0
    #: ``(point, node_id, at_count)`` for ``schedule_crash``, armed after
    #: ``setup`` so the crash lands inside ``run``.
    crash: "tuple | None" = None
    setup: "typing.Callable | None" = None


def crash_run(cluster):
    group = cluster.manager.replica_groups()[0]
    return recovery_report(recover_node(cluster, group, failed_node=1))


CASES = {
    "dispatch_round_robin": Case(run=dispatch("round-robin")),
    "dispatch_hash": Case(run=dispatch("hash", key_fn=lambda r: r["b"])),
    "dispatch_partitioner": Case(
        run=dispatch(HashPartitioner(lambda r: r["c"], 16, key_name="c"))
    ),
    "partition_set_spilling": Case(run=run_partition_set),
    "register_replica_2": Case(run=run_register(two_members)),
    "register_replica_3": Case(run=run_register(three_members)),
    "ensure_r_safety_r2": Case(run=run_r_safety, num_nodes=5),
    "recover_node_2": Case(run=run_recover(two_members, failed_node=1)),
    "recover_node_2_random_target": Case(
        run=run_recover(random_and_partitioned, failed_node=2)
    ),
    "recover_node_3": Case(run=run_recover(three_members, failed_node=1)),
    "recover_node_3_partitioned": Case(run=run_recover(three_partitioned, failed_node=2)),
    "recover_concurrent_failures": Case(run=run_concurrent, num_nodes=5),
    "mid_recovery_crash": Case(
        run=crash_run, setup=two_members, crash=("mid-recovery", 2, 1)
    ),
    "rate_faults_seed7": Case(
        run=run_recover(two_members, failed_node=3), faults=RATE_FAULTS, seed=7
    ),
}


def stored_records(shard, page):
    """A page's records, else its disk image, read without charging I/O.

    Written out here rather than calling ``LocalShard.stored_records``, so
    the digest does not depend on the code it checks.
    """
    records = page.records
    if not records and page.on_disk:
        records = shard.file.peek_records(page.page_id)
    return records


def layout_digest(dataset) -> str:
    digest = hashlib.sha256()
    for node_id in sorted(dataset.shards):
        shard = dataset.shards[node_id]
        for page in shard.pages:
            records = stored_records(shard, page)
            digest.update(repr((node_id, page.page_id, page.on_disk)).encode())
            for record in records:
                digest.update(repr(record).encode())
    return digest.hexdigest()


def run_case(case: Case) -> tuple:
    """Run one case; returns ``(observation, cluster)``."""
    cluster = make_cluster(case.num_nodes)
    if case.setup is not None:
        case.setup(cluster)
    injector = None
    if case.faults is not None or case.crash is not None:
        injector = FaultInjector(seed=case.seed, config=case.faults).attach(cluster)
        if case.crash is not None:
            injector.schedule_crash(*case.crash)
    report, error = None, None
    try:
        report = case.run(cluster)
    except Exception as exc:  # noqa: BLE001 - the type is part of the capture
        error = type(exc).__name__
    nodes = cluster.nodes
    observed = {
        "clocks": [node.clock.now.hex() for node in nodes],
        "net_bytes_sent": [node.network.stats.bytes_sent for node in nodes],
        "disk_bytes": [
            [node.disks.total_bytes_read(), node.disks.total_bytes_written()]
            for node in nodes
        ],
        "pool": [[node.pool.stats.evictions, node.pool.stats.pageins] for node in nodes],
        "layout": {
            name: layout_digest(cluster.get_set(name))
            for name in cluster.manager.set_names()
        },
        "colliding": [group.num_colliding for group in cluster.manager.replica_groups()],
        "report": report,
        "faults": None if injector is None else injector.stats.as_dict(),
        "error": error,
    }
    # JSON round trip, so tuples compare equal to the fixture's lists.
    return json.loads(json.dumps(observed)), cluster


def capture_all() -> dict:
    return {name: run_case(case)[0] for name, case in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(golden, name):
    observed, _cluster = run_case(CASES[name])
    assert observed == golden[name]


def test_pool_spills_in_every_case(golden):
    # The fixture is only a check of both record views if pages really
    # left the pool (and some came back through a charged read).
    for name, observed in golden.items():
        if name.startswith("dispatch"):
            continue
        assert sum(evictions for evictions, _ in observed["pool"]) > 0, name
    assert sum(p for _, p in golden["recover_node_2"]["pool"]) > 0


def test_recover_node_restores_three_member_groups():
    """After recovery every member of a three-member group holds every id
    exactly once (no id lost with both a target and its first source)."""
    for build, failed_node in ((three_members, 1), (three_partitioned, 2)):
        cluster = make_cluster()
        group = build(cluster)
        recover_node(cluster, group, failed_node=failed_node)
        for member in group.members:
            ids = Counter(
                record["id"]
                for node_id, shard in member.shards.items()
                if node_id != failed_node
                for page in shard.pages
                for record in stored_records(shard, page)
            )
            assert set(ids) == set(range(ROWS)), member.name
            assert set(ids.values()) == {1}, member.name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
