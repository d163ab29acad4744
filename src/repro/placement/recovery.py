"""Failure recovery from heterogeneous replicas (paper Sec. 7).

To recover a target replica after a node failure, the system picks any
other replica in the group as the source, runs the target's partitioner
over the source's surviving records to find the ones whose target copy
lived on the failed node, and re-dispatches them.  In groups of three or
more, records the target lost together with that source are found in the
remaining members.  Objects that were lost from *every* replica
(colliding objects) are recovered from the group's dedicated safety set.
"""

from __future__ import annotations

import contextlib
import typing
from dataclasses import dataclass, field

from repro.placement.replication import ids_lost_from, stable_index
from repro.services.sequential import ShardWriters, make_shard_iterators
from repro.sim.faults import fire_point

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet
    from repro.placement.replication import ReplicationGroup


@dataclass
class RecoveryReport:
    """What a recovery run did and how long it took (simulated)."""

    failed_node: int
    seconds: float = 0.0
    objects_recovered: int = 0
    colliding_recovered: int = 0
    bytes_transferred: int = 0
    replicas_recovered: list = field(default_factory=list)


def _lost_test(
    target: "LocalitySet",
    failed_node: int,
    lost_ids: "set | None",
    object_id_fn,
):
    """Page filter: the ``(object id, record)`` pairs of a page's records
    whose copy in ``target`` was on the failed node, in page order."""
    partitioner = target.partitioner
    if partitioner is not None:
        node_ids = sorted(target.shards)
        num_nodes = len(node_ids)
        lost_partitions = {
            partition for partition in range(partitioner.num_partitions)
            if node_ids[partition % num_nodes] == failed_node
        }

        def by_partition(records: list) -> "list[tuple]":
            return [
                (object_id_fn(record), record)
                for record, p in zip(records, partitioner.partition_many(records))
                if p in lost_partitions
            ]

        return by_partition
    # Randomly dispatched replica: fall back to the lost-id set.
    assert lost_ids is not None
    return _ids_in(lost_ids, object_id_fn)


def _ids_in(ids: set, object_id_fn):
    """Page filter: the ``(object id, record)`` pairs of a page's records
    whose object id is in ``ids``, in page order; each record's id is
    computed once."""

    def by_id(records: list) -> "list[tuple]":
        return [
            (object_id, record)
            for object_id, record in zip(map(object_id_fn, records), records)
            if object_id in ids
        ]

    return by_id


def recover_node(
    cluster: "PangeaCluster",
    group: "ReplicationGroup",
    failed_node: int,
    workers: int = 8,
) -> RecoveryReport:
    """Recover every replica in ``group`` after ``failed_node`` crashed.

    Returns a report whose ``seconds`` is the simulated recovery latency
    (the Fig. 6 measurement).  The failed node's shards are treated as
    unreadable; recovered records are re-dispatched over the survivors.

    Idempotent: a node already in ``group.recovered_nodes`` was healed by
    an earlier run, so calling again is a no-op (re-dispatching the same
    records twice would duplicate them on the survivors).
    """
    if group.object_id_fn is None:
        raise ValueError("the replication group has no object_id_fn registered")
    if failed_node in group.recovered_nodes:
        return RecoveryReport(failed_node=failed_node)
    node = cluster.nodes[failed_node]
    if not node.failed:
        node.fail()
    start = cluster.barrier()
    report = RecoveryReport(failed_node=failed_node)

    for target in group.members:
        if failed_node not in target.shards:
            continue
        recovered = _recover_replica(
            cluster, group, target, failed_node, report, workers=workers
        )
        report.replicas_recovered.append((target.name, recovered))

    report.colliding_recovered = _recover_colliding(
        cluster, group, failed_node, report, workers=workers
    )
    group.recovered_nodes.add(failed_node)
    robustness = getattr(cluster, "robustness", None)
    if robustness is not None:
        robustness.recoveries += 1
    end = cluster.barrier()
    report.seconds = end - start
    for survivor in cluster.nodes:
        tracer = survivor.tracer
        if tracer is not None and not survivor.failed:
            tracer.tracer.span(
                "recovery.recover_node", "recovery", survivor.node_id,
                start, report.seconds, failed_node=failed_node,
                objects_recovered=report.objects_recovered,
                bytes_transferred=report.bytes_transferred,
            )
            break
    return report


def _colliding_lost_on(group: "ReplicationGroup", failed_node: int) -> set:
    """Colliding ids homed on the failed node: lost from every member."""
    return {oid for oid, home in group.colliding_home.items() if home == failed_node}


def _recover_replica(
    cluster: "PangeaCluster",
    group: "ReplicationGroup",
    target: "LocalitySet",
    failed_node: int,
    report: RecoveryReport,
    workers: int = 8,
) -> int:
    """Re-dispatch the target's lost records from the other members.

    The first other member is scanned for every lost record.  Records the
    target lost together with that source (both copies on the failed node)
    are then looked up in the next members, scanning each only while ids
    are still missing; colliding ids are left to the safety set.
    """
    object_id_fn = group.object_id_fn
    sources = [member for member in group.members if member is not target]
    if not sources:
        raise ValueError("a replication group needs at least two members to recover")
    lost_ids = None
    if target.partitioner is None or len(sources) > 1:
        lost_ids = ids_lost_from(target, [failed_node], object_id_fn)
    survivors = [nid for nid in sorted(target.shards) if nid != failed_node]
    recovered_ids: set = set()
    with ShardWriters(target, survivors, workers) as writers:

        def copy_lost(source: "LocalitySet", lost_in) -> None:
            for node_id in sorted(source.shards):
                if node_id == failed_node:
                    continue
                shard = source.shards[node_id]
                fire_point(shard.node, "mid-recovery")
                moved_bytes = 0
                for iterator in make_shard_iterators(shard, workers):
                    for page in iterator:
                        shard.node.cpu.per_object(
                            len(page.records), workers=workers, factor=2.0
                        )
                        batches: list[list] = [[] for _ in survivors]
                        for object_id, record in lost_in(page.records):
                            if object_id in recovered_ids:
                                continue
                            recovered_ids.add(object_id)
                            batches[stable_index(object_id, len(survivors))].append(record)
                        for dest, batch in zip(survivors, batches):
                            if not batch:
                                continue
                            writers.add_many(dest, batch, target.object_bytes)
                            if dest != node_id:
                                moved_bytes += len(batch) * target.object_bytes
                if moved_bytes:
                    shard.node.network.transfer(
                        moved_bytes, num_messages=max(1, moved_bytes // (4 << 20))
                    )
                    report.bytes_transferred += moved_bytes

        copy_lost(sources[0], _lost_test(target, failed_node, lost_ids, object_id_fn))
        if len(sources) > 1:
            missing = lost_ids - recovered_ids - _colliding_lost_on(group, failed_node)
            for source in sources[1:]:
                if not missing:
                    break
                copy_lost(source, _ids_in(missing, object_id_fn))
                missing -= recovered_ids
    report.objects_recovered += len(recovered_ids)
    return len(recovered_ids)


def _recover_colliding(
    cluster: "PangeaCluster",
    group: "ReplicationGroup",
    failed_node: int,
    report: RecoveryReport,
    workers: int = 8,
) -> int:
    """Recover objects whose every replica copy was on the failed node.

    Only colliding objects *homed* on the failed node were actually lost;
    their copies are restored into every member of the group from the
    safety set.
    """
    if group.colliding_set is None or not group.colliding_ids:
        return 0
    object_id_fn = group.object_id_fn
    lost_home_ids = _colliding_lost_on(group, failed_node)
    if not lost_home_ids:
        return 0
    targets = []
    for member in group.members:
        survivors = [nid for nid in sorted(member.shards) if nid != failed_node]
        targets.append((member, survivors, ShardWriters(member, survivors, workers)))
    recovered = 0
    with contextlib.ExitStack() as stack:
        # Every member's writers attach before the scan.  The stack retires
        # them last in, first out, so enter the members back to front: they
        # then flush and close front to back.
        for _member, _survivors, writers in reversed(targets):
            stack.enter_context(writers)
        for node_id in sorted(group.colliding_set.shards):
            if node_id == failed_node:
                continue
            shard = group.colliding_set.shards[node_id]
            for iterator in make_shard_iterators(shard, workers):
                for page in iterator:
                    shard.node.cpu.per_object(len(page.records), workers=workers)
                    lost = []
                    for record in page.records:
                        object_id = object_id_fn(record)
                        if object_id in lost_home_ids:
                            lost.append((object_id, record))
                    # Each member takes the page's lost records in one batch
                    # per destination, members in group order.
                    for member, survivors, writers in targets:
                        batches: list[list] = [[] for _ in survivors]
                        for object_id, record in lost:
                            batches[stable_index(object_id, len(survivors))].append(record)
                        for dest, batch in zip(survivors, batches):
                            if batch:
                                writers.add_many(dest, batch, member.object_bytes)
                    recovered += len(lost)
    report.objects_recovered += recovered * len(group.members)
    return recovered

