"""Concurrent r-node failure tolerance (paper Sec. 7, extension).

The base scheme survives one node failure: only objects whose every copy
sits on a single node (colliding objects) need extra protection.  To
survive ``r`` concurrent failures, any object whose copies span fewer than
``r + 1`` nodes must be separately replicated until it does.  The paper
gives the expected ratio of such objects for random partitioning as
``1 - k(k-1)...(k-r) / k^(r+1)`` and notes the extra disk cost.
"""

from __future__ import annotations

import typing

from repro.placement.replication import ReplicationGroup, ids_lost_from, stable_index
from repro.services.sequential import ShardWriters, make_shard_iterators
from repro.util import stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet

__all__ = ["object_node_spread", "ensure_r_safety", "recover_concurrent_failures"]


def object_node_spread(group: ReplicationGroup) -> dict:
    """Map object id -> set of nodes holding at least one copy of it."""
    if group.object_id_fn is None:
        raise ValueError("the replication group has no object_id_fn registered")
    spread: dict = {}
    members = list(group.members)
    if group.colliding_set is not None:
        members.append(group.colliding_set)
    members.extend(group.extra_safety_sets)
    for member in members:
        for node_id, shard in member.shards.items():
            for page in shard.pages:
                for record in shard.stored_records(page):
                    spread.setdefault(group.object_id_fn(record), set()).add(node_id)
    return spread


def ensure_r_safety(
    cluster: "PangeaCluster", group: ReplicationGroup, r: int
) -> "LocalitySet | None":
    """Replicate under-spread objects until every object spans r+1 nodes.

    Returns the safety set created (or extended); ``None`` when the group
    is already r-safe.  The extra copies land in a dedicated write-through
    set, placed on nodes the object does not already occupy.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    num_nodes = cluster.num_nodes
    if r + 1 > num_nodes:
        raise ValueError(
            f"cannot spread objects over {r + 1} nodes in a {num_nodes}-node cluster"
        )
    spread = object_node_spread(group)
    sample_of: dict = {}
    first = group.members[0]
    for shard in first.shards.values():
        for page in shard.pages:
            for record in shard.stored_records(page):
                sample_of.setdefault(group.object_id_fn(record), record)

    unsafe = {
        oid: nodes for oid, nodes in spread.items() if len(nodes) < r + 1
    }
    if not unsafe:
        return None

    safety_name = f"__rsafety_group{group.group_id}_r{r}"
    if cluster.manager.has_set(safety_name):
        safety = cluster.get_set(safety_name)
    else:
        safety = cluster.create_set(
            safety_name,
            durability="write-through",
            page_size=first.page_size,
            object_bytes=first.object_bytes,
        )
    node_ids = sorted(safety.shards)
    with ShardWriters(safety, node_ids) as writers:
        # Record at a time: each copy is its own network transfer, charged
        # and quantised once per copy with one fault draw; fusing them would
        # re-round the charges.
        for oid, nodes in unsafe.items():
            record = sample_of.get(oid)
            if record is None:
                continue
            candidates = [nid for nid in node_ids if nid not in nodes]
            needed = (r + 1) - len(nodes)
            for index in range(min(needed, len(candidates))):
                dest = candidates[
                    (stable_hash(oid) + index) % len(candidates)
                ]
                writers.add_object(dest, record, first.object_bytes)
                home = next(iter(nodes))
                if dest != home:
                    first.shards[home].node.network.transfer(first.object_bytes)
    cluster.barrier()
    if safety not in group.extra_safety_sets:
        group.extra_safety_sets.append(safety)
    return safety


def recover_concurrent_failures(
    cluster: "PangeaCluster",
    group: ReplicationGroup,
    failed_nodes: "list[int]",
    workers: int = 8,
) -> dict:
    """Recover every group member after several nodes fail at once.

    Requires a prior :func:`ensure_r_safety` with ``r >= len(failed_nodes)``
    (otherwise some objects may be unrecoverable; those are reported).
    Recovered copies are re-dispatched over the survivors.
    """
    failed = set(failed_nodes)
    for node_id in failed:
        node = cluster.nodes[node_id]
        if not node.failed:
            node.fail()
    start = cluster.barrier()
    object_id_fn = group.object_id_fn
    if object_id_fn is None:
        raise ValueError("the replication group has no object_id_fn registered")

    # Collect the surviving copy of every object across all sources.
    survivors: dict = {}
    sources = list(group.members)
    if group.colliding_set is not None:
        sources.append(group.colliding_set)
    sources.extend(group.extra_safety_sets)
    for source in sources:
        for node_id, shard in source.shards.items():
            if node_id in failed:
                continue
            for iterator in make_shard_iterators(shard, workers):
                for page in iterator:
                    shard.node.cpu.per_object(len(page.records), workers=workers)
                    for record in page.records:
                        survivors.setdefault(object_id_fn(record), record)

    # Determine which objects each member lost, and restore them.
    report = {"recovered": 0, "unrecoverable": 0, "seconds": 0.0}
    for member in group.members:
        lost_ids = ids_lost_from(member, failed, object_id_fn)
        alive = [nid for nid in sorted(member.shards) if nid not in failed]
        with ShardWriters(member, alive, workers) as writers:
            for oid in lost_ids:
                record = survivors.get(oid)
                if record is None:
                    report["unrecoverable"] += 1
                    continue
                dest = alive[stable_index(oid, len(alive))]
                writers.add_object(dest, record, member.object_bytes)
                report["recovered"] += 1
    report["seconds"] = cluster.barrier() - start
    return report
