"""Replication groups and colliding-object management (paper Sec. 7).

Every member of a replication group holds exactly the same objects under a
different physical organization.  An object "collides" when every replica
of it happens to land on the same node — losing that node would lose the
object — so colliding objects are identified at partitioning time and kept
in a separate locality set replicated HDFS-style on a different node.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.services.sequential import ShardWriters
from repro.sim.faults import PageCorruptionError
from repro.util import stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet


def expected_colliding_objects(num_objects: int, num_nodes: int, num_replicas: int = 2) -> float:
    """Expected colliding count for random partitionings: ``n / k^(r-1)``."""
    if num_nodes < 1 or num_replicas < 1:
        raise ValueError("need at least one node and one replica")
    return num_objects / (num_nodes ** (num_replicas - 1))


def expected_unsafe_ratio(num_nodes: int, num_failures: int) -> float:
    """Paper's ratio of objects with replicas on fewer than r+1 nodes.

    For random partitioning in a ``k``-node cluster tolerating ``r``
    concurrent failures: ``1 - k(k-1)...(k-r) / k^(r+1)``.
    """
    k, r = num_nodes, num_failures
    if r >= k:
        return 1.0
    numerator = 1.0
    for i in range(r + 1):
        numerator *= (k - i)
    return 1.0 - numerator / (k ** (r + 1))


@dataclass
class ReplicationGroup:
    """All replicas of one logical dataset, plus its colliding-object set."""

    members: "list[LocalitySet]" = field(default_factory=list)
    object_id_fn: "typing.Callable[[object], object] | None" = None
    colliding_set: "LocalitySet | None" = None
    colliding_ids: set = field(default_factory=set)
    #: object id -> the single node holding every copy of that object
    colliding_home: dict = field(default_factory=dict)
    #: extra safety sets created by ensure_r_safety (r > 1 tolerance)
    extra_safety_sets: list = field(default_factory=list)
    #: node ids whose lost shards were already re-dispatched by recover_node;
    #: makes recovery idempotent and tells readers a failed node is healed
    recovered_nodes: set = field(default_factory=set)
    group_id: int | None = None
    #: The last colliding-set refresh, kept so the next registration folds
    #: in only its new member: ``(object_id_fn, homes, folded)``, where
    #: ``homes`` maps object id -> the one node seen holding it (``None``
    #: once seen on two) and ``folded`` lists ``(member, signature)`` for
    #: each member read into it (see :func:`_member_signature`).  Not kept
    #: when a folded member had evicted pages: it could never be reused.
    _fold: "tuple | None" = field(default=None, repr=False, compare=False)

    @property
    def num_colliding(self) -> int:
        return len(self.colliding_ids)


def _intact_records(shard, page) -> list:
    """The page's records, read and checksum-verified; a corrupt disk image
    reads as empty, as if its objects were lost with a crashed node."""
    try:
        return shard.read_records(page)
    except PageCorruptionError:
        return []


def register_replica(
    source: "LocalitySet",
    replica: "LocalitySet",
    object_id_fn: "typing.Callable[[object], object]",
    group: "ReplicationGroup | None" = None,
) -> ReplicationGroup:
    """Register ``replica`` as a physical reorganization of ``source``.

    Creates (or extends) the replication group, identifies colliding
    objects across all members, and stores them in a dedicated
    write-through locality set placed away from their home node.
    """
    cluster: "PangeaCluster" = source.cluster
    if group is None and source.replica_group_id is not None:
        group = cluster.manager.replica_group(source.replica_group_id)
    if group is None:
        group = ReplicationGroup(members=[source], object_id_fn=object_id_fn)
        group.group_id = cluster.manager.register_replica_group(group)
    group.object_id_fn = object_id_fn
    if replica not in group.members:
        group.members.append(replica)
        replica.replica_group_id = group.group_id
    _refresh_colliding_set(cluster, group)
    cluster.manager.update_statistics(source)
    cluster.manager.update_statistics(replica)
    return group


def _member_signature(member: "LocalitySet") -> "tuple | None":
    """What a folded member must still look like for its fold to stand.

    Per shard: its node, its page ids and its object count, so appended
    records and added or dropped pages show.  Sealed pages are assumed never
    to change in place (no service rewrites a sealed page's records).
    ``None`` when some page is not resident, since re-reading it would
    charge the disk: such a member is always re-read.
    """
    signature = []
    for node_id, shard in member.shards.items():
        pages = shard.pages
        for page in pages:
            if not page.records and page.on_disk:
                return None
        signature.append(
            (node_id, tuple(page.page_id for page in pages), shard.num_objects)
        )
    return tuple(signature)


def _refresh_colliding_set(cluster: "PangeaCluster", group: ReplicationGroup) -> None:
    """Recompute colliding objects and (re)build their safety set.

    One read of a member's pages does all its per-record work: it
    backfills the page-image indexes (read-repair support) for pages
    persisted before their set joined the group, and maps each object id
    to the one node seen holding it.  A page whose disk image fails its
    checksum is skipped, not indexed: reading it later raises
    :class:`~repro.sim.faults.PageCorruptionError` rather than "repairing"
    the page to the ids of its corrupt payload.

    The id -> home map of the last refresh is reused, and only the members
    after the ones it folded are read, when the same id function is passed
    and each folded member is unchanged and fully resident (re-reading it
    would then charge nothing and map nothing new).  Otherwise every
    member is read.
    """
    object_id_fn = group.object_id_fn
    if object_id_fn is None or len(group.members) < 2:
        return
    fold, group._fold = group._fold, None
    homes: dict = {}
    folded: list = []
    if fold is not None and fold[0] is object_id_fn:
        _fn, cached_homes, cached_folded = fold
        if len(cached_folded) <= len(group.members) and all(
            member is current and _member_signature(member) == signature
            for (member, signature), current in zip(cached_folded, group.members)
        ):
            homes, folded = cached_homes, cached_folded
    for member in group.members[len(folded):]:
        for node_id, shard in member.shards.items():
            for page in shard.pages:
                try:
                    records = shard.read_records(page)
                except PageCorruptionError:
                    continue
                ids = list(map(object_id_fn, records))
                if page.on_disk:
                    member.remember_page_ids(node_id, page.page_id, ids)
                for object_id in ids:
                    if homes.setdefault(object_id, node_id) != node_id:
                        homes[object_id] = None
        folded.append((member, _member_signature(member)))
    if all(signature is not None for _member, signature in folded):
        group._fold = (object_id_fn, homes, folded)
    group.colliding_home = {oid: home for oid, home in homes.items() if home is not None}
    group.colliding_ids = set(group.colliding_home)
    if group.colliding_set is not None:
        cluster.drop_set(group.colliding_set.name)
        group.colliding_set = None
    if not group.colliding_home:
        return
    # Keep one record sample per colliding id, pulled from the first member
    # by a second read of its pages.  Kept apart on purpose: the evicted
    # pages it reads are charged again, and that charge is part of
    # registration's simulated cost.
    samples: dict = {}
    first = group.members[0]
    for shard in first.shards.values():
        for page in shard.pages:
            for record in _intact_records(shard, page):
                object_id = object_id_fn(record)
                if object_id in group.colliding_home and object_id not in samples:
                    samples[object_id] = record
    safety_name = f"__colliding_group{group.group_id}"
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
        for object_id, record in samples.items():
            # HDFS-style: the safety copy lives on a *different* node.
            home = group.colliding_home[object_id]
            choices = [nid for nid in node_ids if nid != home] or node_ids
            dest = choices[stable_index(object_id, len(choices))]
            writers.add_object(dest, record, first.object_bytes)
            if dest != home:
                first.shards[home].node.network.transfer(first.object_bytes)
    group.colliding_set = safety
    cluster.barrier()


def ids_lost_from(target: "LocalitySet", failed_nodes, object_id_fn) -> set:
    """Ids whose ``target`` copy was on a failed node (metadata-side scan).

    For partitioned replicas the lost key range is computable; for a
    randomly dispatched replica the system consults the replica's own
    object index, which we model from the failed shards' page images
    without charging data I/O (it is metadata the manager already holds).
    A corrupt image's ids come from the set's page-image index; a page
    that was never indexed reads as empty.
    """
    lost: set = set()
    for node_id in failed_nodes:
        shard = target.shards.get(node_id)
        if shard is None:
            continue
        for page in shard.pages:
            records = shard.stored_records(page)
            if records or not page.on_disk:
                lost.update(object_id_fn(record) for record in records)
            else:
                lost.update(target.page_image_ids(node_id, page.page_id) or ())
    return lost


def stable_index(object_id: object, modulus: int) -> int:
    """The object's slot among ``modulus`` destinations (placement's one hash)."""
    return stable_hash(object_id) % max(1, modulus)
