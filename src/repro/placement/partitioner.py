"""Partition computations and the partition_set service."""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.util import HASH_MASK, INT_HASH_MULTIPLIER, stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalitySet


@dataclass(frozen=True)
class PartitionScheme:
    """Catalog metadata describing how a replica is partitioned.

    ``key_name`` is what the query scheduler matches against join keys
    (e.g. ``"l_orderkey"``); two sets co-partition when their schemes share
    kind, key name semantics, and partition count.
    """

    kind: str
    key_name: str
    num_partitions: int

    def co_partitioned_with(self, other: "PartitionScheme | None") -> bool:
        if other is None:
            return False
        return (
            self.kind == other.kind
            and self.num_partitions == other.num_partitions
        )


class PartitionComp:
    """The paper's partition computation: extract a key, map it to a partition."""

    kind = "hash"

    def __init__(
        self,
        key_fn: "typing.Callable[[object], object]",
        num_partitions: int,
        key_name: str = "key",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.key_fn = key_fn
        self.num_partitions = num_partitions
        self.key_name = key_name

    def partition_of(self, record: object) -> int:
        return stable_hash(self.key_fn(record)) % self.num_partitions

    def partition_of_key(self, key: object) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_many(self, records: list) -> "list[int]":
        """``[self.partition_of(r) for r in records]``, with an int key's hash
        computed inline instead of by a :func:`stable_hash` call."""
        num_partitions = self.num_partitions
        multiplier, mask = INT_HASH_MULTIPLIER, HASH_MASK
        return [
            (key * multiplier & mask) % num_partitions
            if type(key) is int
            else stable_hash(key) % num_partitions
            for key in map(self.key_fn, records)
        ]

    def scheme(self) -> PartitionScheme:
        return PartitionScheme(
            kind=self.kind, key_name=self.key_name, num_partitions=self.num_partitions
        )


class HashPartitioner(PartitionComp):
    """Alias with the conventional name."""


class RangePartitioner(PartitionComp):
    """Partition by sorted key ranges (boundaries given explicitly)."""

    kind = "range"

    def __init__(
        self,
        key_fn: "typing.Callable[[object], object]",
        boundaries: list,
        key_name: str = "key",
    ) -> None:
        super().__init__(key_fn, len(boundaries) + 1, key_name)
        self.boundaries = list(boundaries)

    def partition_of_key(self, key: object) -> int:
        for index, boundary in enumerate(self.boundaries):
            if key < boundary:
                return index
        return len(self.boundaries)

    def partition_of(self, record: object) -> int:
        return self.partition_of_key(self.key_fn(record))

    def partition_many(self, records: list) -> "list[int]":
        key_fn, of_key = self.key_fn, self.partition_of_key
        return [of_key(key_fn(record)) for record in records]


class RoundRobinPartitioner(PartitionComp):
    """Spray records evenly regardless of key (random dispatch)."""

    kind = "roundrobin"

    def __init__(self, num_partitions: int) -> None:
        super().__init__(lambda record: None, num_partitions, key_name="")
        self._cursor = 0

    def partition_of(self, record: object) -> int:
        partition = self._cursor % self.num_partitions
        self._cursor += 1
        return partition

    def partition_many(self, records: list) -> "list[int]":
        """The next ``len(records)`` slots; the cursor advances past them."""
        start = self._cursor
        self._cursor += len(records)
        return [(start + i) % self.num_partitions for i in range(len(records))]


def partition_set(
    source: "LocalitySet",
    target: "LocalitySet",
    partitioner: PartitionComp,
) -> "LocalitySet":
    """Repartition ``source`` into ``target`` (paper Sec. 7 code example).

    Scans the source through the sequential read service, routes every
    record by the partition computation, and writes it to the partition's
    home node through the sequential write service, one batch per source
    page and destination (record order kept within each batch); records
    that move across nodes charge the sender's network link.  The target's
    partition scheme is registered in the statistics database.
    """
    from repro.services.sequential import ShardWriters, make_shard_iterators

    cluster = source.cluster
    num_nodes = len(target.shards)
    node_ids = sorted(target.shards)
    with ShardWriters(target, node_ids) as writers:
        for node_id in sorted(source.shards):
            shard = source.shards[node_id]
            pending_network = 0
            for iterator in make_shard_iterators(shard):
                for page in iterator:
                    shard.node.cpu.per_object(len(page.records))
                    batches: list[list] = [[] for _ in node_ids]
                    records = page.records
                    for record, partition in zip(records, partitioner.partition_many(records)):
                        batches[partition % num_nodes].append(record)
                    for dest, batch in zip(node_ids, batches):
                        if not batch:
                            continue
                        writers.add_many(dest, batch, source.object_bytes)
                        if dest != node_id:
                            pending_network += len(batch) * source.object_bytes
            if pending_network:
                shard.node.network.transfer(
                    pending_network,
                    num_messages=max(1, pending_network // (4 << 20)),
                )
    target.partition_scheme = partitioner.scheme()
    target.partitioner = partitioner
    cluster.manager.update_statistics(target)
    cluster.manager.update_statistics(source)
    cluster.barrier()
    return target
