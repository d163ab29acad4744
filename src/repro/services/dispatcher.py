"""The dispatch service: importing external data into locality sets.

The paper's distributed sets are "randomly dispatched" at import time;
partitioned replicas are built later by partition computations.  The
dispatcher models the import path: an external client streams records to
the workers (network), and each worker writes its share through the
sequential write service — landing directly in buffer-pool pages, which
is why "when a dataset is imported, a significant portion of it is
already cached" (paper Sec. 9.1.1).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.placement.partitioner import HashPartitioner, RoundRobinPartitioner
from repro.services.sequential import ShardWriters

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.locality_set import LocalitySet
    from repro.placement.partitioner import PartitionComp


@dataclass
class ImportReport:
    """What one import did."""

    records: int = 0
    bytes: int = 0
    seconds: float = 0.0
    per_node: dict = None

    def __post_init__(self) -> None:
        if self.per_node is None:
            self.per_node = {}


class Dispatcher:
    """Stream external records into a locality set.

    ``policy`` is ``"round-robin"`` (the paper's random dispatch),
    ``"hash"`` with a key function, or a full
    :class:`~repro.placement.partitioner.PartitionComp`.
    """

    def __init__(
        self,
        dataset: "LocalitySet",
        policy: "str | PartitionComp" = "round-robin",
        key_fn: "typing.Callable | None" = None,
        batch_bytes: int = 4 << 20,
    ) -> None:
        self.dataset = dataset
        self.batch_bytes = batch_bytes
        self._node_ids = sorted(dataset.shards)
        num_nodes = len(self._node_ids)
        #: Only a partition computation the caller passes in becomes the
        #: set's partition scheme; the string policies are plain routing.
        self._scheme: "PartitionComp | None" = None
        if policy == "round-robin":
            self._partitioner: "PartitionComp" = RoundRobinPartitioner(num_nodes)
        elif policy == "hash":
            if key_fn is None:
                raise ValueError("hash dispatch needs a key_fn")
            self._partitioner = HashPartitioner(key_fn, num_nodes)
        elif isinstance(policy, str):
            raise ValueError(f"unknown dispatch policy {policy!r} (round-robin|hash)")
        else:
            self._partitioner = self._scheme = policy

    def import_data(
        self,
        records: "typing.Iterable[object]",
        nbytes_each: int | None = None,
    ) -> ImportReport:
        """Stream records in; returns an :class:`ImportReport`.

        Network cost: each node receives its share from the external
        client in ``batch_bytes`` messages.  Write cost: the sequential
        write service on each target shard.
        """
        cluster = self.dataset.cluster
        start = cluster.barrier()
        nbytes = self.dataset.object_bytes if nbytes_each is None else nbytes_each
        node_ids = self._node_ids
        route = self._partitioner.partition_of
        report = ImportReport()
        pending_bytes = {nid: 0 for nid in node_ids}
        with ShardWriters(self.dataset, node_ids) as writers:
            try:
                # Record at a time: a node's batch ships the moment its
                # pending bytes cross ``batch_bytes``, between two writes.
                for record in records:
                    node_id = node_ids[route(record) % len(node_ids)]
                    writers.add_object(node_id, record, nbytes)
                    report.records += 1
                    report.bytes += nbytes
                    report.per_node[node_id] = report.per_node.get(node_id, 0) + 1
                    pending_bytes[node_id] += nbytes
                    if pending_bytes[node_id] >= self.batch_bytes:
                        self._ship(node_id, pending_bytes[node_id])
                        pending_bytes[node_id] = 0
            finally:
                for node_id, pending in pending_bytes.items():
                    if pending:
                        self._ship(node_id, pending)
        if self.dataset.partitioner is None and self._scheme is not None:
            self.dataset.partitioner = self._scheme
            self.dataset.partition_scheme = self._scheme.scheme()
            cluster.manager.update_statistics(self.dataset)
        report.seconds = cluster.barrier() - start
        return report

    def _ship(self, node_id: int, nbytes: int) -> None:
        """One batched transfer from the external client to a worker."""
        node = self.dataset.shards[node_id].node
        node.network.transfer(nbytes, num_messages=1)
