"""The shuffle service: virtual shuffle buffers over small pages (paper Sec. 8).

All data for one shuffle partition is grouped into one locality set (so a
node spills at most ``num_partitions`` files, versus Spark's
``num_cores × num_partitions``).  Multiple writers share a partition's
buffer-pool page concurrently: a secondary *small page allocator* pins a
big page, splits it into small pages of a few megabytes, and hands those to
writers through *virtual shuffle buffers*.  The big page is unpinned only
when it is exhausted and every small page carved from it is finished.
"""

from __future__ import annotations

import typing

from repro.buffer.page import Page
from repro.core.attributes import WritingPattern
from repro.sim.devices import MB
from repro.sim.faults import fire_point

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet, LocalShard


class _BigPage:
    """A pinned buffer-pool page being carved into small pages."""

    def __init__(self, page: Page) -> None:
        self.page = page
        self.carved = 0
        self.outstanding = 0
        self.exhausted = False

    def maybe_unpin(self, shard: "LocalShard") -> None:
        if self.exhausted and self.outstanding == 0:
            shard.seal_page(self.page)
            shard.unpin_page(self.page)


class SmallPage:
    """A writer-private byte budget inside one big page."""

    def __init__(self, big: _BigPage, budget: int) -> None:
        self.big = big
        self.budget = budget
        self.used = 0
        self.closed = False

    @property
    def free_bytes(self) -> int:
        return self.budget - self.used

    def append(self, record: object, nbytes: int) -> None:
        if self.closed:
            raise ValueError("small page already finished")
        if nbytes > self.free_bytes:
            raise ValueError(f"{nbytes} bytes do not fit this small page")
        self.big.page.append(record, nbytes)
        self.used += nbytes

    def extend(self, records: list, nbytes_each: int) -> None:
        """Bulk-append same-size records that are known to fit."""
        total = len(records) * nbytes_each
        if self.closed:
            raise ValueError("small page already finished")
        if total > self.free_bytes:
            raise ValueError(f"{total} bytes do not fit this small page")
        self.big.page.extend(records, nbytes_each)
        self.used += total

    def finish(self, shard: "LocalShard") -> None:
        if not self.closed:
            self.closed = True
            self.big.outstanding -= 1
            self.big.maybe_unpin(shard)


class SmallPageAllocator:
    """The secondary allocator for one shuffle partition's shard."""

    def __init__(self, shard: "LocalShard", small_page_size: int = 4 * MB) -> None:
        if small_page_size <= 0:
            raise ValueError("small page size must be positive")
        if small_page_size > shard.page_size:
            raise ValueError("small pages cannot exceed the big page size")
        self.shard = shard
        self.small_page_size = small_page_size
        self._big: _BigPage | None = None

    def get_small_page(self) -> SmallPage:
        """Carve the next small page, rolling to a fresh big page if needed."""
        if self._big is None or self._big.carved >= self._big.page.size:
            if self._big is not None:
                self._big.exhausted = True
                self._big.maybe_unpin(self.shard)
            self._big = _BigPage(self.shard.new_page(pin=True))
        big = self._big
        budget = min(self.small_page_size, big.page.size - big.carved)
        big.carved += budget
        big.outstanding += 1
        return SmallPage(big, budget)

    def close(self) -> None:
        """Finish the partition: retire the tail big page."""
        if self._big is not None:
            self._big.exhausted = True
            self._big.maybe_unpin(self.shard)
            self._big = None


class VirtualShuffleBuffer:
    """One (writer, partition) write handle.

    Holds a pointer to the partition's small page allocator plus the
    writer's current offset in its small page — exactly the paper's
    abstraction.  When the writer is remote from the partition's home node,
    each filled small page charges one network transfer.
    """

    def __init__(
        self,
        allocator: SmallPageAllocator,
        worker_node: "object",
        worker_id: int,
        partition_id: int,
    ) -> None:
        self.allocator = allocator
        self.worker_node = worker_node
        self.worker_id = worker_id
        self.partition_id = partition_id
        self._small: SmallPage | None = None

    def _flush_small_page(self) -> None:
        if self._small is None:
            return
        home_node = self.allocator.shard.node
        fire_point(home_node, "mid-shuffle")
        remote = self.worker_node is not None and self.worker_node is not home_node
        if remote:
            self.worker_node.network.transfer(
                self._small.used, num_messages=1, peer=home_node.network
            )
        tracer = home_node.tracer
        if tracer is not None:
            tracer.instant("shuffle.flush_small", "service",
                           set=self.allocator.shard.dataset.name,
                           partition=self.partition_id, worker=self.worker_id,
                           nbytes=self._small.used, remote=remote)
        self._small.finish(self.allocator.shard)
        self._small = None

    def add_object(self, record: object, nbytes: int | None = None) -> None:
        nbytes = self.allocator.shard.dataset.object_bytes if nbytes is None else nbytes
        if self._small is None or self._small.free_bytes < nbytes:
            self._flush_small_page()
            self._small = self.allocator.get_small_page()
        self._small.append(record, nbytes)
        (self.worker_node or self.allocator.shard.node).cpu.records(1, nbytes)

    def _append_run(self, run: list, nbytes: int) -> None:
        """Bulk-append records known to fit the current small page,
        charged exactly like one :meth:`add_object` per record."""
        if run:
            self._small.extend(run, nbytes)
            (self.worker_node or self.allocator.shard.node).cpu.records(len(run), nbytes)

    def close(self) -> None:
        self._flush_small_page()


class ShuffleService:
    """Cluster-wide shuffle: one locality set per partition.

    Partition ``p`` lives on node ``p % num_nodes``; every worker gets a
    virtual shuffle buffer per partition via :meth:`buffer_for`.  Reading a
    partition uses the ordinary sequential read service on its set.
    """

    def __init__(
        self,
        cluster: "PangeaCluster",
        name: str,
        num_partitions: int,
        page_size: int = 64 * MB,
        small_page_size: int = 4 * MB,
        object_bytes: int = 100,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one shuffle partition")
        self.cluster = cluster
        self.name = name
        self.num_partitions = num_partitions
        self.partition_sets: list[LocalitySet] = []
        self._allocators: list[SmallPageAllocator] = []
        self._buffers: dict[tuple[int, int], VirtualShuffleBuffer] = {}
        for partition_id in range(num_partitions):
            home = partition_id % cluster.num_nodes
            dataset = cluster.create_set(
                f"{name}_p{partition_id}",
                durability="write-back",
                page_size=page_size,
                nodes=[home],
                object_bytes=object_bytes,
            )
            dataset.active_writers += 1
            dataset.attributes.note_write_service(WritingPattern.CONCURRENT_WRITE)
            shard = dataset.shards[home]
            self.partition_sets.append(dataset)
            self._allocators.append(
                SmallPageAllocator(shard, small_page_size=small_page_size)
            )

    def buffer_for(self, worker_id: int, partition_id: int, worker_node=None) -> VirtualShuffleBuffer:
        """The (worker, partition) virtual shuffle buffer (cached)."""
        key = (worker_id, partition_id)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = VirtualShuffleBuffer(
                self._allocators[partition_id], worker_node, worker_id, partition_id
            )
            self._buffers[key] = buffer
        return buffer

    def write_batch(
        self,
        worker_id: int,
        records: list,
        partitions: "list[int]",
        worker_node=None,
        nbytes: int | None = None,
    ) -> None:
        """Bulk ``add_object``: one call for a batch of same-size records.

        ``partitions[i]`` is the destination partition of ``records[i]``.
        Data moves grouped: each destination's records are staged in a
        pending run and bulk-extended into its small page at flush
        boundaries.  Deferring the appends is invisible to the paging
        layer because a partition's big page stays pinned (never a victim
        candidate) until the allocator retires it.  A run is charged as
        one ``records`` call, which costs exactly the integer ticks of its
        per-record ``add_object`` charges, so every clock ends where the
        per-record loop leaves it.
        """
        if nbytes is None:
            nbytes = self.partition_sets[0].object_bytes
        buffers: dict[int, VirtualShuffleBuffer] = {}
        pending: dict[int, list] = {}
        capacity: dict[int, int] = {}
        for record, partition_id in zip(records, partitions):
            buffer = buffers.get(partition_id)
            if buffer is None:
                buffer = self.buffer_for(
                    worker_id, partition_id, worker_node=worker_node
                )
                buffers[partition_id] = buffer
                pending[partition_id] = []
                small = buffer._small
                capacity[partition_id] = (
                    0 if small is None else small.free_bytes // nbytes
                )
            if capacity[partition_id] <= 0:
                buffer._append_run(pending[partition_id], nbytes)
                pending[partition_id] = []
                buffer._flush_small_page()
                buffer._small = buffer.allocator.get_small_page()
                capacity[partition_id] = buffer._small.free_bytes // nbytes
                if capacity[partition_id] <= 0:
                    # A record larger than a small page: fail exactly like
                    # the per-record append would.
                    buffer._small.append(record, nbytes)
            pending[partition_id].append(record)
            capacity[partition_id] -= 1
        for partition_id, buffer in buffers.items():
            buffer._append_run(pending[partition_id], nbytes)

    def finish_writing(self) -> None:
        """Flush every writer and detach the write service."""
        for buffer in self._buffers.values():
            buffer.close()
        for allocator in self._allocators:
            allocator.close()
        for dataset in self.partition_sets:
            dataset.active_writers -= 1
            dataset.attributes.note_service_detached(
                dataset.active_readers, dataset.active_writers
            )

    def partition_set(self, partition_id: int) -> "LocalitySet":
        return self.partition_sets[partition_id]

    def drop(self) -> None:
        """Shuffle data is transient: end lifetimes and drop the sets."""
        for dataset in self.partition_sets:
            dataset.end_lifetime()
            self.cluster.drop_set(dataset.name)
