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
        self.closed = False

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
        self.closed = True
        if self._big is not None:
            self._big.exhausted = True
            self._big.maybe_unpin(self.shard)
            self._big = None


class VirtualShuffleBuffer:
    """One (writer, partition) write handle.

    Holds a pointer to the partition's small page allocator plus the
    writer's current small page — exactly the paper's abstraction.  No one
    else reads that small page until it is finished, so the buffer
    write-combines: :meth:`add_object` stages same-size records in a
    private run, and the run is *settled* into the small page, with one
    ``records`` charge, when the page fills, the record size changes, or
    the page is flushed.  A run of ``n`` records costs exactly the integer
    ticks of ``n`` per-record charges.  When the writer is remote from the
    partition's home node, each filled small page charges one network
    transfer.
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
        self._object_bytes = allocator.shard.dataset.object_bytes
        self._cpu_node = worker_node or allocator.shard.node
        self._small: SmallPage | None = None
        self._run: list = []
        self._run_bytes = 0
        # How many more records of ``_run_bytes`` fit the current small page.
        self._room = 0

    def _settle(self) -> None:
        """Append the staged run to the small page and charge it once."""
        run = self._run
        if run:
            self._small.extend(run, self._run_bytes)
            self._cpu_node.cpu.records(len(run), self._run_bytes)
            self._run = []

    def _flush_small_page(self) -> None:
        self._settle()
        self._room = 0
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

    def _start_run(self, nbytes: int) -> None:
        """Settle the current run and make room for ``nbytes`` records,
        rolling to a fresh small page if one no longer fits."""
        if self.allocator.closed:
            raise ValueError("shuffle partition already finished writing")
        self._settle()
        if self._small is None or self._small.free_bytes < nbytes:
            self._flush_small_page()
            self._small = self.allocator.get_small_page()
            if self._small.free_bytes < nbytes:
                raise ValueError(f"{nbytes} bytes do not fit this small page")
        self._run_bytes = nbytes
        # Zero-byte records always fit; max() only avoids dividing by zero.
        self._room = self._small.free_bytes // max(nbytes, 1)

    def add_object(self, record: object, nbytes: int | None = None) -> None:
        """Stage one record; ``ValueError`` if it is larger than a small
        page or the shuffle has finished writing (nothing is staged)."""
        if nbytes is None:
            nbytes = self._object_bytes
        if self._room <= 0 or nbytes != self._run_bytes:
            self._start_run(nbytes)
        self._run.append(record)
        self._room -= 1

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
        self._finished = False
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
        """Bulk ``add_object``: ``partitions[i]`` is the destination
        partition of ``records[i]``, all written by ``worker_id``.  Like
        ``add_object``, it raises ``ValueError`` after :meth:`finish_writing`."""
        adders: dict = {}
        for record, partition_id in zip(records, partitions):
            add = adders.get(partition_id)
            if add is None:
                add = adders[partition_id] = self.buffer_for(
                    worker_id, partition_id, worker_node=worker_node
                ).add_object
            add(record, nbytes)

    def finish_writing(self) -> None:
        """Flush every writer and detach the write service (idempotent)."""
        if self._finished:
            return
        self._finished = True
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
