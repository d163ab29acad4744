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

    __slots__ = ("page", "carved", "outstanding", "exhausted")

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
    """A writer-private byte budget inside one big page.

    ``used`` counts the bytes its writer has settled into the big page;
    the writer's :class:`VirtualShuffleBuffer` keeps it within ``budget``.
    """

    __slots__ = ("big", "budget", "used", "closed")

    def __init__(self, big: _BigPage, budget: int) -> None:
        self.big = big
        self.budget = budget
        self.used = 0
        self.closed = False

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
    private run, and the run is *settled* into the big page, with one
    ``Page.extend`` and one clock charge of exactly the integer ticks of
    ``n`` per-record charges, when the small page fills, the record size
    changes, or the writer closes.  A full small page *rolls* in the same
    pass: settle, the ``mid-shuffle`` fault point (only when the home node
    has an injector), one network transfer home when the writer is remote,
    a ``shuffle.flush_small`` instant, finish, and carve the next.
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
        self._home = allocator.shard.node
        self._remote = worker_node is not None and worker_node is not self._home
        self._cpu = (worker_node or self._home).cpu
        self._small: SmallPage | None = None
        self._run: list = []
        # The run's record size and the ticks one such record costs.
        self._run_bytes = 0
        self._run_ticks = 0
        # How many more records of ``_run_bytes`` fit the current small page.
        self._room = 0

    def _settle(self, small: SmallPage) -> None:
        """Append the staged (non-empty) run to the big page and charge it
        once; the run list is cleared for reuse."""
        run = self._run
        count = len(run)
        small.big.page.extend(run, self._run_bytes)
        small.used += count * self._run_bytes
        self._cpu.clock.advance_ticks(count * self._run_ticks)
        run.clear()

    def _retire(self) -> None:
        """Hand the settled current small page home and finish it."""
        small = self._small
        if self._home.fault_injector is not None:
            fire_point(self._home, "mid-shuffle")
        if self._remote:
            self.worker_node.network.transfer(
                small.used, num_messages=1, peer=self._home.network
            )
        tracer = self._home.tracer
        if tracer is not None:
            tracer.instant("shuffle.flush_small", "service",
                           set=self.allocator.shard.dataset.name,
                           partition=self.partition_id, worker=self.worker_id,
                           nbytes=small.used, remote=self._remote)
        small.finish(self.allocator.shard)
        self._small = None

    def _start_run(self, nbytes: int) -> None:
        """Settle the current run and open one of ``nbytes`` records,
        rolling to a fresh small page in the same pass if one no longer
        fits.  A fault at the roll leaves the run settled and the full
        small page current and unfinished."""
        if self.allocator.closed:
            raise ValueError("shuffle partition already finished writing")
        self._room = 0
        small = self._small
        if self._run:
            self._settle(small)
        if small is None or small.budget - small.used < nbytes:
            if small is not None:
                self._retire()
            small = self._small = self.allocator.get_small_page()
            if small.budget < nbytes:
                raise ValueError(f"{nbytes} bytes do not fit this small page")
        self._run_ticks = self._cpu.record_ticks(nbytes)
        self._run_bytes = nbytes
        # Zero-byte records always fit; max() only avoids dividing by zero.
        self._room = (small.budget - small.used) // max(nbytes, 1)

    def add_object(self, record: object, nbytes: int | None = None) -> None:
        """Stage one record; ``ValueError`` if its size is negative or
        larger than a small page, or the shuffle has finished writing
        (nothing is staged)."""
        if nbytes is None:
            nbytes = self._object_bytes
        if self._room <= 0 or nbytes != self._run_bytes:
            self._start_run(nbytes)
        self._run.append(record)
        self._room -= 1

    def close(self) -> None:
        """Settle the run and retire the current small page, if any."""
        self._room = 0
        if self._small is not None:
            if self._run:
                self._settle(self._small)
            self._retire()


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
