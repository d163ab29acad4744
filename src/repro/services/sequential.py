"""The sequential read/write service (paper Sec. 8).

Writing attaches a *sequential allocator* to a shard: records are placed
directly into the current buffer-pool page (no serialization — this is the
interfacing overhead Pangea avoids), and a full page is sealed, unpinned,
and replaced with a fresh one.

Reading hands out *concurrent page iterators*: long-living workers each
pull pages from a shared cursor (the paper's thread-safe circular buffer of
pinned-page metadata), touch them for the recency model, and unpin them
when done.
"""

from __future__ import annotations

import threading
import typing

from repro.buffer.page import Page
from repro.core.attributes import ReadingPattern, WritingPattern
from repro.sim.faults import fire_point

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalitySet, LocalShard


class NodeFailedError(RuntimeError):
    """The shard's worker node has failed; its data is unreachable until
    recovery re-creates it on the survivors.

    Carries the failed ``node_id`` and the ``set_name`` whose shard was
    unreachable, so operators (and tests) can tell *which* failure broke
    the operation without parsing the message.
    """

    def __init__(
        self,
        message: str,
        node_id: "int | None" = None,
        set_name: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.set_name = set_name


def _check_alive(shard: "LocalShard") -> None:
    if shard.node.failed:
        raise NodeFailedError(
            f"node {shard.node.node_id} holding a shard of "
            f"{shard.dataset.name!r} has failed",
            node_id=shard.node.node_id,
            set_name=shard.dataset.name,
        )


class SequentialWriter:
    """Write records sequentially into one shard.

    Use as a context manager so the service detach (and the attribute
    downgrade it implies) cannot be forgotten:

    >>> with SequentialWriter(shard) as writer:      # doctest: +SKIP
    ...     writer.add_object(record, nbytes=80)
    """

    def __init__(self, shard: "LocalShard", workers: int = 1) -> None:
        self.shard = shard
        self.workers = max(1, workers)
        self._page: Page | None = None
        self._attached = False

    # ------------------------------------------------------------------
    # service attachment
    # ------------------------------------------------------------------

    def __enter__(self) -> "SequentialWriter":
        self.attach()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def attach(self) -> None:
        if self._attached:
            return
        _check_alive(self.shard)
        dataset = self.shard.dataset
        with dataset._service_lock:
            dataset.active_writers += 1
            dataset.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
        self._attached = True
        tracer = self.shard.node.tracer
        if tracer is not None:
            tracer.instant("seq.write_attach", "service", set=dataset.name)

    def close(self) -> None:
        """Unpin the tail page and detach the service."""
        if self._page is not None:
            self.shard.unpin_page(self._page)
            self._page = None
        if self._attached:
            dataset = self.shard.dataset
            with dataset._service_lock:
                dataset.active_writers -= 1
                dataset.attributes.note_service_detached(
                    dataset.active_readers, dataset.active_writers
                )
            self._attached = False
            tracer = self.shard.node.tracer
            if tracer is not None:
                tracer.instant("seq.write_detach", "service", set=dataset.name)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _current_page(self, nbytes: int) -> Page:
        shard = self.shard
        page = self._page
        if page is not None and page.size - page.used_bytes < nbytes:
            fire_point(shard.node, "mid-write")
            shard.seal_page(page)
            shard.node.pool.unpin(page)
            page = self._page = None
        if page is None:
            # A node that crashed (at the seal above or elsewhere) cannot
            # pin the next page: the write fails here.
            _check_alive(shard)
            # The data proxy exchanges a PinPage message with the storage
            # process before writing through shared memory (paper Fig. 2).
            shard.node.network.message(2)
            page = self._page = shard.new_page(pin=True)
        return page

    def add_object(self, record: object, nbytes: int | None = None) -> None:
        """Sequential-write one record."""
        self.add_data([record], nbytes)

    def add_data(self, records: list, nbytes_each: int | None = None) -> None:
        """Sequential-write a batch of same-size records, a page at a time.

        Each page takes as many records as fit with one ``Page.extend``,
        and that slice is charged with one ``cpu.records`` call before the
        next page is pinned.  The batch therefore costs exactly what a loop
        of :meth:`add_object` costs, also when a crash interrupts it.  A
        size that cannot fit a page, or is negative, is rejected before
        anything is touched.
        """
        if not self._attached:
            raise RuntimeError("writer is not attached (use it as a context manager)")
        nbytes = self.shard.dataset.object_bytes if nbytes_each is None else nbytes_each
        if nbytes > self.shard.page_size:
            raise ValueError(
                f"a {nbytes}-byte object cannot fit a {self.shard.page_size}-byte page"
            )
        if nbytes < 0:
            raise ValueError(f"object size must be non-negative, got {nbytes}")
        cpu = self.shard.node.cpu
        start = 0
        while start < len(records):
            page = self._current_page(nbytes)
            end = len(records) if nbytes == 0 else start + page.free_bytes // nbytes
            batch = records[start:end]
            page.extend(batch, nbytes)
            cpu.records(len(batch), nbytes, workers=self.workers)
            start += len(batch)

    def flush(self) -> None:
        """Seal the current page early (stage boundary)."""
        if self._page is not None:
            fire_point(self.shard.node, "mid-write")
            self.shard.seal_page(self._page)
            self.shard.unpin_page(self._page)
            self._page = None


class ShardWriters:
    """One :class:`SequentialWriter` per node of a set, used as one writer.

    Entering attaches a writer to each shard in ``node_ids`` order; leaving,
    also on error, flushes and then closes each writer in that same order.
    Callers route every record themselves and charge their own network
    transfers; ``add_many`` writes a batch bound for one node a page at a
    time:

    >>> with ShardWriters(dataset, [0, 1]) as writers:   # doctest: +SKIP
    ...     writers.add_object(1, record, nbytes=80)
    ...     writers.add_many(0, [record, record], nbytes=80)
    """

    def __init__(
        self, dataset: "LocalitySet", node_ids: "list[int]", workers: int = 1
    ) -> None:
        self._writers = {
            node_id: SequentialWriter(dataset.shards[node_id], workers=workers)
            for node_id in node_ids
        }

    def __enter__(self) -> "ShardWriters":
        for writer in self._writers.values():
            writer.attach()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for writer in self._writers.values():
            writer.flush()
            writer.close()

    def add_object(self, node_id: int, record: object, nbytes: int) -> None:
        """Sequential-write one record to the shard on ``node_id``."""
        self._writers[node_id].add_object(record, nbytes)

    def add_many(self, node_id: int, records: list, nbytes: int) -> None:
        """Sequential-write a batch to the shard on ``node_id``, a page at a
        time (see :meth:`SequentialWriter.add_data`)."""
        self._writers[node_id].add_data(records, nbytes)


class _SharedCursor:
    """The thread-safe circular buffer the computation workers pull from.

    Several :class:`PageIterator` workers share one cursor; a mutex makes
    the claim of each page atomic so no page is served twice and the
    detach (fired by the last iterator to finish) happens exactly once.
    """

    def __init__(self, pages: list[Page], dataset: "LocalitySet") -> None:
        self.pages = pages
        self.dataset = dataset
        self.index = 0
        self.active_iterators = 0
        self._lock = threading.Lock()

    def next_page(self) -> Page | None:
        with self._lock:
            if self.index >= len(self.pages):
                return None
            page = self.pages[self.index]
            self.index += 1
            return page

    def iterator_done(self) -> None:
        with self._lock:
            self.active_iterators -= 1
            last = self.active_iterators == 0
        if last:
            with self.dataset._service_lock:
                self.dataset.active_readers -= 1
                self.dataset.attributes.note_service_detached(
                    self.dataset.active_readers, self.dataset.active_writers
                )


class PageIterator:
    """One worker's view of the shared page cursor.

    Each ``next()`` pins the page (reloading it from the set's file if it
    was evicted, which charges real simulated I/O), touches it for recency,
    and unpins the previously returned page.
    """

    def __init__(self, cursor: _SharedCursor, workers: int) -> None:
        self._cursor = cursor
        self._workers = workers
        self._current: Page | None = None
        self._done = False
        with cursor._lock:
            cursor.active_iterators += 1

    def next(self) -> Page | None:
        current = self._current
        if current is not None:
            current.shard.node.pool.unpin(current)
            self._current = None
        if self._done:
            return None
        page = self._cursor.next_page()
        if page is None:
            self._done = True
            self._cursor.iterator_done()
            return None
        shard = page.shard
        node = shard.node
        # Page metadata flows through the circular buffer (one socket
        # message per pinned page, paper Fig. 2).
        fire_point(node, "mid-scan")
        node.network.message(1)
        shard.pin_page(page)
        node.cpu.per_object(page.num_objects, workers=self._workers)
        self._current = page
        return page

    def __iter__(self):
        # A scan that is abandoned (``break``, a dropped generator) or fails
        # (an exception in the loop body, a mid-scan crash) still unpins its
        # page and detaches from the set.
        try:
            while True:
                page = self.next()
                if page is None:
                    return
                yield page
        finally:
            self.close()

    def close(self) -> None:
        if self._current is not None:
            self._current.shard.unpin_page(self._current)
            self._current = None
        if not self._done:
            self._done = True
            self._cursor.iterator_done()


def make_shard_iterators(
    shard: "LocalShard",
    num_threads: int = 1,
    on_failure: str = "raise",
) -> list[PageIterator]:
    """Concurrent page iterators over a single node's shard.

    ``on_failure`` controls what a dead node means: ``"raise"`` (the
    default, and what recovery correctness depends on) raises
    :class:`NodeFailedError`; ``"skip"`` returns no iterators so callers
    sweeping many shards can pass over dead ones.
    """
    if num_threads < 1:
        raise ValueError("need at least one iterator")
    if on_failure not in ("raise", "skip"):
        raise ValueError(f"on_failure must be 'raise' or 'skip', not {on_failure!r}")
    if shard.node.failed and on_failure == "skip":
        return []
    _check_alive(shard)
    dataset = shard.dataset
    with dataset._service_lock:
        dataset.active_readers += 1
        dataset.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
    shard.node.network.message(1)
    cursor = _SharedCursor(list(shard.pages), dataset)
    return [PageIterator(cursor, num_threads) for _ in range(num_threads)]


def resolve_readable_source(
    dataset: "LocalitySet",
) -> "tuple[LocalitySet, list[int]]":
    """Pick a readable (set, node-id list) for a whole-set scan.

    Healthy set: itself, all shards.  With dead shards, the read service
    fails over instead of surfacing the crash (paper Sec. 7): it first
    polls the failure detector (which may auto-recover the node), then

    - if every dead node was already healed (its records re-dispatched to
      the survivors), scans the live shards of the same set;
    - otherwise switches to a replication-group member whose shards are
      all alive;
    - and only when no member is fully readable raises
      :class:`NodeFailedError` carrying the node id and set name.
    """
    cluster = dataset.cluster
    manager = getattr(cluster, "manager", None)
    detector = getattr(manager, "failure_detector", None)
    if detector is not None:
        detector.poll()

    def dead_nodes(member: "LocalitySet") -> list[int]:
        return [
            nid for nid in sorted(member.shards) if member.shards[nid].node.failed
        ]

    dead = dead_nodes(dataset)
    if not dead:
        return dataset, sorted(dataset.shards)
    group = None
    if manager is not None and dataset.replica_group_id is not None:
        group = manager.replica_group(dataset.replica_group_id)
    robustness = getattr(cluster, "robustness", None)

    def note_failover(kind: str, target: "LocalitySet") -> None:
        if robustness is not None:
            robustness.failovers += 1
        for node_id in sorted(target.shards):
            tracer = target.shards[node_id].node.tracer
            if tracer is not None:
                tracer.instant("scan.failover", "recovery", set=dataset.name,
                               target=target.name, kind=kind,
                               dead_nodes=list(dead))
                break

    if group is not None and all(nid in group.recovered_nodes for nid in dead):
        # Healed: the survivors hold the dead shards' records already.
        note_failover("healed", dataset)
        live = [nid for nid in sorted(dataset.shards) if nid not in dead]
        return dataset, live
    if group is not None:
        for member in group.members:
            if member is dataset:
                continue
            if not dead_nodes(member):
                note_failover("replica", member)
                return member, sorted(member.shards)
    raise NodeFailedError(
        f"node {dead[0]} holding a shard of {dataset.name!r} has failed "
        f"and no live replica covers its data",
        node_id=dead[0],
        set_name=dataset.name,
    )


def make_page_iterators(dataset: "LocalitySet", num_threads: int = 1) -> list[PageIterator]:
    """Concurrent page iterators over every shard of ``dataset``.

    The read service marks the set ``sequential-read`` and (while attached)
    ``read``; the GetSetPages handshake costs one control message per shard.
    Dead shards fail over to a surviving replica (see
    :func:`resolve_readable_source`) instead of raising.
    """
    if num_threads < 1:
        raise ValueError("need at least one iterator")
    source, node_ids = resolve_readable_source(dataset)
    with source._service_lock:
        source.active_readers += 1
        source.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
    pages: list[Page] = []
    for node_id in node_ids:
        shard = source.shards[node_id]
        _check_alive(shard)
        shard.node.network.message(1)
        tracer = shard.node.tracer
        if tracer is not None:
            tracer.instant("seq.scan_attach", "service", set=source.name,
                           pages=len(shard.pages), threads=num_threads)
        pages.extend(shard.pages)
    cursor = _SharedCursor(pages, source)
    return [PageIterator(cursor, num_threads) for _ in range(num_threads)]
