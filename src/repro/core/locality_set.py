"""Locality sets and their per-node shards (paper Sec. 3.2).

A :class:`LocalitySet` is the distributed handle an application sees: a set
of same-sized pages holding one dataset, spread across the cluster, tagged
with one shared :class:`~repro.core.attributes.LocalitySetAttributes`.

A :class:`LocalShard` is the node-local portion: the pages resident on one
worker, their buffer-pool placement, and their on-disk images.
"""

from __future__ import annotations

import itertools
import threading
import typing

from repro.buffer.page import Page
from repro.obs.registry import SetMetrics
from repro.core.recency import RecencyIndex
from repro.core.attributes import (
    DurabilityType,
    LocalitySetAttributes,
    ReadingPattern,
    WritingPattern,
)
from repro.sim.faults import PageCorruptionError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.node import WorkerNode
    from repro.services.sequential import PageIterator


class EvictResult(typing.NamedTuple):
    """What one eviction actually did."""

    freed: int  #: bytes released from the buffer pool
    flushed: bool  #: True only when the eviction wrote the page image out


class LocalShard:
    """The pages of one locality set on one worker node.

    Page-state transitions (place, pin, unpin, evict, drop) run under the
    node's storage lock (:attr:`BufferPool.lock <repro.buffer.pool.BufferPool.lock>`),
    so threads sharing a node (the query engine's per-node stage threads,
    or workers driving several page iterators over one shard) cannot
    observe a page half-placed or race a pin against an eviction.  The lock is reentrant:
    ``pin_page`` → ``pool.place`` → evictor → ``evict_pages`` →
    ``pool.release`` all happen on one thread's acquisition.
    """

    def __init__(self, dataset: "LocalitySet", node: "WorkerNode") -> None:
        self.dataset = dataset
        self.node = node
        self.pages: list[Page] = []
        self._by_id: dict[int, Page] = {}
        #: Per-set observability counters (always on; see repro.obs.registry).
        self.metrics = SetMetrics(set_name=dataset.name)
        #: Intrusive recency index over this shard's resident pages,
        #: maintained by the page lifecycle below so the paging policies
        #: never have to re-sort the page list (see repro.core.recency).
        self.recency = RecencyIndex()
        #: Cached data-aware cost terms of the shard's last scored
        #: victim: ``(key, (cw, vr, wr))``.  Owned by
        #: :class:`~repro.core.policies.DataAwarePolicy`; the key encodes
        #: everything the terms depend on (page size, dirty/on-disk bits,
        #: durability, liveness, reading pattern, re-read penalty) so a
        #: stale entry is impossible by construction, and a later victim
        #: that matches on all of them reuses it.
        self.cost_terms: "tuple | None" = None

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> LocalitySetAttributes:
        return self.dataset.attributes

    @property
    def page_size(self) -> int:
        return self.dataset.page_size

    @property
    def file(self):
        return self.node.fs.get_file(self.dataset.name)

    @property
    def pool(self):
        return self.node.pool

    @property
    def paging(self):
        return self.node.paging

    # ------------------------------------------------------------------
    # page lifecycle
    # ------------------------------------------------------------------

    def new_page(self, pin: bool = True) -> Page:
        """Allocate and place a fresh page of the set's page size."""
        node = self.node
        pool = node.pool
        paging = node.paging
        dataset = self.dataset
        with pool.lock:
            page = Page(node.next_page_id(), dataset.page_size, shard=self)
            tick = paging.tick()
            page.created_tick = tick
            page.last_access_tick = tick
            paging.note_access(page)
            pool.place(page)
            self.recency.insert(page)
            if pin:
                pool.pin(page)
            self.pages.append(page)
            self._by_id[page.page_id] = page
            dataset.attributes.access_recency = tick
            self.metrics.created_pages += 1
            tracer = node.tracer
            if tracer is not None:
                tracer.instant("shard.new_page", "shard",
                               set=self.dataset.name, page_id=page.page_id)
            return page

    def seal_page(self, page: Page) -> None:
        """Finish writing a page; write-through sets persist it immediately."""
        node = self.node
        with node.pool.lock:
            page.seal()
            tracer = node.tracer
            if self.dataset.attributes.durability is DurabilityType.WRITE_THROUGH:
                start = node.clock.now
                self.file.write_page(page.page_id, page.records, page.size)
                page.on_disk = True
                page.dirty = False
                node.paging.note_page_image(page)
                if tracer is not None:
                    tracer.span("shard.seal", "shard", start,
                                node.clock.now - start,
                                set=self.dataset.name, page_id=page.page_id,
                                persisted=True)
            elif tracer is not None:
                tracer.instant("shard.seal", "shard", set=self.dataset.name,
                               page_id=page.page_id, persisted=False)

    def touch(self, page: Page) -> None:
        """Record a page access for the recency model."""
        paging = self.node.paging
        tick = paging.tick()
        page.last_access_tick = tick
        self.dataset.attributes.access_recency = tick
        self.recency.touch(page)
        paging.note_access(page)

    def pin_page(self, page: Page) -> Page:
        """Pin a page, reloading it from disk if it was evicted."""
        pool = self.node.pool
        with pool.lock:
            self.metrics.pins += 1
            if page.offset is None:
                if not page.on_disk:
                    raise ValueError(
                        f"page {page.page_id} of set {self.dataset.name!r} is "
                        f"neither in memory nor on disk"
                    )
                start = self.node.clock.now
                try:
                    records, _cost = self.file.read_page(page.page_id)
                except PageCorruptionError:
                    records = self._read_repair(page)
                pool.place(page)
                self.recency.insert(page)
                page.records = records
                page.dirty = False
                pool.stats.pageins += 1
                pool.stats.bytes_paged_in += page.size
                self.metrics.misses += 1
                self.metrics.bytes_paged_in += page.size
                if self.dataset.attributes.reading_pattern is ReadingPattern.RANDOM_READ:
                    self.charge_reread_penalty(page)
                tracer = self.node.tracer
                if tracer is not None:
                    tracer.span("shard.pagein", "paging", start,
                                self.node.clock.now - start,
                                set=self.dataset.name, page_id=page.page_id,
                                nbytes=page.size)
            pool.pin(page)
            self.touch(page)
            return page

    def charge_reread_penalty(self, page: Page) -> None:
        """Charge the CPU time of rebuilding a re-read page of spilled
        random-access data: the paper's reconstruction penalty ``wr > 1``."""
        extra = self.attributes.random_reread_penalty - 1.0
        if extra > 0:
            self.node.cpu.compute(
                extra * page.size / self.node.disks.disks[0].read_bandwidth
            )

    def unpin_page(self, page: Page) -> None:
        self.node.pool.unpin(page)

    def stored_records(self, page: Page) -> list:
        """The page's records, or else its disk image decoded metadata-side
        (no I/O charged; see :meth:`SetFile.peek_records`).  A disk image
        that fails its checksum reads as empty."""
        if not page.records and page.on_disk:
            return self.file.peek_records(page.page_id)
        return page.records

    def read_records(self, page: Page) -> list:
        """The page's records, or else its disk image read and checksum-verified
        at the disk's cost, without placing the page in the pool."""
        if not page.records and page.on_disk:
            return self.file.read_page(page.page_id)[0]
        return page.records

    def _read_repair(self, page: Page) -> list:
        """Rebuild a corrupted page image from surviving replica copies.

        The page's object ids (recorded when its image was persisted) are
        looked up in every other member of the replication group, then in
        the group's safety sets.  A full reconstruction rewrites the local
        image with a fresh checksum; a partial one re-raises
        :class:`PageCorruptionError` — at that point data is genuinely lost.
        """
        dataset = self.dataset
        manager = getattr(dataset.cluster, "manager", None)
        group = None
        if manager is not None and dataset.replica_group_id is not None:
            group = manager.replica_group(dataset.replica_group_id)
        ids = dataset.page_image_ids(self.node.node_id, page.page_id)
        if group is None or group.object_id_fn is None or ids is None:
            raise PageCorruptionError(
                f"page {page.page_id} of set {dataset.name!r} on node "
                f"{self.node.node_id} is corrupt and has no replica group "
                f"(or no page index) to repair from"
            )
        object_id_fn = group.object_id_fn
        wanted = set(ids)
        found: dict = {}
        sources = [member for member in group.members if member is not dataset]
        if group.colliding_set is not None:
            sources.append(group.colliding_set)
        sources.extend(group.extra_safety_sets)
        for source in sources:
            if not wanted:
                break
            for node_id in sorted(source.shards):
                if not wanted:
                    break
                shard = source.shards[node_id]
                if shard.node.failed:
                    continue
                for source_page in shard.pages:
                    if not wanted:
                        break
                    try:
                        candidates = shard.read_records(source_page)
                    except PageCorruptionError:
                        continue  # this copy is damaged too; keep looking
                    if not candidates:
                        continue
                    shard.node.cpu.per_object(len(candidates))
                    matched = 0
                    for record in candidates:
                        object_id = object_id_fn(record)
                        if object_id in wanted:
                            found[object_id] = record
                            wanted.discard(object_id)
                            matched += 1
                    if matched and shard.node is not self.node:
                        shard.node.network.transfer(
                            matched * dataset.object_bytes,
                            peer=self.node.network,
                        )
        if wanted:
            raise PageCorruptionError(
                f"read-repair of page {page.page_id} of set {dataset.name!r} "
                f"on node {self.node.node_id} failed: {len(wanted)} object(s) "
                f"unrecoverable from {len(sources)} surviving source(s)"
            )
        repaired = [found[object_id] for object_id in ids]
        self.file.write_page(page.page_id, repaired, page.size)
        self.node.robustness.read_repairs += 1
        self.pool.stats.read_repairs += 1
        self.metrics.read_repairs += 1
        tracer = self.node.tracer
        if tracer is not None:
            tracer.instant("shard.read_repair", "recovery",
                           set=dataset.name, page_id=page.page_id)
        return repaired

    def evict_page(self, page: Page) -> EvictResult:
        """Evict one unpinned page: :meth:`evict_pages` of one page."""
        return self.evict_pages([page])[0]

    def evict_pages(self, pages: "list[Page]") -> "list[EvictResult]":
        """Evict unpinned pages of this shard in one round; reports, per
        page, the bytes freed and whether its image was actually written out.

        Dirty pages of live write-back sets are flushed to the set's file
        first (the paper's ``cw`` term becomes real I/O here), all of them
        through one :meth:`SetFile.write_many
        <repro.fs.page_file.SetFile.write_many>`, which charges one striped
        :class:`~repro.sim.devices.DiskArray` transfer (one seek) for the
        whole image group.  Pages of dead sets or already-persisted pages
        are simply dropped.  The ``flushed`` flag in each result is the
        ground truth the ``shard.evict`` trace instant records, beside the
        page's dirty bit before the flush (``was_dirty``) — a dirty page
        whose image was already persisted is *not* reported as flushed.

        One pass validates the whole batch before anything is touched and
        picks the pages to flush; their images are written and recorded,
        and then one pass releases every page.  Each counter moves once
        per batch, by the batch's totals.
        """
        node = self.node
        pool = node.pool
        with pool.lock:
            alive = self.dataset.attributes.alive
            marks: "list[tuple[bool, bool]]" = []  # (was_dirty, flushed)
            flush: "list[Page]" = []
            for page in pages:
                if page.pin_count > 0:
                    raise ValueError(f"cannot evict pinned page {page.page_id}")
                if page.offset is None:
                    raise ValueError(f"page {page.page_id} is not in memory")
                dirty = page.dirty
                must_flush = dirty and alive and not page.on_disk
                marks.append((dirty, must_flush))
                if must_flush:
                    flush.append(page)
            tracer = node.tracer
            if flush:
                start = node.clock.now
                self.file.write_many([(p.page_id, p.records, p.size) for p in flush])
                paging = node.paging
                for page in flush:
                    page.on_disk = True
                    page.dirty = False
                    paging.note_page_image(page)
                flushed_bytes = sum(p.size for p in flush)
                pool.stats.pageouts += len(flush)
                pool.stats.bytes_paged_out += flushed_bytes
                self.metrics.flushed_pages += len(flush)
                self.metrics.flushed_bytes += flushed_bytes
                if tracer is not None:
                    tracer.span("shard.flush_batch", "paging", start,
                                node.clock.now - start,
                                set=self.dataset.name, pages=len(flush),
                                nbytes=flushed_bytes)
            recency = self.recency
            results: "list[EvictResult]" = []
            for page, (dirty, must_flush) in zip(pages, marks):
                freed = page.size
                pool.release(page)
                recency.remove(page)
                page.records = []
                if tracer is not None:
                    tracer.instant("shard.evict", "paging",
                                   set=self.dataset.name, page_id=page.page_id,
                                   was_dirty=dirty, flushed=must_flush,
                                   nbytes=freed)
                results.append(EvictResult(freed=freed, flushed=must_flush))
            pool.stats.evictions += len(pages)
            self.metrics.evictions += len(pages)
            return results

    def drop_page(self, page: Page) -> None:
        """Remove a page from the shard entirely (set deletion/truncation)."""
        with self.pool.lock:
            if page.in_memory:
                if page.pinned:
                    raise ValueError(f"cannot drop pinned page {page.page_id}")
                self.pool.release(page)
                self.recency.remove(page)
            self.file.drop_page(page.page_id)
            self.pages.remove(page)
            del self._by_id[page.page_id]

    def clear(self) -> None:
        """Drop every page.  Data organized in large blocks deallocates in
        one shot — the cheap bulk-delete the paper measures in Fig. 7."""
        for page in list(self.pages):
            self.drop_page(page)

    # ------------------------------------------------------------------
    # views used by the paging policies
    # ------------------------------------------------------------------

    def resident_unpinned_pages(self) -> list[Page]:
        with self.pool.lock:
            return [p for p in self.pages if p.in_memory and not p.pinned]

    @property
    def num_objects(self) -> int:
        return sum(p.num_objects for p in self.pages)

    @property
    def logical_bytes(self) -> int:
        return sum(p.used_bytes for p in self.pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalShard(set={self.dataset.name!r}, node={self.node.node_id}, "
            f"pages={len(self.pages)})"
        )


class LocalitySet:
    """The distributed handle for one dataset stored in Pangea."""

    def __init__(
        self,
        set_id: int,
        name: str,
        cluster: "object",
        page_size: int,
        attributes: LocalitySetAttributes,
        object_bytes: int = 100,
    ) -> None:
        self.set_id = set_id
        self.name = name
        self.cluster = cluster
        self.page_size = page_size
        self.attributes = attributes
        #: Default logical size of one record; writers may override per call.
        self.object_bytes = object_bytes
        #: Live service attachments, used to infer CurrentOperation.
        self.active_readers = 0
        self.active_writers = 0
        self.shards: dict[int, LocalShard] = {}
        # Populated by the placement layer when this set is a registered
        # replica produced by a partition computation.
        self.partition_scheme: "object | None" = None
        self.partitioner: "object | None" = None
        self.replica_group_id: int | None = None
        #: (node_id, page_id) -> object ids backing that page's disk image;
        #: maintained once the set joins a replication group, consumed by
        #: the buffer layer's read-repair path.
        self._page_ids: dict[tuple[int, int], list] = {}
        self._dispatch_cursor = 0
        #: Guards the dispatch cursor and the reader/writer attachment
        #: counters against concurrent service attach/detach.
        self._service_lock = threading.Lock()

    # ------------------------------------------------------------------
    # shard management
    # ------------------------------------------------------------------

    def add_shard(self, node: "WorkerNode") -> LocalShard:
        shard = LocalShard(self, node)
        self.shards[node.node_id] = shard
        return shard

    def next_dispatch_shard(self) -> LocalShard:
        """Round-robin dispatch target for randomly dispatched sets."""
        node_ids = sorted(self.shards)
        with self._service_lock:
            node_id = node_ids[self._dispatch_cursor % len(node_ids)]
            self._dispatch_cursor += 1
        return self.shards[node_id]

    # ------------------------------------------------------------------
    # service entry points (paper Sec. 3.2 code examples)
    # ------------------------------------------------------------------

    def add_object(self, record: object, nbytes: int | None = None) -> None:
        """Sequential-write a single object (dispatched round-robin)."""
        from repro.services.sequential import SequentialWriter

        shard = self.next_dispatch_shard()
        with SequentialWriter(shard) as writer:
            writer.add_object(record, nbytes)

    def add_data(self, records: list, nbytes_each: int | None = None) -> None:
        """Sequential-write a batch, spread round-robin across nodes."""
        from repro.services.sequential import SequentialWriter

        if not records:
            return
        node_ids = sorted(self.shards)
        num = len(node_ids)
        for index, node_id in enumerate(node_ids):
            chunk = records[index::num]
            if not chunk:
                continue
            with SequentialWriter(self.shards[node_id]) as writer:
                writer.add_data(chunk, nbytes_each)

    def get_page_iterators(self, num_threads: int = 1) -> "list[PageIterator]":
        """Concurrent page iterators covering every shard (paper Sec. 8)."""
        from repro.services.sequential import make_page_iterators

        return make_page_iterators(self, num_threads)

    def scan_records(self, workers: int = 1) -> "typing.Iterator":
        """Convenience full scan: an iterator over every record in the set.

        Records stream straight from each pinned page's list; the scan
        attaches its readers at the first ``next()``.
        """
        return itertools.chain.from_iterable(self._scan_pages(workers))

    def _scan_pages(self, workers: int):
        """Each page's records in scan order, the page pinned meanwhile."""
        iterators = self.get_page_iterators(workers)
        try:
            for iterator in iterators:
                for page in iterator:
                    yield page.records
        finally:
            # An abandoned scan closes the iterators it never reached.
            for iterator in iterators:
                iterator.close()

    # ------------------------------------------------------------------
    # page-image index (read-repair support)
    # ------------------------------------------------------------------

    def note_page_image(self, shard: LocalShard, page: Page) -> None:
        """Index the object ids of a freshly persisted page image."""
        if self.replica_group_id is None:
            return
        manager = getattr(self.cluster, "manager", None)
        if manager is None:
            return
        group = manager.replica_group(self.replica_group_id)
        if group.object_id_fn is None:
            return
        self._page_ids[(shard.node.node_id, page.page_id)] = [
            group.object_id_fn(record) for record in page.records
        ]

    def remember_page_ids(self, node_id: int, page_id: int, ids: list) -> None:
        """Bulk-index a page's object ids (used at replica registration)."""
        self._page_ids[(node_id, page_id)] = list(ids)

    def page_image_ids(self, node_id: int, page_id: int) -> "list | None":
        return self._page_ids.get((node_id, page_id))

    def end_lifetime(self) -> None:
        self.attributes.end_lifetime()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return sum(s.num_objects for s in self.shards.values())

    @property
    def logical_bytes(self) -> int:
        return sum(s.logical_bytes for s in self.shards.values())

    @property
    def num_pages(self) -> int:
        return sum(len(s.pages) for s in self.shards.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalitySet({self.name!r}, pages={self.num_pages}, "
            f"objects={self.num_objects})"
        )


__all__ = ["EvictResult", "LocalitySet", "LocalShard", "WritingPattern"]
