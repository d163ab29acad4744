"""The hash service: virtual hash buffers over page-bounded partitions.

Pangea's hash service (paper Sec. 8) uses dynamic partitioning: every
buffer-pool page hosts an *independent* hash table plus all of its
key-value payload, with a Memcached-style slab allocator bounding every
allocation to the page's memory.  The service starts from ``K`` root
partitions; when a page fills, a child partition is split off onto a new
page (extendible-hashing style).  When no new page can be obtained, a full
page is sealed, unpinned, and spilled as a partial-aggregation result;
:meth:`VirtualHashBuffer.finalize` re-aggregates the spilled partials.

Every write — ``insert``, ``set``, ``insert_many`` and ``finalize``'s
re-insertion — goes through one loop, ``VirtualHashBuffer._write``.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass

from repro.buffer.page import Page
from repro.buffer.pool import BufferPoolFullError
from repro.buffer.slab import SlabAllocator, SlabExhaustedError
from repro.core.attributes import ReadingPattern, WritingPattern
from repro.util import estimate_bytes, stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalitySet, LocalShard

#: Per-entry bookkeeping bytes (bucket pointer, chain link, sizes).
ENTRY_OVERHEAD = 32


def _page_slab(page_size: int) -> SlabAllocator:
    """The secondary slab allocator bounded to one hash page.

    Slabs are 1MB for ordinary pages (memcached's default); for very large
    pages the slab grows to page_size/16 so that inflated logical records
    (scale-down mode) still fit a chunk.
    """
    return SlabAllocator(
        page_size, slab_size=min(page_size, max(1 << 20, page_size // 16))
    )


@dataclass
class HashServiceStats:
    inserts: int = 0
    combines: int = 0
    splits: int = 0
    spills: int = 0
    reloads: int = 0


class HashPartitionPage:
    """One page hosting one hash partition.

    The live table is a Python dict; every entry also reserves a slab chunk
    in the page so that memory pressure behaves like the paper's
    implementation (better utilization than a general-purpose allocator,
    hence later spilling).
    """

    def __init__(self, shard: "LocalShard", page: Page, root_index: int, depth: int) -> None:
        self.shard = shard
        self.page = page
        self.root_index = root_index
        self.depth = depth
        self.table: dict = {}
        self.slab = _page_slab(page.size)
        self.spilled = False

    def try_reserve(self, nbytes: int) -> int | None:
        try:
            return self.slab.alloc(nbytes)
        except SlabExhaustedError:
            return None

    def release(self, offset: int, nbytes: int) -> None:
        self.slab.free(offset, nbytes)

    def sync_page_accounting(self) -> None:
        self.page.used_bytes = min(self.page.size, self.slab.used_bytes)
        self.page.num_objects = len(self.table)
        self.page.dirty = True

    def spill(self) -> None:
        """Seal + unpin: the page becomes an evictable partial result.

        Spilled records carry their logical payload size so re-insertion
        during re-aggregation reserves the same memory.
        """
        self.page.records = [
            (k, v[0], v[2] - ENTRY_OVERHEAD) for k, v in self.table.items()
        ]
        self.page.num_objects = len(self.page.records)
        self.page.dirty = True
        self.table = {}
        self.spilled = True
        self.shard.seal_page(self.page)
        self.shard.unpin_page(self.page)
        tracer = self.shard.node.tracer
        if tracer is not None:
            tracer.instant("hash.spill", "service",
                           set=self.shard.dataset.name,
                           page_id=self.page.page_id,
                           objects=self.page.num_objects,
                           root_index=self.root_index, depth=self.depth)


class _RootPartition:
    """One of the K root partitions, with extendible splitting."""

    def __init__(self, service: "VirtualHashBuffer", shard: "LocalShard", root_index: int) -> None:
        self.service = service
        self.shard = shard
        self.root_index = root_index
        self.local_depth = 0
        first = HashPartitionPage(shard, shard.new_page(pin=True), root_index, depth=0)
        self.directory: list[HashPartitionPage] = [first]
        self.spilled_pages: list[Page] = []

    def slot_index(self, sub_hash: int) -> int:
        return sub_hash & ((1 << self.local_depth) - 1)

    def page_for(self, sub_hash: int) -> HashPartitionPage:
        return self.directory[self.slot_index(sub_hash)]

    def live_pages(self) -> list[HashPartitionPage]:
        seen: dict[int, HashPartitionPage] = {}
        for part in self.directory:
            seen[id(part)] = part
        return list(seen.values())

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def split(self, part: HashPartitionPage) -> None:
        """Split a full partition onto a freshly allocated page."""
        if part.depth == self.local_depth:
            self.directory = self.directory + self.directory
            self.local_depth += 1
        sibling = HashPartitionPage(
            self.shard,
            self.shard.new_page(pin=True),
            self.root_index,
            depth=part.depth + 1,
        )
        part.depth += 1
        bit = 1 << (part.depth - 1)
        stay: dict = {}
        for key, (value, sub_hash, nbytes) in part.table.items():
            if sub_hash & bit:
                offset = sibling.slab.alloc(nbytes)
                sibling.table[key] = (value, sub_hash, nbytes)
                del offset  # offsets are bookkeeping; identity lives in the table
            else:
                stay[key] = (value, sub_hash, nbytes)
        # Rebuild the staying side's slab compactly (a split rewrites the page).
        part.table = stay
        part.slab = _page_slab(part.page.size)
        for key, (value, sub_hash, nbytes) in stay.items():
            part.slab.alloc(nbytes)
        part.sync_page_accounting()
        sibling.sync_page_accounting()
        for index in range(len(self.directory)):
            if self.directory[index] is part and (index >> (part.depth - 1)) & 1:
                self.directory[index] = sibling
        node = self.shard.node
        moved = len(sibling.table)
        node.cpu.per_object(moved, factor=2.0)
        node.cpu.memcpy(sum(n for _, _, n in sibling.table.values()))
        self.service.stats.splits += 1

    def spill_one(self) -> HashPartitionPage:
        """Spill the fullest live partition and mount a fresh page in its slot."""
        live = [p for p in self.live_pages() if not p.spilled]
        victim = max(live, key=lambda p: p.slab.used_bytes)
        victim.spill()
        self.spilled_pages.append(victim.page)
        self.service.stats.spills += 1
        fresh = HashPartitionPage(
            self.shard, self.shard.new_page(pin=True), self.root_index, victim.depth
        )
        for index in range(len(self.directory)):
            if self.directory[index] is victim:
                self.directory[index] = fresh
        return fresh


class VirtualHashBuffer:
    """The application-facing hash map bounded by the buffer pool.

    ``combiner`` merges a new value into an existing one (hash aggregation);
    the default keeps the newest value, matching the paper's
    ``insert``/``set`` example.  Use :meth:`finalize` (or iterate
    :meth:`items`) to fold spilled partial results back in.  After
    :meth:`finalize`, :meth:`items` or :meth:`release` the buffer takes
    no more writes.
    """

    def __init__(
        self,
        dataset: "LocalitySet",
        num_root_partitions: int = 16,
        combiner: "typing.Callable | None" = None,
    ) -> None:
        if num_root_partitions < 1:
            raise ValueError("need at least one root partition")
        self.dataset = dataset
        self.num_roots = num_root_partitions
        self.combiner = combiner
        self.stats = HashServiceStats()
        self._finalized = False
        self._released = False
        dataset.active_writers += 1
        dataset.attributes.note_write_service(WritingPattern.RANDOM_MUTABLE_WRITE)
        dataset.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        shard_list = [dataset.shards[nid] for nid in sorted(dataset.shards)]
        self.roots: list[_RootPartition] = []
        try:
            for i in range(num_root_partitions):
                self.roots.append(_RootPartition(self, shard_list[i % len(shard_list)], i))
        except BaseException:
            # A root that gets no page (BufferPoolFullError) must not leave
            # the earlier roots' pages pinned, or the set cannot be dropped.
            for root in self.roots:
                root.shard.unpin_page(root.directory[0].page)
            self._detach()
            raise
        #: Each root's node CPU, charged once per write call.
        self._cpus = [root.shard.node.cpu for root in self.roots]
        #: key -> (root index, sub_hash) memo for the write path.
        self._route_cache: dict = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _route(self, key: object) -> tuple[int, int]:
        """``(root index, sub_hash)`` of ``key``."""
        h = stable_hash(key)
        return h % self.num_roots, h // self.num_roots

    # ------------------------------------------------------------------
    # the paper's find/insert/set API
    # ------------------------------------------------------------------

    def find(self, key: object):
        """Return the current value for ``key`` or ``None``."""
        index, sub = self._route(key)
        root = self.roots[index]
        entry = root.page_for(sub).table.get(key)
        root.shard.node.cpu.per_object(1)
        return entry[0] if entry is not None else None

    def insert(self, key: object, value: object, nbytes: int | None = None) -> None:
        """Insert a new key (combines when the key already exists)."""
        self._write([(key, value, nbytes)], combine=True)

    def set(self, key: object, value: object, nbytes: int | None = None) -> None:
        """Overwrite the value for an existing or new key."""
        self._write([(key, value, nbytes)], combine=False)

    def insert_many(
        self, keys: list, values: list, nbytes: int | None = None
    ) -> None:
        """:meth:`insert` over aligned key/value columns, each pair of
        ``nbytes`` (or, without it, sized on its own).  Columns of
        different lengths raise :class:`ValueError` before anything is
        stored.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"insert_many needs aligned columns, got {len(keys)} keys "
                f"and {len(values)} values"
            )
        self._write(zip(keys, values, itertools.repeat(nbytes)), combine=True)

    def _write(self, entries: "typing.Iterable[tuple]", combine: bool) -> None:
        """The one write path: store or update each ``(key, value, nbytes)``
        entry, then charge each root's node once.

        An existing key combines (``combine`` with a combiner) or is
        overwritten in place; a new key reserves page memory (``nbytes``,
        or else its key and value's estimated size, plus
        ``ENTRY_OVERHEAD``), growing the root until it fits.  An entry
        costs a whole number of ticks, so summing them per root and
        advancing each clock once leaves it exactly where charging entry
        by entry does; combines all cost the same, so each root counts
        them and is charged ``count * record_ticks(0, 1, 1.5)``.  A closed
        buffer raises :class:`RuntimeError` before anything is touched.
        """
        if self._finalized:
            raise RuntimeError("hash buffer already finalized")
        if self._released:
            raise RuntimeError("hash buffer already released")
        roots = self.roots
        cpus = self._cpus
        combiner = self.combiner if combine else None
        # Routing is a pure function of the key (splits only deepen the
        # per-root directory, consulted below), so cache it across calls;
        # aggregation keys repeat heavily and stable_hash is pure Python.
        route = self._route_cache
        ticks = [0] * self.num_roots
        combined = [0] * self.num_roots
        try:
            for key, value, nbytes in entries:
                cached = route.get(key)
                if cached is None:
                    cached = route[key] = self._route(key)
                index, sub = cached
                root = roots[index]
                part = root.directory[sub & ((1 << root.local_depth) - 1)]
                existing = part.table.get(key)
                if existing is not None:
                    if combiner is not None:
                        value = combiner(existing[0], value)
                    part.table[key] = (value, existing[1], existing[2])
                    combined[index] += 1
                else:
                    if nbytes is None:
                        nbytes = estimate_bytes(key) + estimate_bytes(value)
                    entry_bytes = nbytes + ENTRY_OVERHEAD
                    attempts = 0
                    while part.try_reserve(entry_bytes) is None:
                        part = self._grow(root, part, sub, attempts)
                        attempts += 1
                    part.table[key] = (value, sub, entry_bytes)
                    part.sync_page_accounting()
                    self.stats.inserts += 1
                    ticks[index] += cpus[index].record_ticks(entry_bytes, 1, 1.5)
        finally:
            self.stats.combines += sum(combined)
            for cpu, total, count in zip(cpus, ticks, combined):
                total += count * cpu.record_ticks(0, 1, 1.5)
                if total and cpu.clock is not None:
                    cpu.clock.advance_ticks(total)

    def _grow(
        self, root: _RootPartition, part: HashPartitionPage, sub: int, attempts: int
    ) -> HashPartitionPage:
        """Make room for an insert: split if a page is available, else spill.

        After a few unproductive splits (hash-collision pathologies) the
        partition is force-spilled so the insert always terminates.
        """
        if attempts >= 3:
            root.spill_one()
            return root.page_for(sub)
        try:
            root.split(part)
        except BufferPoolFullError:
            root.spill_one()
        return root.page_for(sub)

    # ------------------------------------------------------------------
    # finalization: re-aggregate the spilled partials
    # ------------------------------------------------------------------

    def _detach(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self.dataset.active_writers -= 1
        self.dataset.attributes.note_service_detached(
            self.dataset.active_readers, self.dataset.active_writers
        )

    def _read_spilled(self, root: _RootPartition, page: Page) -> list:
        """Fetch a spilled page's partial result, charging reload costs.

        Reads go straight from the set's file into transient merge memory
        (not through the pool), so re-aggregation cannot deadlock against
        the pinned live pages.  Rebuilding hash structure from spilled data
        pays the paper's ``wr > 1`` penalty as extra CPU time.
        """
        if page.in_memory:
            records = list(page.records)
        else:
            records, _cost = root.shard.file.read_page(page.page_id)
            root.shard.charge_reread_penalty(page)
        self.stats.reloads += 1
        return records

    def finalize(self, max_rounds_per_spill: int = 10) -> None:
        """Fold every spilled partial result back into the live tables.

        For callers that need the whole map resident for random lookups
        with :meth:`find`.  Re-inserting may spill again under
        pressure; a bound on total rounds turns a map that simply does not
        fit into a clear error instead of thrashing forever.
        """
        if self._finalized:
            return
        budget = max(1, sum(len(r.spilled_pages) for r in self.roots)) * max_rounds_per_spill
        for root in self.roots:
            rounds = 0
            while root.spilled_pages:
                rounds += 1
                if rounds > budget:
                    raise BufferPoolFullError(
                        f"hash map for set {self.dataset.name!r} does not fit "
                        f"in the buffer pool even after {rounds - 1} "
                        f"re-aggregation rounds"
                    )
                # A combiner folds one partial at a time into the live
                # tables.  Without one the newest value wins: take every
                # spill, a later one over an earlier one, and skip the live
                # keys (a live value is newer than any spill).  Each key
                # then has one home, so spilling again cannot revive a
                # stale value.
                count = 1 if self.combiner is not None else len(root.spilled_pages)
                pages = root.spilled_pages[:count]
                del root.spilled_pages[:count]
                records: list = []
                for page in pages:
                    records.extend(self._read_spilled(root, page))
                    if page in root.shard.pages and not page.pinned:
                        root.shard.drop_page(page)
                if self.combiner is None:
                    live = {key for part in root.live_pages() for key in part.table}
                    records = list({r[0]: r for r in records if r[0] not in live}.values())
                self._write(records, combine=True)
        self._detach()

    def items(self) -> "typing.Iterator[tuple[object, object]]":
        """Stream the final (key, value) pairs.

        Re-aggregation is per root partition: each root's live tables and
        spilled partials merge in transient memory (the paper's final
        aggregation stage streams its output onward), so results larger
        than the buffer pool still complete — just slowly, because every
        spilled page is re-read and rebuilt.  A combiner folds the live
        value first, then each spill in spill order; without one the
        newest value wins.
        """
        self._detach()
        combiner = self.combiner
        for root in self.roots:
            live = (
                (key, entry[0])
                for part in root.live_pages()
                for key, entry in part.table.items()
            )
            spilled = (
                (key, value)
                for page in root.spilled_pages
                for key, value, _nbytes in self._read_spilled(root, page)
            )
            if combiner is None:
                # The newest value wins: every spill is older than the live
                # tables, and a later spill is newer than an earlier one.
                merged = dict(spilled)
                merged.update(live)
            else:
                merged = {}
                for key, value in itertools.chain(live, spilled):
                    merged[key] = combiner(merged[key], value) if key in merged else value
            root.shard.node.cpu.per_object(len(merged))
            yield from merged.items()

    def __len__(self) -> int:
        """Entries held: the live tables' keys plus every spilled page's
        object count (kept when the page is evicted).

        A key can sit in a live table and in several spills, so while any
        partial result is spilled this is an upper bound on the distinct
        keys; with nothing spilled (after :meth:`finalize`) it is exact.
        Counting reads no page and charges no simulated time.
        """
        total = 0
        for root in self.roots:
            for part in root.live_pages():
                total += len(part.table)
            total += sum(page.num_objects for page in root.spilled_pages)
        return total

    def release(self) -> None:
        """Unpin every live page so the set can be evicted or dropped.

        The buffer stays readable (:meth:`find`, :meth:`items`, ``len``)
        but takes no more writes.
        """
        self._released = True
        for root in self.roots:
            for part in root.live_pages():
                if not part.spilled and part.page.pinned:
                    part.page.records = [
                        (k, v[0], v[2] - ENTRY_OVERHEAD)
                        for k, v in part.table.items()
                    ]
                    root.shard.seal_page(part.page)
                    root.shard.unpin_page(part.page)
                    part.spilled = True
