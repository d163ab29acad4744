"""The per-node unified buffer pool."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.buffer.page import Page
from repro.buffer.slab import SlabAllocator, SlabExhaustedError
from repro.buffer.tlsf import TlsfAllocator


class BufferPoolFullError(MemoryError):
    """No space could be found or reclaimed for a page placement."""


@dataclass
class PoolStats:
    """Counters the paging benchmarks report."""

    placements: int = 0
    releases: int = 0
    evictions: int = 0
    pageouts: int = 0
    bytes_paged_out: int = 0
    pageins: int = 0
    bytes_paged_in: int = 0
    #: Page-ins whose on-disk image failed checksum verification and was
    #: rebuilt from a surviving replica before the pin completed.
    read_repairs: int = 0

    def reset(self) -> None:
        self.placements = 0
        self.releases = 0
        self.evictions = 0
        self.pageouts = 0
        self.bytes_paged_out = 0
        self.pageins = 0
        self.bytes_paged_in = 0
        self.read_repairs = 0


class _SlabPoolAdapter:
    """Adapt :class:`SlabAllocator` to the pool-allocator interface.

    Used for the paper's allocator ablation (TLSF vs Memcached slab as the
    pool allocator).  The slab allocator needs the size at free time, so the
    adapter remembers it.
    """

    def __init__(self, capacity: int, max_page_size: int) -> None:
        self._slab = SlabAllocator(
            capacity, slab_size=max_page_size, chunk_min=4096, growth_factor=1.25
        )
        self._sizes: dict[int, int] = {}

    @property
    def capacity(self) -> int:
        return self._slab.capacity

    @property
    def used_bytes(self) -> int:
        return self._slab.used_bytes

    def malloc(self, size: int) -> int | None:
        try:
            offset = self._slab.alloc(size)
        except (SlabExhaustedError, ValueError):
            return None
        self._sizes[offset] = size
        return offset

    def free(self, offset: int) -> int:
        size = self._sizes.pop(offset, None)
        if size is None:
            raise ValueError(f"no allocated page at offset {offset}")
        self._slab.free(offset, size)
        return self._slab.chunk_size_for(size)

    def allocated_size(self, offset: int) -> int:
        size = self._sizes.get(offset)
        if size is None:
            raise ValueError(f"no allocated page at offset {offset}")
        return self._slab.chunk_size_for(size)


class BufferPool:
    """All RAM Pangea manages on one node, shared by every locality set.

    ``evictor`` is a callable ``(needed_bytes) -> bool`` installed by the
    paging system; it must evict at least one page (or return ``False`` when
    nothing is evictable).  Placement retries until the allocator succeeds,
    the evictor gives up, an eviction round makes no progress (reports
    success but frees no bytes), or ``max_eviction_rounds`` is exhausted —
    the last two conditions bound the retry loop so a buggy or starved
    evictor surfaces as :class:`BufferPoolFullError` instead of a livelock.

    Thread-safe: :attr:`lock` is the node's storage lock, a reentrant lock
    guarding the allocator, the resident-page table, pin counts, and the
    stats counters.  It is reentrant because eviction re-enters the pool:
    ``place`` → evictor → ``LocalShard.evict_pages`` → ``release``.  Lock
    ordering is documented in ``docs/api.md`` ("Concurrency model"): the
    pool lock is acquired before the paging-system lock, never after.
    """

    def __init__(
        self,
        capacity: int,
        allocator: str = "tlsf",
        max_page_size: int | None = None,
        max_eviction_rounds: int = 4096,
    ) -> None:
        if capacity <= 0:
            raise ValueError("buffer pool capacity must be positive")
        if max_eviction_rounds < 1:
            raise ValueError("max_eviction_rounds must be positive")
        self.capacity = capacity
        if allocator == "tlsf":
            self._alloc = TlsfAllocator(capacity)
        elif allocator == "slab":
            self._alloc = _SlabPoolAdapter(capacity, max_page_size or capacity // 8)
        else:
            raise ValueError(f"unknown pool allocator {allocator!r} (tlsf|slab)")
        self.allocator_kind = allocator
        self.max_eviction_rounds = max_eviction_rounds
        self.pages: dict[int, Page] = {}
        self.evictor: Callable[[int], bool] | None = None
        self.stats = PoolStats()
        #: The node's storage lock; shards and the paging system take it
        #: around every page-state transition.
        self.lock = threading.RLock()
        #: Optional :class:`~repro.obs.tracer.NodeTracer`; installed by
        #: :meth:`repro.cluster.node.WorkerNode.attach_tracer`.
        self.tracer = None

    # ------------------------------------------------------------------
    # placement and release
    # ------------------------------------------------------------------

    def place(self, page: Page) -> None:
        """Give ``page`` a memory location, evicting others if necessary.

        ``malloc`` is only tried while the pool has at least ``page.size``
        free bytes: a block that large cannot exist with fewer, so the
        guard skips exactly the attempts that would fail and every
        placement and eviction round is the one the unguarded loop makes.
        """
        with self.lock:
            if page.offset is not None:
                raise ValueError(f"page {page.page_id} is already in memory")
            alloc = self._alloc
            size = page.size
            rounds = 0
            while True:
                if self.capacity - alloc.used_bytes >= size:
                    offset = alloc.malloc(size)
                    if offset is not None:
                        page.offset = offset
                        self.pages[page.page_id] = page
                        self.stats.placements += 1
                        tracer = self.tracer
                        if tracer is not None:
                            tracer.instant("pool.place", "buffer",
                                           page_id=page.page_id, size=size,
                                           eviction_rounds=rounds)
                            tracer.counter("pool.used_bytes", "buffer",
                                           used=alloc.used_bytes,
                                           capacity=self.capacity)
                        return
                if self.evictor is None:
                    raise BufferPoolFullError(
                        f"cannot place a {size}-byte page: pool has "
                        f"{self.free_bytes} free bytes and no evictor installed"
                    )
                if rounds >= self.max_eviction_rounds:
                    raise BufferPoolFullError(
                        f"cannot place a {size}-byte page after "
                        f"{rounds} eviction rounds ({self.free_bytes} free bytes)"
                    )
                used_before = alloc.used_bytes
                if not self.evictor(size):
                    raise BufferPoolFullError(
                        f"cannot place a {size}-byte page: pool has "
                        f"{self.free_bytes} free bytes and nothing evictable"
                    )
                rounds += 1
                if alloc.used_bytes >= used_before:
                    raise BufferPoolFullError(
                        f"eviction round {rounds} reported success but freed "
                        f"no bytes; refusing to retry placement of a "
                        f"{size}-byte page"
                    )

    def release(self, page: Page) -> None:
        """Drop ``page`` from memory (payload stays with the caller)."""
        with self.lock:
            offset = page.offset
            if offset is None:
                raise ValueError(f"page {page.page_id} is not in memory")
            if page.pin_count > 0:
                raise ValueError(
                    f"page {page.page_id} is pinned and cannot be released"
                )
            self._alloc.free(offset)
            page.offset = None
            del self.pages[page.page_id]
            self.stats.releases += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.instant("pool.release", "buffer",
                               page_id=page.page_id, size=page.size)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------

    def pin(self, page: Page) -> None:
        """Pin an in-memory page (reference counted)."""
        with self.lock:
            if page.offset is None:
                raise ValueError(
                    f"page {page.page_id} must be placed in memory before pinning"
                )
            pins = page.pin_count + 1
            page.pin_count = pins
            shard = page.shard
            if pins == 1 and shard is not None:
                # Keep the shard's recency index's pinned count exact so
                # evictability stays an O(1) query (see repro.core.recency).
                shard.recency.note_pin(page)
            tracer = self.tracer
            if tracer is not None:
                tracer.instant("pool.pin", "buffer", page_id=page.page_id,
                               pin_count=pins)

    def unpin(self, page: Page) -> None:
        with self.lock:
            pins = page.pin_count
            if pins <= 0:
                raise ValueError(f"page {page.page_id} is not pinned")
            page.pin_count = pins - 1
            shard = page.shard
            if pins == 1 and shard is not None:
                shard.recency.note_unpin(page)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._alloc.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._alloc.used_bytes

    def resident_pages(self) -> Iterable[Page]:
        with self.lock:
            return list(self.pages.values())

    def check_invariants(self) -> None:
        """Verify residency, overlap, and accounting invariants (tests).

        Asserts that every resident page has an offset, no two resident
        pages overlap in the arena, no page is simultaneously evicted and
        pinned, and the allocator's ``used_bytes`` reconciles exactly with
        the blocks backing the resident pages.
        """
        with self.lock:
            spans: list[tuple[int, int, int]] = []
            accounted = 0
            for page in self.pages.values():
                if not page.in_memory:
                    raise AssertionError(
                        f"page {page.page_id} is in the resident table "
                        f"without a memory offset"
                    )
                allocated = self._alloc.allocated_size(page.offset)
                if allocated < page.size:
                    raise AssertionError(
                        f"page {page.page_id} holds {page.size} bytes in a "
                        f"{allocated}-byte block"
                    )
                accounted += allocated
                spans.append((page.offset, allocated, page.page_id))
            spans.sort()
            for (o1, s1, id1), (o2, _s2, id2) in zip(spans, spans[1:]):
                if o1 + s1 > o2:
                    raise AssertionError(
                        f"pages {id1} and {id2} overlap in the pool "
                        f"([{o1}, {o1 + s1}) vs offset {o2})"
                    )
            if accounted != self._alloc.used_bytes:
                raise AssertionError(
                    f"allocator accounting drifted: resident pages occupy "
                    f"{accounted} bytes but used_bytes is {self._alloc.used_bytes}"
                )

    def __contains__(self, page: Page) -> bool:
        return page.page_id in self.pages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self.capacity}, used={self.used_bytes}, "
            f"pages={len(self.pages)})"
        )
