"""A two-level segregated fit (TLSF) allocator.

Pangea's default pool allocator (paper Sec. 5) is TLSF [Masmano et al. 2004]
because it is space-efficient when allocating variable-sized pages from one
shared arena.  This is a faithful offset-space implementation: free blocks
are indexed by a first level (power-of-two size class) and a second level
(linear subdivision of each power of two), lookups use bitmaps so malloc and
free are O(1), and freed blocks coalesce with their physical neighbours.
"""

from __future__ import annotations

import functools

SL_LOG2 = 4
SL_COUNT = 1 << SL_LOG2
ALIGNMENT = 8
MIN_BLOCK_SIZE = 64


class _Block:
    """A contiguous region of the arena, free or allocated."""

    __slots__ = ("offset", "size", "free", "prev_phys", "next_phys")

    def __init__(self, offset: int, size: int) -> None:
        self.offset = offset
        self.size = size
        self.free = True
        self.prev_phys: _Block | None = None
        self.next_phys: _Block | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "free" if self.free else "used"
        return f"_Block(off={self.offset}, size={self.size}, {state})"


def _align_up(size: int) -> int:
    size = max(size, MIN_BLOCK_SIZE)
    return (size + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


@functools.lru_cache(maxsize=4096)
def _mapping(size: int) -> tuple[int, int]:
    """Map a block size to its (first-level, second-level) bucket.

    Memoized: real workloads allocate from a handful of page-size classes,
    so the bucket math collapses to a dict hit on the malloc/free hot path.
    """
    fl = size.bit_length() - 1
    if fl <= SL_LOG2:
        return 0, size >> (ALIGNMENT.bit_length() - 1)
    sl = (size >> (fl - SL_LOG2)) & (SL_COUNT - 1)
    return fl, sl


@functools.lru_cache(maxsize=4096)
def _mapping_search(size: int) -> tuple[int, int]:
    """Round the request up so any block in the bucket is large enough."""
    fl = size.bit_length() - 1
    if fl <= SL_LOG2:
        return _mapping(size)
    rounded = size + (1 << (fl - SL_LOG2)) - 1
    return _mapping(rounded)


class TlsfAllocator:
    """Manage an arena of ``capacity`` bytes of offset space."""

    def __init__(self, capacity: int) -> None:
        if capacity < MIN_BLOCK_SIZE:
            raise ValueError(f"arena must be at least {MIN_BLOCK_SIZE} bytes")
        self.capacity = capacity
        #: ``(fl, sl)`` -> that bucket's free blocks, oldest first.  A
        #: bucket is an insertion-ordered dict used as a set, so a block
        #: leaves it in O(1) and the oldest block is still the one handed
        #: out; emptied buckets stay, so an insert or a remove is one
        #: bucket lookup.
        self._free_lists: dict[tuple[int, int], dict[_Block, None]] = {}
        self._fl_bitmap = 0
        self._sl_bitmaps = [0] * (capacity.bit_length() + 1)
        self._by_offset: dict[int, _Block] = {}
        self.used_bytes = 0
        initial = _Block(0, capacity)
        self._by_offset[0] = initial
        self._insert_free(initial)

    # ------------------------------------------------------------------
    # free-list maintenance
    # ------------------------------------------------------------------

    def _insert_free(self, block: _Block) -> None:
        key = _mapping(block.size)
        bucket = self._free_lists.get(key)
        if bucket is None:
            bucket = self._free_lists[key] = {}
        if not bucket:
            fl, sl = key
            self._fl_bitmap |= 1 << fl
            self._sl_bitmaps[fl] |= 1 << sl
        bucket[block] = None
        block.free = True

    def _remove_free(self, block: _Block) -> None:
        key = _mapping(block.size)
        bucket = self._free_lists[key]
        del bucket[block]
        if not bucket:
            fl, sl = key
            bitmap = self._sl_bitmaps[fl] & ~(1 << sl)
            self._sl_bitmaps[fl] = bitmap
            if not bitmap:
                self._fl_bitmap &= ~(1 << fl)
        block.free = False

    def _find_suitable(self, size: int) -> _Block | None:
        """The oldest block of the lowest non-empty bucket at or above the
        search bucket (``x & -x`` isolates a bitmap's lowest set bit)."""
        fl, sl = _mapping_search(size)
        fl_bitmap = self._fl_bitmap
        masked = 0
        if fl_bitmap & (1 << fl):
            masked = self._sl_bitmaps[fl] & (-1 << sl)
        if not masked:
            masked = fl_bitmap & (-1 << (fl + 1))
            if not masked:
                return None
            fl = (masked & -masked).bit_length() - 1
            # A set first-level bit always has a non-empty second level.
            masked = self._sl_bitmaps[fl]
        sl = (masked & -masked).bit_length() - 1
        # The good-fit rounding in _mapping_search guarantees every block in
        # a bucket at or above the search bucket is large enough.
        return next(iter(self._free_lists[(fl, sl)]))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int | None:
        """Allocate ``size`` bytes; return the offset or ``None`` if full."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        size = _align_up(size)
        block = self._find_suitable(size)
        if block is None:
            return None
        self._remove_free(block)
        remainder = block.size - size
        if remainder >= MIN_BLOCK_SIZE:
            tail = _Block(block.offset + size, remainder)
            tail.prev_phys = block
            tail.next_phys = block.next_phys
            if block.next_phys is not None:
                block.next_phys.prev_phys = tail
            block.next_phys = tail
            block.size = size
            self._by_offset[tail.offset] = tail
            self._insert_free(tail)
        self.used_bytes += block.size
        return block.offset

    def free(self, offset: int) -> int:
        """Release the block at ``offset``; return the bytes returned."""
        block = self._by_offset.get(offset)
        if block is None or block.free:
            raise ValueError(f"no allocated block at offset {offset}")
        self.used_bytes -= block.size
        freed = block.size
        # Coalesce with the next physical block.
        nxt = block.next_phys
        if nxt is not None and nxt.free:
            self._remove_free(nxt)
            del self._by_offset[nxt.offset]
            block.size += nxt.size
            block.next_phys = nxt.next_phys
            if nxt.next_phys is not None:
                nxt.next_phys.prev_phys = block
        # Coalesce with the previous physical block.
        prev = block.prev_phys
        if prev is not None and prev.free:
            self._remove_free(prev)
            del self._by_offset[block.offset]
            prev.size += block.size
            prev.next_phys = block.next_phys
            if block.next_phys is not None:
                block.next_phys.prev_phys = prev
            block = prev
        self._insert_free(block)
        return freed

    def allocated_size(self, offset: int) -> int:
        """The rounded-up size actually reserved for the block at ``offset``."""
        block = self._by_offset.get(offset)
        if block is None or block.free:
            raise ValueError(f"no allocated block at offset {offset}")
        return block.size

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def check_invariants(self) -> None:
        """Verify physical-list and accounting invariants (tests only)."""
        total = 0
        offset = 0
        block = self._by_offset.get(0)
        if block is not None:
            while block.prev_phys is not None:  # pragma: no cover
                block = block.prev_phys
        seen_used = 0
        while block is not None:
            if block.offset != offset:
                raise AssertionError(
                    f"physical chain broken: expected offset {offset}, "
                    f"got {block.offset}"
                )
            if block.free and block.next_phys is not None and block.next_phys.free:
                raise AssertionError("adjacent free blocks were not coalesced")
            total += block.size
            if not block.free:
                seen_used += block.size
            offset += block.size
            block = block.next_phys
        if total != self.capacity:
            raise AssertionError(f"blocks cover {total} bytes of {self.capacity}")
        if seen_used != self.used_bytes:
            raise AssertionError(
                f"used_bytes accounting drifted: {seen_used} != {self.used_bytes}"
            )
