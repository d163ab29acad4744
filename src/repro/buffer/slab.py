"""A Memcached-style slab allocator.

Pangea uses slab allocation in two places (paper Secs. 5 and 8): as an
alternative pool allocator, and — more importantly — as the *secondary*
allocator inside every hash-service page, where it bounds all key-value
allocations to the memory hosting that page and gives the hash map the
better space utilization the paper credits for Pangea spilling at 300M keys
where the STL map starts swapping at 200M.
"""

from __future__ import annotations

import bisect
import functools
import math

from repro.sim.devices import MB


class SlabExhaustedError(MemoryError):
    """Raised when the arena has no room for another slab.

    For hash-service pages this is the signal to split a new child hash
    partition or spill the page (paper Sec. 8).
    """


@functools.cache
def build_size_classes(
    chunk_min: int = 80, growth_factor: float = 1.25, chunk_max: int = 1 * MB
) -> tuple[int, ...]:
    """The geometric chunk-size ladder memcached uses.

    Like memcached's start-up table, the ladder is computed once per
    geometry: every allocator of the same geometry shares one tuple.
    """
    if chunk_min <= 0:
        raise ValueError("chunk_min must be positive")
    if growth_factor <= 1.0:
        raise ValueError("growth_factor must be > 1")
    classes = []
    size = chunk_min
    while size < chunk_max:
        classes.append(size)
        size = max(size + 8, int(math.ceil(size * growth_factor / 8.0) * 8))
    classes.append(chunk_max)
    return tuple(classes)


class SlabAllocator:
    """Allocate chunks from fixed-size slabs carved out of one arena.

    The arena is a contiguous region of ``capacity`` bytes (for the hash
    service: the usable interior of a single buffer-pool page).  Slabs of
    ``slab_size`` bytes are carved from the arena head; each slab is divided
    into equal chunks belonging to one size class.
    """

    def __init__(
        self,
        capacity: int,
        slab_size: int = 1 * MB,
        chunk_min: int = 80,
        growth_factor: float = 1.25,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        slab_size = min(slab_size, capacity)
        self.capacity = capacity
        self.slab_size = slab_size
        self.size_classes = build_size_classes(
            chunk_min=chunk_min, growth_factor=growth_factor, chunk_max=slab_size
        )
        self._arena_head = 0
        # Per class: list of free chunk offsets (created on the class's first
        # free), and the carving frontier of the class's current slab as
        # (next_offset, end_offset).
        self._free_chunks: dict[int, list[int]] = {}
        self._frontier: dict[int, tuple[int, int]] = {}
        self._chunk_class: dict[int, int] = {}
        self.used_bytes = 0
        self.requested_bytes = 0

    def _class_for(self, size: int) -> int:
        idx = bisect.bisect_left(self.size_classes, size)
        if idx >= len(self.size_classes):
            raise ValueError(
                f"allocation of {size} bytes exceeds the largest chunk class "
                f"({self.size_classes[-1]} bytes)"
            )
        return idx

    def _grow_class(self, cls: int) -> None:
        remaining = self.capacity - self._arena_head
        chunk = self.size_classes[cls]
        slab = min(self.slab_size, remaining)
        if slab < chunk:
            raise SlabExhaustedError(
                f"arena exhausted: {remaining} bytes left, need a slab holding "
                f"at least one {chunk}-byte chunk"
            )
        self._frontier[cls] = (self._arena_head, self._arena_head + slab)
        self._arena_head += slab

    def alloc(self, size: int) -> int:
        """Allocate a chunk for ``size`` bytes; return its offset."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        cls = self._class_for(size)
        chunk_size = self.size_classes[cls]
        free_list = self._free_chunks.get(cls)
        if free_list:
            offset = free_list.pop()
        else:
            frontier = self._frontier.get(cls)
            if frontier is None or frontier[0] + chunk_size > frontier[1]:
                self._grow_class(cls)
                frontier = self._frontier[cls]
            offset, end = frontier
            self._frontier[cls] = (offset + chunk_size, end)
        self._chunk_class[offset] = cls
        self.used_bytes += chunk_size
        self.requested_bytes += size
        return offset

    def free(self, offset: int, size: int) -> None:
        """Return the chunk at ``offset`` (allocated for ``size`` bytes)."""
        cls = self._chunk_class.pop(offset, None)
        if cls is None:
            raise ValueError(f"no allocated chunk at offset {offset}")
        free_list = self._free_chunks.get(cls)
        if free_list is None:
            free_list = self._free_chunks[cls] = []
        free_list.append(offset)
        self.used_bytes -= self.size_classes[cls]
        self.requested_bytes -= size

    def chunk_size_for(self, size: int) -> int:
        """The chunk size a request of ``size`` bytes would consume."""
        return self.size_classes[self._class_for(size)]

    @property
    def free_bytes(self) -> int:
        """Bytes still available, counting free chunks and uncarved arena."""
        uncarved = self.capacity - self._arena_head
        in_frontiers = sum(end - nxt for nxt, end in self._frontier.values())
        in_free_lists = sum(
            len(chunks) * self.size_classes[cls]
            for cls, chunks in self._free_chunks.items()
        )
        return uncarved + in_frontiers + in_free_lists

    @property
    def utilization(self) -> float:
        """Requested bytes over arena bytes consumed (internal-fragmentation view)."""
        if self._arena_head == 0:
            return 1.0
        return self.requested_bytes / self._arena_head
