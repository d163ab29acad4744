"""The circular buffer of pinned-page metadata (paper Fig. 2)."""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class PageMeta:
    """What the storage process sends for each pinned page: enough to
    locate it in shared memory."""

    page_id: int
    offset: int
    size: int
    num_objects: int


class CircularBuffer:
    """A bounded ring buffer of :class:`PageMeta`.

    The storage process produces entries as it pins pages; computation
    workers consume them.  When the ring is full the producer stalls
    (counted in :attr:`producer_stalls` — a sign the workers are the
    bottleneck); when empty, consumers stall (:attr:`consumer_stalls`).

    :meth:`put` and :meth:`get` never block: the data proxy's cooperative
    fill/drain loop relies on that.  A single mutex keeps each operation
    atomic, so threads may share one ring.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("circular buffer capacity must be positive")
        self.capacity = capacity
        self._slots: list = [None] * capacity
        self._head = 0
        self._tail = 0
        self._count = 0
        self.producer_stalls = 0
        self.consumer_stalls = 0
        self._closed = False
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    @property
    def empty(self) -> bool:
        return self._count == 0

    def put(self, meta: PageMeta) -> bool:
        """Producer side; returns False (and counts a stall) when full."""
        with self._lock:
            if self._closed:
                raise ValueError("cannot put into a closed buffer")
            if self._count == self.capacity:
                self.producer_stalls += 1
                return False
            self._slots[self._tail] = meta
            self._tail = (self._tail + 1) % self.capacity
            self._count += 1
            return True

    def get(self) -> "PageMeta | None":
        """Consumer side; returns None (and counts a stall) when empty."""
        with self._lock:
            if self._count == 0:
                if not self._closed:
                    self.consumer_stalls += 1
                return None
            meta = self._slots[self._head]
            self._slots[self._head] = None
            self._head = (self._head + 1) % self.capacity
            self._count -= 1
            return meta

    def close(self) -> None:
        """Producer signals NoMorePage (paper Fig. 2)."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def drained(self) -> bool:
        with self._lock:
            return self._closed and self._count == 0

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"CircularBuffer({self._count}/{self.capacity}, {state})"
