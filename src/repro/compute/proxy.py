"""The data proxy: socket metadata, shared-memory data (paper Fig. 2)."""

from __future__ import annotations

import typing

from repro.compute.circular import CircularBuffer, PageMeta

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.buffer.page import Page
    from repro.core.locality_set import LocalShard


class DataProxy:
    """The computation process's gateway to the storage process.

    Metadata (page offsets in the shared memory pool) crosses a socket;
    the data itself never moves — computations read pages in place.  The
    proxy drives the GetSetPages flow: the storage process pins pages and
    streams their metadata into a circular buffer while workers drain it.

    One proxy serves one node's workers from one caller; it takes no lock
    of its own.  Pinning and unpinning go through the shard, which takes
    the node's storage lock.
    """

    def __init__(self, shard: "LocalShard", buffer_capacity: int = 16) -> None:
        self.shard = shard
        self.buffer = CircularBuffer(buffer_capacity)
        self._pinned: dict[int, Page] = {}
        self._pending: "list[Page]" = []
        self._started = False

    # ------------------------------------------------------------------
    # the GetSetPages flow
    # ------------------------------------------------------------------

    def request_set_pages(self) -> None:
        """Send GetSetPages; the storage process starts pinning."""
        if self._started:
            raise RuntimeError("GetSetPages already sent for this proxy")
        self._started = True
        self.shard.node.network.message(1)
        self._pending = list(self.shard.pages)

    def _storage_fill(self) -> None:
        """Storage-side: pin pages and push their metadata until the ring
        is full or the set is exhausted."""
        while self._pending and not self.buffer.full:
            page = self._pending.pop(0)
            self.shard.pin_page(page)  # reload charged if spilled
            self._pinned[page.page_id] = page
            # One PagePinned message per page (paper Fig. 2).
            self.shard.node.network.message(1)
            self.buffer.put(
                PageMeta(
                    page_id=page.page_id,
                    offset=page.offset if page.offset is not None else 0,
                    size=page.size,
                    num_objects=page.num_objects,
                )
            )
        if not self._pending and not self.buffer.closed:
            self.buffer.close()  # NoMorePage

    def next_page(self) -> "Page | None":
        """Worker-side: pull the next pinned page (None when drained)."""
        if not self._started:
            self.request_set_pages()
        self._storage_fill()
        meta = self.buffer.get()
        if meta is None:
            return None
        return self._pinned[meta.page_id]

    def release_page(self, page: "Page") -> None:
        """Worker finished with a page: unpin it in the storage process."""
        pinned = self._pinned.pop(page.page_id, None)
        if pinned is None:
            raise ValueError(
                f"page {page.page_id} was not served by this proxy"
            )
        self.shard.unpin_page(page)

    def close(self) -> None:
        """Release anything still pinned (worker crash / early exit)."""
        for page in list(self._pinned.values()):
            self.release_page(page)

    @property
    def drained(self) -> bool:
        return self._started and self.buffer.drained and not self._pinned
