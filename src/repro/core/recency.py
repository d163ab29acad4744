"""Per-shard intrusive recency indexes for sublinear victim selection.

The paging policies read eviction order from :class:`RecencyIndex`, an
ordered structure maintained *incrementally* by the page lifecycle itself,
instead of walking the page list and sorting it by ``last_access_tick`` on
every ``make_room`` round:

* :meth:`insert` when a page becomes resident (``new_page`` or a page-in
  reload inside ``pin_page``);
* :meth:`touch` on every access (``LocalShard.touch`` → ``move_to_end``);
* :meth:`remove` when a page leaves memory (``evict_pages``/``drop_page``);
* :meth:`note_pin`/:meth:`note_unpin` on pin-count 0↔1 transitions
  (hooked in :meth:`BufferPool.pin <repro.buffer.pool.BufferPool.pin>`).

Because every access draws a fresh value from the node's
:class:`~repro.sim.clock.TickCounter`, ``last_access_tick`` values are
unique per node and never tie, so the index order (an
:class:`~collections.OrderedDict`, i.e. a doubly-linked list keyed by page
id) is exactly the order a sort by ``last_access_tick`` gives — MRU pops
from the tail, LRU from the head, both O(1) plus a skip over any pinned
pages in the way.  ``tests/golden/eviction_traces.json`` pins the
resulting eviction decisions; ``PYTHONPATH=src python
tests/test_paging_index.py`` re-captures it.

All mutations happen under the node's storage lock (the callers already
hold it); reads from the paging policies run inside ``make_room``, which
the buffer pool invokes with the same lock held.
"""

from __future__ import annotations

import typing
from collections import OrderedDict

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.buffer.page import Page


class RecencyIndex:
    """Resident pages of one shard, ordered oldest → newest access."""

    __slots__ = ("_pages", "_pinned")

    def __init__(self) -> None:
        self._pages: "OrderedDict[int, Page]" = OrderedDict()
        #: Number of indexed pages currently pinned (kept by the pool's
        #: pin/unpin transition hooks so evictability is an O(1) check).
        self._pinned = 0

    # ------------------------------------------------------------------
    # incremental maintenance (called by the page lifecycle)
    # ------------------------------------------------------------------

    def insert(self, page: "Page") -> None:
        """Index a page that just became resident (most recent position)."""
        if page.page_id in self._pages:  # pragma: no cover - defensive
            return
        self._pages[page.page_id] = page
        if page.pin_count > 0:
            self._pinned += 1

    def remove(self, page: "Page") -> None:
        """Drop a page that left memory (eviction or page drop)."""
        if self._pages.pop(page.page_id, None) is not None and page.pin_count > 0:
            self._pinned -= 1  # pragma: no cover - evict/drop require unpinned

    def touch(self, page: "Page") -> None:
        """Move an accessed page to the most-recent end (O(1))."""
        if page.page_id in self._pages:
            self._pages.move_to_end(page.page_id)

    def note_pin(self, page: "Page") -> None:
        """Pin-count 0→1 transition of an indexed page."""
        if page.page_id in self._pages:
            self._pinned += 1

    def note_unpin(self, page: "Page") -> None:
        """Pin-count 1→0 transition of an indexed page."""
        if page.page_id in self._pages:
            self._pinned -= 1

    # ------------------------------------------------------------------
    # O(1) queries for the paging policies
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def evictable_count(self) -> int:
        """Resident, unpinned pages — without walking the page list."""
        return len(self._pages) - self._pinned

    def peek_lru(self) -> "Page | None":
        """Least-recently-used unpinned page (skips pinned pages)."""
        for page in self._pages.values():
            if page.pin_count == 0:
                return page
        return None

    def peek_mru(self) -> "Page | None":
        """Most-recently-used unpinned page (skips pinned pages)."""
        for page in reversed(self._pages.values()):
            if page.pin_count == 0:
                return page
        return None

    def iter_evictable(self, newest_first: bool = False):
        """Unpinned pages in recency order (a lazy generator)."""
        pages = reversed(self._pages.values()) if newest_first else self._pages.values()
        for page in pages:
            if page.pin_count == 0:
                yield page

    def top_evictable(self, count: int, newest_first: bool = False) -> "list[Page]":
        """The first ``count`` unpinned pages from either end.

        Equivalent to ``sorted(resident_unpinned, key=tick)[:count]`` (or
        the ``reverse=True`` variant) because access ticks are unique.
        """
        out: "list[Page]" = []
        for page in self.iter_evictable(newest_first):
            out.append(page)
            if len(out) >= count:
                break
        return out

    # ------------------------------------------------------------------
    # verification (tests only)
    # ------------------------------------------------------------------

    def check_consistency(self, shard) -> None:
        """Assert the index matches a fresh scan of the shard's pages."""
        resident = [p for p in shard.pages if p.in_memory]
        indexed = list(self._pages.values())
        if {p.page_id for p in resident} != {p.page_id for p in indexed}:
            raise AssertionError(
                f"recency index of set {shard.dataset.name!r} is out of sync: "
                f"indexed {sorted(p.page_id for p in indexed)} vs resident "
                f"{sorted(p.page_id for p in resident)}"
            )
        ticks = [p.last_access_tick for p in indexed]
        if ticks != sorted(ticks):
            raise AssertionError(
                f"recency index of set {shard.dataset.name!r} is misordered: "
                f"{ticks}"
            )
        pinned = sum(1 for p in indexed if p.pin_count > 0)
        if pinned != self._pinned:
            raise AssertionError(
                f"recency index of set {shard.dataset.name!r} counts "
                f"{self._pinned} pinned pages but {pinned} are pinned"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecencyIndex(pages={len(self._pages)}, pinned={self._pinned})"


__all__ = ["RecencyIndex"]
