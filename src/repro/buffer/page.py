"""Pages: the unit of buffering, spilling, and persistence."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalShard


class Page:
    """One fixed-size page of a locality set on one node.

    A page's *logical* size is paper-scale (e.g. 64MB or 256MB); its actual
    payload is the scaled-down list of Python records in :attr:`records`.
    Simulated costs are always charged against the logical size.

    A page can live in memory (``offset`` set), on disk (``on_disk``), or
    both — the paper notes a locality-set page need not have a file image.
    """

    __slots__ = (
        "page_id",
        "shard",
        "size",
        "offset",
        "pin_count",
        "dirty",
        "on_disk",
        "sealed",
        "last_access_tick",
        "created_tick",
        "used_bytes",
        "records",
        "num_objects",
    )

    def __init__(self, page_id: int, size: int, shard: "LocalShard | None" = None) -> None:
        if size <= 0:
            raise ValueError(f"page size must be positive, got {size}")
        self.page_id = page_id
        self.shard = shard
        self.size = size
        self.offset: int | None = None
        self.pin_count = 0
        self.dirty = False
        self.on_disk = False
        self.sealed = False
        self.last_access_tick = 0
        self.created_tick = 0
        self.used_bytes = 0
        self.records: list = []
        self.num_objects = 0

    @property
    def in_memory(self) -> bool:
        return self.offset is not None

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def free_bytes(self) -> int:
        return self.size - self.used_bytes

    def append(self, record: object, nbytes: int) -> None:
        """Write one record into the page (no durability side effects)."""
        if self.sealed:
            raise ValueError(f"page {self.page_id} is sealed")
        if nbytes > self.free_bytes:
            raise ValueError(
                f"record of {nbytes} bytes does not fit in page {self.page_id} "
                f"({self.free_bytes} bytes free)"
            )
        self.records.append(record)
        self.num_objects += 1
        self.used_bytes += nbytes
        self.dirty = True

    def extend(self, records: list, nbytes_each: int) -> None:
        """Bulk-append same-size records (one accounting update).

        Equivalent to ``append`` in a loop — same checks, same final
        state — minus the per-record Python call; the batched shuffle
        write path uses this at small-page granularity.
        """
        total = len(records) * nbytes_each
        if self.sealed:
            raise ValueError(f"page {self.page_id} is sealed")
        if total > self.size - self.used_bytes:
            raise ValueError(
                f"{total} bytes do not fit in page {self.page_id} "
                f"({self.free_bytes} bytes free)"
            )
        self.records.extend(records)
        self.num_objects += len(records)
        self.used_bytes += total
        self.dirty = True

    def seal(self) -> None:
        """Mark the page fully written; sealed pages reject further appends."""
        self.sealed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = []
        if self.in_memory:
            where.append(f"mem@{self.offset}")
        if self.on_disk:
            where.append("disk")
        state = "+".join(where) or "nowhere"
        return (
            f"Page(id={self.page_id}, size={self.size}, used={self.used_bytes}, "
            f"pins={self.pin_count}, {state})"
        )
