"""Pangea's distributed services (paper Sec. 8).

Services are how applications entrust their data to Pangea, and also how
locality-set attributes are learned at runtime: attaching the sequential
write service implies ``sequential-write`` + ``write``, the shuffle service
implies ``concurrent-write``, the hash service implies
``random-mutable-write`` + ``random-read``, and so on.
"""

from repro.services.dispatcher import Dispatcher, ImportReport
from repro.services.hashsvc import VirtualHashBuffer
from repro.services.sequential import (
    NodeFailedError,
    PageIterator,
    SequentialWriter,
    ShardWriters,
    make_page_iterators,
    make_shard_iterators,
    resolve_readable_source,
)
from repro.services.shuffle import ShuffleService, SmallPageAllocator, VirtualShuffleBuffer

__all__ = [
    "Dispatcher",
    "ImportReport",
    "SequentialWriter",
    "ShardWriters",
    "PageIterator",
    "NodeFailedError",
    "make_page_iterators",
    "make_shard_iterators",
    "resolve_readable_source",
    "ShuffleService",
    "SmallPageAllocator",
    "VirtualShuffleBuffer",
    "VirtualHashBuffer",
]
