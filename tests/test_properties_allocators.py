"""Property-based tests for the TLSF and slab allocators (ISSUE 1).

Random malloc/free sequences, driven by hypothesis, must never produce
overlapping live blocks, and the allocator's ``used_bytes`` must always
reconcile with the set of live allocations.  The driver mirrors how the
buffer pool uses each allocator: variable-sized requests, frees in
arbitrary order, and retries after exhaustion.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.slab import SlabAllocator, SlabExhaustedError
from repro.buffer.tlsf import TlsfAllocator

ARENA = 1 << 20  # 1 MB


def assert_no_overlap(live: dict) -> None:
    """``live`` maps offset -> reserved size; spans must be disjoint."""
    spans = sorted(live.items())
    for (o1, s1), (o2, _s2) in zip(spans, spans[1:]):
        assert o1 + s1 <= o2, f"blocks [{o1},{o1 + s1}) and at {o2} overlap"


class TestTlsfProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.integers(20, 300),
        max_request=st.sampled_from([256, 4096, 65536]),
    )
    def test_random_malloc_free_never_overlaps_and_reconciles(
        self, seed, ops, max_request
    ):
        rng = random.Random(seed)
        alloc = TlsfAllocator(ARENA)
        live: dict[int, int] = {}
        for _ in range(ops):
            if live and (rng.random() < 0.4 or alloc.free_bytes < max_request):
                offset = rng.choice(list(live))
                del live[offset]
                alloc.free(offset)
            else:
                size = rng.randint(1, max_request)
                offset = alloc.malloc(size)
                if offset is None:
                    continue
                live[offset] = alloc.allocated_size(offset)
            assert_no_overlap(live)
            assert alloc.used_bytes == sum(live.values())
            assert 0 <= alloc.used_bytes <= alloc.capacity
            alloc.check_invariants()
        for offset in list(live):
            alloc.free(offset)
        assert alloc.used_bytes == 0
        alloc.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_free_everything_restores_one_block(self, seed):
        rng = random.Random(seed)
        alloc = TlsfAllocator(ARENA)
        offsets = []
        while True:
            offset = alloc.malloc(rng.randint(64, 8192))
            if offset is None:
                break
            offsets.append(offset)
        rng.shuffle(offsets)
        for offset in offsets:
            alloc.free(offset)
        assert alloc.used_bytes == 0
        alloc.check_invariants()  # no two free blocks are adjacent
        assert alloc.malloc(ARENA) == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_double_free_always_rejected(self, seed):
        rng = random.Random(seed)
        alloc = TlsfAllocator(ARENA)
        offset = alloc.malloc(rng.randint(64, 4096))
        alloc.free(offset)
        try:
            alloc.free(offset)
        except ValueError:
            return
        raise AssertionError("double free was accepted")


class TestSlabProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.integers(20, 300),
    )
    def test_random_alloc_free_never_overlaps_and_reconciles(self, seed, ops):
        rng = random.Random(seed)
        alloc = SlabAllocator(
            ARENA, slab_size=64 * 1024, chunk_min=80, growth_factor=1.25
        )
        live: dict[int, tuple[int, int]] = {}  # offset -> (requested, chunk)
        for _ in range(ops):
            if live and rng.random() < 0.4:
                offset = rng.choice(list(live))
                requested, _chunk = live.pop(offset)
                alloc.free(offset, requested)
            else:
                size = rng.randint(1, 32 * 1024)
                try:
                    offset = alloc.alloc(size)
                except SlabExhaustedError:
                    continue
                live[offset] = (size, alloc.chunk_size_for(size))
            assert_no_overlap({o: chunk for o, (_r, chunk) in live.items()})
            assert alloc.used_bytes == sum(c for _r, c in live.values())
            assert alloc.requested_bytes == sum(r for r, _c in live.values())
            assert 0 <= alloc.used_bytes <= alloc.capacity
        for offset, (requested, _chunk) in list(live.items()):
            alloc.free(offset, requested)
        assert alloc.used_bytes == 0
        assert alloc.requested_bytes == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_freed_chunks_are_recycled_within_class(self, seed):
        rng = random.Random(seed)
        alloc = SlabAllocator(ARENA, slab_size=64 * 1024)
        size = rng.randint(81, 100)
        first = alloc.alloc(size)
        alloc.free(first, size)
        again = alloc.alloc(size)
        assert again == first
