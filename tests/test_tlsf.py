"""Tests for the TLSF allocator, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.tlsf import MIN_BLOCK_SIZE, TlsfAllocator, _mapping, _mapping_search


class TestMapping:
    def test_power_of_two_lands_on_boundary(self):
        fl, sl = _mapping(1 << 10)
        assert fl == 10
        assert sl == 0

    def test_mapping_search_rounds_up(self):
        size = (1 << 10) + 1
        fl_s, sl_s = _mapping_search(size)
        fl, sl = _mapping(size)
        assert (fl_s, sl_s) >= (fl, sl)

    def test_monotone_in_size(self):
        previous = (0, 0)
        for size in range(64, 4096, 8):
            current = _mapping(size)
            assert current >= previous
            previous = current


class TestTlsfBasics:
    def test_simple_alloc_free(self):
        alloc = TlsfAllocator(1024)
        offset = alloc.malloc(128)
        assert offset == 0
        assert alloc.used_bytes == 128
        alloc.free(offset)
        assert alloc.used_bytes == 0

    def test_alloc_rounds_to_min_block(self):
        alloc = TlsfAllocator(1024)
        alloc.malloc(1)
        assert alloc.used_bytes == MIN_BLOCK_SIZE

    def test_distinct_offsets(self):
        alloc = TlsfAllocator(4096)
        offsets = [alloc.malloc(256) for _ in range(8)]
        assert len(set(offsets)) == 8

    def test_exhaustion_returns_none(self):
        alloc = TlsfAllocator(1024)
        assert alloc.malloc(1024) == 0
        assert alloc.malloc(64) is None

    def test_free_makes_space_reusable(self):
        alloc = TlsfAllocator(1024)
        offset = alloc.malloc(1024)
        assert alloc.malloc(64) is None
        alloc.free(offset)
        assert alloc.malloc(1024) == 0

    def test_coalescing_restores_full_block(self):
        alloc = TlsfAllocator(4096)
        offsets = [alloc.malloc(1024) for _ in range(4)]
        assert alloc.malloc(64) is None
        for offset in offsets:
            alloc.free(offset)
        alloc.check_invariants()  # no two free blocks are adjacent
        assert alloc.malloc(4096) == 0

    def test_coalesce_out_of_order(self):
        alloc = TlsfAllocator(4096)
        offsets = [alloc.malloc(1024) for _ in range(4)]
        for offset in (offsets[2], offsets[0], offsets[3], offsets[1]):
            alloc.free(offset)
        assert alloc.malloc(4096) == 0

    def test_double_free_rejected(self):
        alloc = TlsfAllocator(1024)
        offset = alloc.malloc(128)
        alloc.free(offset)
        with pytest.raises(ValueError):
            alloc.free(offset)

    def test_free_unknown_offset_rejected(self):
        alloc = TlsfAllocator(1024)
        with pytest.raises(ValueError):
            alloc.free(17)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            TlsfAllocator(1024).malloc(0)

    def test_tiny_arena_rejected(self):
        with pytest.raises(ValueError):
            TlsfAllocator(16)

    def test_allocated_size_reports_rounding(self):
        alloc = TlsfAllocator(1024)
        offset = alloc.malloc(100)
        assert alloc.allocated_size(offset) == 104

    def test_variable_sizes_fill_arena(self):
        alloc = TlsfAllocator(1 << 20)
        sizes = [100, 5000, 77, 64000, 333, 1 << 18]
        offsets = [alloc.malloc(s) for s in sizes]
        assert all(o is not None for o in offsets)
        # No overlap between any allocated regions.
        regions = sorted(
            (o, alloc.allocated_size(o)) for o in offsets
        )
        for (o1, s1), (o2, _s2) in zip(regions, regions[1:]):
            assert o1 + s1 <= o2

    def test_a_bucket_hands_out_its_oldest_free_block_first(self):
        alloc = TlsfAllocator(1 << 16)
        # Blocks of one bucket, kept apart by allocated separators so that
        # freeing them coalesces nothing.
        blocks = []
        for _ in range(3):
            blocks.append(alloc.malloc(1024))
            alloc.malloc(256)
        # The rest of the arena is one block in a higher bucket.
        freed = [blocks[1], blocks[0], blocks[2]]
        for offset in freed:
            alloc.free(offset)
        assert [alloc.malloc(1024) for _ in freed] == freed
        alloc.check_invariants()

    def test_invariants_after_mixed_ops(self):
        alloc = TlsfAllocator(1 << 16)
        live = []
        for i in range(50):
            offset = alloc.malloc(64 + (i * 37) % 2000)
            if offset is not None:
                live.append(offset)
            if i % 3 == 0 and live:
                alloc.free(live.pop(0))
        alloc.check_invariants()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=8192)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=120,
    )
)
def test_tlsf_property_random_ops(ops):
    """Invariants hold and no regions overlap under any op sequence."""
    alloc = TlsfAllocator(1 << 17)
    live: list[int] = []
    for kind, value in ops:
        if kind == "alloc":
            offset = alloc.malloc(value)
            if offset is not None:
                live.append(offset)
        elif live:
            index = value % len(live)
            alloc.free(live.pop(index))
    alloc.check_invariants()
    regions = sorted((o, alloc.allocated_size(o)) for o in live)
    for (o1, s1), (o2, _s2) in zip(regions, regions[1:]):
        assert o1 + s1 <= o2
    assert alloc.used_bytes == sum(alloc.allocated_size(o) for o in live)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=60))
def test_tlsf_property_full_free_restores_arena(sizes):
    """Freeing everything always coalesces back to one block."""
    alloc = TlsfAllocator(1 << 18)
    offsets = []
    for size in sizes:
        offset = alloc.malloc(size)
        if offset is not None:
            offsets.append(offset)
    for offset in offsets:
        alloc.free(offset)
    assert alloc.used_bytes == 0
    alloc.check_invariants()  # no two free blocks are adjacent
    assert alloc.malloc(1 << 18) == 0
