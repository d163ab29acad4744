"""Tests for the Memcached-style slab allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.slab import SlabAllocator, SlabExhaustedError, build_size_classes


class TestSizeClasses:
    def test_geometric_growth(self):
        classes = build_size_classes(chunk_min=80, growth_factor=1.25, chunk_max=1 << 20)
        assert classes[0] == 80
        assert classes[-1] == 1 << 20
        for a, b in zip(classes, classes[1:]):
            assert b > a

    def test_aligned_to_eight(self):
        for size in build_size_classes()[:-1]:
            assert size % 8 == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_size_classes(chunk_min=0)
        with pytest.raises(ValueError):
            build_size_classes(growth_factor=1.0)

    @pytest.mark.parametrize("bad", [{"chunk_min": 0}, {"growth_factor": 1.0}])
    def test_invalid_parameters_raise_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                build_size_classes(**bad)
            with pytest.raises(ValueError):
                SlabAllocator(1 << 20, **bad)

    def test_same_geometry_shares_one_ladder(self):
        a = SlabAllocator(1 << 22, slab_size=1 << 20, chunk_min=80, growth_factor=1.25)
        b = SlabAllocator(1 << 23, slab_size=1 << 20, chunk_min=80, growth_factor=1.25)
        assert isinstance(a.size_classes, tuple)
        assert a.size_classes is b.size_classes

    @pytest.mark.parametrize(
        "geometry",
        [
            {"slab_size": 1 << 16},
            {"chunk_min": 96},
            {"growth_factor": 1.5},
        ],
    )
    def test_different_geometries_do_not_share(self, geometry):
        base = SlabAllocator(1 << 22, slab_size=1 << 20, chunk_min=80, growth_factor=1.25)
        other = SlabAllocator(
            1 << 22, **{"slab_size": 1 << 20, "chunk_min": 80, "growth_factor": 1.25, **geometry}
        )
        assert other.size_classes is not base.size_classes
        assert other.size_classes != base.size_classes


class TestSlabAllocator:
    def test_alloc_free_roundtrip(self):
        slab = SlabAllocator(1 << 20)
        offset = slab.alloc(100)
        assert slab.used_bytes >= 100
        slab.free(offset, 100)
        assert slab.used_bytes == 0

    def test_same_class_reuses_chunk(self):
        slab = SlabAllocator(1 << 20)
        offset = slab.alloc(100)
        slab.free(offset, 100)
        assert slab.alloc(100) == offset

    def test_distinct_chunks(self):
        slab = SlabAllocator(1 << 20)
        offsets = {slab.alloc(64) for _ in range(100)}
        assert len(offsets) == 100

    def test_chunk_size_for(self):
        slab = SlabAllocator(1 << 20, chunk_min=80, growth_factor=1.25)
        assert slab.chunk_size_for(80) == 80
        assert slab.chunk_size_for(81) > 80

    def test_exhaustion_raises(self):
        slab = SlabAllocator(4096, slab_size=4096, chunk_min=1024, growth_factor=2.0)
        for _ in range(4):
            slab.alloc(1024)
        with pytest.raises(SlabExhaustedError):
            slab.alloc(1024)

    def test_oversized_request_rejected(self):
        slab = SlabAllocator(1 << 20, slab_size=1 << 16)
        with pytest.raises(ValueError):
            slab.alloc((1 << 16) + 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SlabAllocator(1 << 20).alloc(0)

    def test_free_unknown_offset_rejected(self):
        with pytest.raises(ValueError):
            SlabAllocator(1 << 20).free(12345, 64)

    def test_free_bytes_accounting(self):
        slab = SlabAllocator(1 << 20)
        before = slab.free_bytes
        offset = slab.alloc(128)
        assert slab.free_bytes < before
        slab.free(offset, 128)
        assert slab.free_bytes == before

    def test_utilization_reflects_internal_fragmentation(self):
        slab = SlabAllocator(1 << 20, chunk_min=80, growth_factor=1.25)
        slab.alloc(81)  # lands in a larger class
        assert 0.0 < slab.utilization < 1.0

    def test_utilization_full_when_untouched(self):
        assert SlabAllocator(1 << 20).utilization == 1.0

    def test_better_utilization_than_naive_rounding(self):
        """The paper credits slab utilization for later spilling."""
        slab = SlabAllocator(1 << 22, chunk_min=80, growth_factor=1.25)
        for _ in range(1000):
            slab.alloc(100)
        # Chunk for 100 bytes is at most 25% larger than the request.
        assert slab.chunk_size_for(100) <= 128


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=2000)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=40)),
        ),
        max_size=150,
    )
)
def test_slab_property_accounting(ops):
    """used/requested accounting stays consistent under any op sequence."""
    slab = SlabAllocator(1 << 18, slab_size=1 << 14)
    live: list[tuple[int, int]] = []
    for kind, value in ops:
        if kind == "alloc":
            try:
                offset = slab.alloc(value)
            except SlabExhaustedError:
                continue
            live.append((offset, value))
        elif live:
            offset, size = live.pop(value % len(live))
            slab.free(offset, size)
    assert slab.requested_bytes == sum(size for _, size in live)
    assert slab.used_bytes == sum(slab.chunk_size_for(size) for _, size in live)
    assert slab.used_bytes <= 1 << 18
