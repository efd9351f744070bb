"""Tests for the NUMA frame allocator."""

import pytest

from repro.errors import ConfigurationError, PageFaultError
from repro.mem.physmem import FrameAllocator
from repro.units import PAGE_SIZE


class TestAllocation:
    def test_allocates_on_requested_node(self):
        fa = FrameAllocator(2, 100)
        frame = fa.allocate(1)
        assert fa.node_of_frame(frame) == 1

    def test_frames_unique(self):
        fa = FrameAllocator(2, 50)
        frames = {fa.allocate(0) for _ in range(50)}
        assert len(frames) == 50

    def test_fallback_to_other_node_when_full(self):
        fa = FrameAllocator(2, 2)
        fa.allocate(0)
        fa.allocate(0)
        frame = fa.allocate(0)
        assert fa.node_of_frame(frame) == 1

    def test_exhaustion_raises(self):
        fa = FrameAllocator(1, 2)
        fa.allocate(0)
        fa.allocate(0)
        with pytest.raises(PageFaultError):
            fa.allocate(0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(0, 10)


class TestAccounting:
    def test_available_accounting(self):
        fa = FrameAllocator(2, 10)
        assert fa.available(0) == 10
        fa.allocate(0)
        assert fa.available(0) == 9
        fa.allocate_batch(0, 4)
        assert fa.available(0) == 5
        assert fa.available(1) == 10

    def test_node_of_frame_range_check(self):
        fa = FrameAllocator(2, 10)
        with pytest.raises(PageFaultError):
            fa.node_of_frame(20)


class TestForMemory:
    def test_sizes_by_bytes(self):
        fa = FrameAllocator.for_memory(2, 100 * PAGE_SIZE)
        assert fa.frames_per_node == 100
