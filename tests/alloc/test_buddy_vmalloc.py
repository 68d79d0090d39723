"""Tests for the page allocator."""

import pytest

from repro.core.clock import Clock
from repro.core.config import fast_dram_spec, slow_dram_spec
from repro.core.errors import SimulationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB
from repro.alloc.buddy import PageAllocator
from repro.mem.frame import PageOwner
from repro.mem.topology import MemoryTopology


@pytest.fixture
def topo():
    return MemoryTopology(
        [fast_dram_spec(capacity_bytes=2 * MB), slow_dram_spec(capacity_bytes=8 * MB)]
    )


@pytest.fixture
def clock():
    return Clock()


class TestPageAllocator:
    def test_alloc_frames_relocatable(self, topo, clock):
        pa = PageAllocator(topo, clock)
        frames = pa.alloc_frames(4, ["fast"], PageOwner.APP)
        assert len(frames) == 4
        assert all(f.relocatable for f in frames)

    def test_alloc_object_owns_frame(self, topo, clock):
        pa = PageAllocator(topo, clock)
        obj = pa.alloc_object(KernelObjectType.PAGE_CACHE, ["fast"], knode_id=3)
        assert obj.frame.owner is PageOwner.PAGE_CACHE
        assert obj.frame.knode_id == 3
        assert obj.frame.relocatable

    def test_free_object(self, topo, clock):
        pa = PageAllocator(topo, clock)
        obj = pa.alloc_object(KernelObjectType.JOURNAL, ["fast"])
        pa.free_object(obj)
        assert not obj.live
        assert topo.tier("fast").used_pages == 0

    def test_double_free_object_rejected(self, topo, clock):
        pa = PageAllocator(topo, clock)
        obj = pa.alloc_object(KernelObjectType.JOURNAL, ["fast"])
        pa.free_object(obj)
        with pytest.raises(SimulationError):
            pa.free_object(obj)

    def test_free_frames(self, topo, clock):
        pa = PageAllocator(topo, clock)
        frames = pa.alloc_frames(4, ["fast"], PageOwner.APP)
        pa.free_frames(frames)
        assert topo.tier("fast").used_pages == 0

    def test_order_histogram(self, topo, clock):
        pa = PageAllocator(topo, clock)
        pa.alloc_frames(1, ["fast"], PageOwner.APP)
        pa.alloc_frames(8, ["fast"], PageOwner.APP)
        assert pa.order_histogram[0] == 1
        assert pa.order_histogram[3] == 1

    def test_spill_to_slow(self, topo, clock):
        pa = PageAllocator(topo, clock)
        cap = topo.tier("fast").capacity_pages
        frames = pa.alloc_frames(cap + 2, ["fast", "slow"], PageOwner.APP)
        assert sum(1 for f in frames if f.tier_name == "slow") == 2

    def test_clock_charged(self, topo, clock):
        pa = PageAllocator(topo, clock)
        pa.alloc_frames(2, ["fast"], PageOwner.APP)
        assert clock.now() > 0
