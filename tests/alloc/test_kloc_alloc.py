"""Tests for the KLOC allocation interface — the relocatable, knode-grouped
allocator at the heart of §4.4's migration support."""

import pytest

from repro.core.clock import Clock
from repro.core.config import MigrationSpec, fast_dram_spec, slow_dram_spec
from repro.core.errors import SimulationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB, PAGE_SIZE
from repro.alloc.base import ALLOC_COSTS
from repro.alloc.kloc_alloc import KlocAllocator
from repro.alloc.slab import SlabAllocator
from repro.mem.migration import MigrationEngine
from repro.mem.topology import MemoryTopology


@pytest.fixture
def topo():
    return MemoryTopology(
        [fast_dram_spec(capacity_bytes=2 * MB), slow_dram_spec(capacity_bytes=8 * MB)]
    )


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def kalloc(topo, clock):
    return KlocAllocator(topo, clock)


class TestKnodeGrouping:
    def test_same_knode_shares_page(self, kalloc):
        a = kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        b = kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        assert a.frame.fid == b.frame.fid

    def test_different_knodes_use_different_pages(self, kalloc):
        a = kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        b = kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=2)
        assert a.frame.fid != b.frame.fid

    def test_knode_frames_lookup(self, kalloc):
        # Mixed types of one knode pack onto shared pages (a typical
        # file's metadata fits one page); distinct knodes never share.
        kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
        kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=2)
        assert len(kalloc.knode_frames(1)) == 1
        assert len(kalloc.knode_frames(2)) == 1
        assert kalloc.knode_frames(99) == []

    def test_knode_page_overflow_grabs_new_page(self, kalloc):
        # 4 inodes (1KB each) fill a page; the 5th starts a new one.
        for _ in range(5):
            kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
        assert len(kalloc.knode_frames(1)) == 2

    def test_page_tagged_with_knode(self, kalloc):
        obj = kalloc.alloc(KernelObjectType.EXTENT, ["fast"], knode_id=7)
        assert obj.frame.knode_id == 7


class TestRelocatability:
    def test_pages_are_relocatable(self, kalloc):
        obj = kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        assert obj.frame.relocatable is True

    def test_knode_objects_can_migrate_en_masse(self, topo, clock, kalloc):
        """The whole point: a cold knode's objects move in one batch."""
        for _ in range(30):
            kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        engine = MigrationEngine(topo, MigrationSpec())
        result = engine.migrate(kalloc.knode_frames(1), "slow")
        assert result.moved == len(kalloc.knode_frames(1))
        assert all(f.tier_name == "slow" for f in kalloc.knode_frames(1))

    def test_slab_equivalent_cannot_migrate(self, topo, clock):
        """Contrast case used throughout the paper."""
        slab = SlabAllocator(topo, clock)
        obj = slab.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        engine = MigrationEngine(topo, MigrationSpec())
        result = engine.migrate([obj.frame], "slow")
        assert result.moved == 0
        assert result.skipped_nonrelocatable == 1


class TestFree:
    def test_empty_page_returned(self, kalloc, topo):
        obj = kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
        kalloc.free(obj)
        assert kalloc.live_pages() == 0
        assert kalloc.knode_frames(1) == []
        assert topo.tier("fast").used_pages == 0

    def test_double_free_rejected(self, kalloc):
        obj = kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
        kalloc.free(obj)
        with pytest.raises(SimulationError):
            kalloc.free(obj)

    def test_full_page_then_new_page_same_knode(self, kalloc):
        per_page = PAGE_SIZE // KernelObjectType.DENTRY.size_bytes
        for _ in range(per_page + 1):
            kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        assert len(kalloc.knode_frames(1)) == 2

    def test_free_releases_page_bytes_for_reuse(self, kalloc):
        objs = [
            kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
            for _ in range(4)
        ]
        kalloc.free(objs[0])
        # Freed bytes reopen space on the same page.
        again = kalloc.alloc(KernelObjectType.INODE, ["fast"], knode_id=1)
        assert again.frame.fid == objs[1].frame.fid
        assert len(kalloc.knode_frames(1)) == 1


class TestCostModel:
    def test_kloc_costlier_than_slab_but_close(self):
        assert ALLOC_COSTS["slab"] < ALLOC_COSTS["kloc"] < ALLOC_COSTS["page"]

    def test_alloc_charges_clock(self, kalloc, clock):
        kalloc.alloc(KernelObjectType.DENTRY, ["fast"], knode_id=1)
        assert clock.now() >= ALLOC_COSTS["kloc"]
