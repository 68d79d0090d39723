"""Tests for knodes and the global kmap."""

import pytest

from repro.alloc.base import ALLOC_COSTS
from repro.core.errors import SimulationError
from repro.core.objtypes import KernelObjectType
from repro.kloc.kmap import KMap
from repro.kloc.knode import KNODE_STRUCT_BYTES, RB_POINTER_BYTES, Knode
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel()


def make_obj(kernel, otype=KernelObjectType.DENTRY):
    return kernel.alloc_object(otype)


class TestKnodeMembership:
    def test_slab_objects_go_to_slab_tree(self, kernel):
        knode = Knode(1, ino=10)
        obj = make_obj(kernel, KernelObjectType.DENTRY)
        knode.add_obj(obj)
        assert len(knode.rbtree_slab) == 1
        assert len(knode.rbtree_cache) == 0
        assert list(knode.iter_slab()) == [obj]

    def test_page_objects_go_to_cache_tree(self, kernel):
        knode = Knode(1, ino=10)
        obj = make_obj(kernel, KernelObjectType.PAGE_CACHE)
        knode.add_obj(obj)
        assert len(knode.rbtree_cache) == 1
        assert list(knode.iter_cache()) == [obj]

    def test_remove_obj(self, kernel):
        knode = Knode(1, ino=10)
        obj = make_obj(kernel)
        knode.add_obj(obj)
        assert knode.remove_obj(obj) is True
        assert knode.remove_obj(obj) is False
        assert knode.object_count == 0

    def test_iter_all_spans_both_trees(self, kernel):
        knode = Knode(1, ino=10)
        knode.add_obj(make_obj(kernel, KernelObjectType.DENTRY))
        knode.add_obj(make_obj(kernel, KernelObjectType.PAGE_CACHE))
        assert len(list(knode.iter_all())) == 2

    def test_walks_follow_oid_order_not_insertion_order(self, kernel):
        """Adoption adds older oids later; every walk still visits each
        member set in ascending oid order, cache set first."""
        pages = [make_obj(kernel, KernelObjectType.PAGE_CACHE) for _ in range(10)]
        slabs = [
            make_obj(kernel, otype)
            for otype in (
                KernelObjectType.DENTRY,
                KernelObjectType.EXTENT,
                KernelObjectType.INODE,
                KernelObjectType.RADIX_NODE,
            )
        ]
        knode = Knode(1, ino=10)
        for obj in (pages[5], pages[9], pages[3], slabs[2], slabs[3], slabs[0]):
            knode.add_obj(obj)
        cache = [pages[3], pages[5], pages[9]]
        slab = [slabs[0], slabs[2], slabs[3]]
        members = cache + slab
        assert [o.oid for o in cache] == sorted(o.oid for o in cache)
        assert [o.oid for o in slab] == sorted(o.oid for o in slab)
        # One frame per member, so the frame walk shows the order too.
        assert len({o.frame.fid for o in members}) == len(members)
        assert list(knode.iter_cache()) == cache
        assert list(knode.iter_slab()) == slab
        assert list(knode.iter_all()) == members
        frames = [o.frame for o in members]
        assert knode.walk_frames() == frames
        assert knode.frames() == frames

    def test_frames_deduplicates_shared_slab_pages(self, kernel):
        """Many dentries share one slab page → one frame to migrate."""
        knode = Knode(1, ino=10)
        for _ in range(5):
            knode.add_obj(make_obj(kernel, KernelObjectType.DENTRY))
        assert len(knode.frames()) == 1

    def test_frames_skips_freed(self, kernel):
        knode = Knode(1, ino=10)
        obj = make_obj(kernel, KernelObjectType.PAGE_CACHE)
        knode.add_obj(obj)
        kernel.free_object(obj)
        assert knode.frames() == []


class TestKnodeHotness:
    def test_touch_resets_age(self):
        knode = Knode(1, ino=10)
        knode.age = 5
        knode.touch(now_ns=100)
        assert knode.age == 0
        assert knode.last_access == 100

    def test_closed_knode_is_definitely_cold(self):
        knode = Knode(1, ino=10)
        knode.inuse = False
        assert knode.is_cold(cold_age=99)

    def test_open_knode_cold_only_when_aged(self):
        knode = Knode(1, ino=10)
        knode.inuse = True
        assert not knode.is_cold(cold_age=2)
        knode.tick_age()
        knode.tick_age()
        assert knode.is_cold(cold_age=2)

    def test_metadata_bytes(self, kernel):
        knode = Knode(1, ino=10)
        for _ in range(3):
            knode.add_obj(make_obj(kernel))
        assert knode.metadata_bytes() == KNODE_STRUCT_BYTES + 3 * RB_POINTER_BYTES


class TestKMap:
    def test_add_lookup_remove(self):
        kmap = KMap()
        knode = Knode(1, ino=10)
        kmap.add(knode)
        assert kmap.lookup(1) is knode
        assert 1 in kmap
        assert kmap.remove(1) is True
        assert kmap.lookup(1) is None

    def test_duplicate_add_rejected(self):
        kmap = KMap()
        kmap.add(Knode(1, ino=10))
        with pytest.raises(SimulationError):
            kmap.add(Knode(1, ino=11))

    def test_ids_must_grow(self):
        """The id -> knode dict lists knodes in the tree's key order only
        while ids are added in increasing order."""
        kmap = KMap()
        kmap.add(Knode(2, ino=10))
        with pytest.raises(SimulationError):
            kmap.add(Knode(1, ino=11))
        kmap.add(Knode(5, ino=12))
        kmap.remove(5)
        kmap.add(Knode(3, ino=13))  # above every id still present
        assert [k.knode_id for k in kmap.all_knodes()] == [2, 3]

    def test_rbtree_access_counting(self):
        kmap = KMap()
        kmap.add(Knode(1, ino=10))
        kmap.lookup(1)
        kmap.lookup(2)
        assert kmap.rbtree_accesses == 2

    def test_lru_ordering_closed_first(self):
        kmap = KMap()
        hot = Knode(1, ino=1)
        hot.inuse = True
        hot.last_access = 100
        cold_closed = Knode(2, ino=2)
        cold_closed.inuse = False
        cold_closed.last_access = 500
        kmap.add(hot)
        kmap.add(cold_closed)
        lru = kmap.get_lru_knodes()
        assert lru[0] is cold_closed  # closed beats recently-accessed open

    def test_lru_cold_age_filter(self):
        kmap = KMap()
        young = Knode(1, ino=1)
        young.inuse = True
        young.age = 0
        aged = Knode(2, ino=2)
        aged.inuse = True
        aged.age = 5
        kmap.add(young)
        kmap.add(aged)
        lru = kmap.get_lru_knodes(cold_age=3)
        assert lru == [aged]

    def test_lru_limit(self):
        kmap = KMap()
        for i in range(10):
            kmap.add(Knode(i + 1, ino=i))
        assert len(kmap.get_lru_knodes(limit=4)) == 4

    def test_total_metadata(self):
        kmap = KMap()
        kmap.add(Knode(1, ino=1))
        kmap.add(Knode(2, ino=2))
        assert kmap.total_metadata_bytes() == 2 * KNODE_STRUCT_BYTES


def test_knode_allocation_tradeoff():
    """§4.2.2: knodes come from the slab allocator, "prioritizing knode
    allocation speed over amenability for migration", which pays because
    knodes are orders of magnitude fewer than the objects they index."""
    from repro.experiments.runner import make_workload, run_two_tier
    from repro.platforms.twotier import build_two_tier_kernel

    run = run_two_tier("rocksdb", "klocs", ops=4000)

    # Slab-speed allocation is the fast end of the allocator families.
    assert ALLOC_COSTS["slab"] < ALLOC_COSTS["kloc"] < ALLOC_COSTS["vmalloc"]

    # Re-derive the population ratio on a fresh kernel.
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=1024)
    wl = make_workload(kernel, "rocksdb")
    wl.setup()
    wl.run(4000)
    manager = kernel.kloc_manager
    knodes = manager.knodes_created
    objects_ever = manager._tracked_objects  # live lower bound  # noqa: SLF001
    # Orders of magnitude more objects than knodes (paper's justification
    # for non-migratable slab knodes).
    assert objects_ever > 5 * knodes or knodes < 5000
    assert run.throughput > 0
