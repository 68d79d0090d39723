"""Tests for the KLOC manager, per-CPU fast paths, and registry."""

import pytest

from repro.core.clock import Clock
from repro.core.errors import ConfigError, SimulationError
from repro.core.objtypes import KernelObjectType
from repro.kloc.kmap import KMap
from repro.kloc.knode import Knode
from repro.kloc.manager import KlocManager
from repro.kloc.percpu_cache import PerCPUKnodeCache
from repro.kloc.registry import KlocRegistry
from repro.vfs.inode import Inode
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel()


@pytest.fixture
def manager(kernel):
    return KlocManager(kernel.clock, num_cpus=4)


class TestLifecycle:
    def test_create_knode_binds_inode(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode)
        assert inode.knode_id == knode.knode_id
        assert manager.kmap.lookup(knode.knode_id) is knode

    def test_double_create_rejected(self, manager):
        inode = Inode(10)
        manager.create_knode(inode)
        with pytest.raises(SimulationError):
            manager.create_knode(inode)

    def test_open_marks_inuse_and_fires_active(self, manager):
        fired = []
        manager.on_knode_active = fired.append
        inode = Inode(10)
        knode = manager.create_knode(inode)
        inode.open()
        manager.open_knode(inode)
        assert knode.inuse
        assert fired == [knode]

    def test_close_last_opener_fires_inactive(self, manager):
        fired = []
        manager.on_knode_inactive = fired.append
        inode = Inode(10)
        knode = manager.create_knode(inode)
        inode.open()
        manager.open_knode(inode)
        inode.close()
        manager.close_knode(inode)
        assert not knode.inuse
        assert fired == [knode]

    def test_close_with_other_openers_stays_active(self, manager):
        fired = []
        manager.on_knode_inactive = fired.append
        inode = Inode(10)
        knode = manager.create_knode(inode)
        inode.open()
        inode.open()
        manager.open_knode(inode)
        inode.close()
        manager.close_knode(inode)
        assert knode.inuse
        assert fired == []

    def test_delete_removes_from_kmap_and_percpu(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode)
        manager.delete_knode(inode)
        assert inode.knode_id is None
        assert manager.kmap.lookup(knode.knode_id) is None
        assert manager.percpu.find_cpu(knode.knode_id) is None

    def test_hooks_tolerate_missing_knode(self, manager):
        inode = Inode(10)  # never given a knode
        assert manager.open_knode(inode) is None
        assert manager.close_knode(inode) is None
        assert manager.delete_knode(inode) is None


class TestObjectMembership:
    def test_add_object_attaches_to_knode(self, kernel, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        assert manager.add_object(inode, obj) is True
        assert obj.knode_id == knode.knode_id
        assert knode.has_obj(obj)

    def test_uncovered_type_not_tracked(self, kernel):
        manager = KlocManager(
            kernel.clock, num_cpus=2, registry=KlocRegistry.none()
        )
        inode = Inode(10)
        manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        assert manager.add_object(inode, obj) is False
        assert obj.knode_id is None

    def test_remove_object(self, kernel, manager):
        inode = Inode(10)
        manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        manager.add_object(inode, obj)
        assert manager.remove_object(obj) is True
        assert manager.remove_object(obj) is False

    def test_access_refreshes_hotness(self, kernel, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        manager.add_object(inode, obj)
        knode.age = 7
        kernel.clock.advance(500)
        manager.note_access(obj, cpu=1)
        assert knode.age == 0
        assert knode.last_access == kernel.clock.now()

    def test_metadata_accounting(self, kernel, manager):
        inode = Inode(10)
        manager.create_knode(inode)
        base = manager.metadata_bytes()
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        manager.add_object(inode, obj)
        assert manager.metadata_bytes() == base + 8
        assert manager.peak_metadata_bytes >= base + 8
        manager.remove_object(obj)
        assert manager.metadata_bytes() == base


class TestPerCPUFastPath:
    def test_fast_path_absorbs_repeat_lookups(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode, cpu=0)
        before = manager.kmap.rbtree_accesses
        for _ in range(10):
            manager.percpu.lookup(knode.knode_id, cpu=0)
        # create_knode seeded cpu 0's list, so all ten hits are fast.
        assert manager.kmap.rbtree_accesses == before
        assert manager.percpu.rbtree_access_reduction() == 1.0

    def test_other_cpu_misses_then_caches(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode, cpu=0)
        before = manager.kmap.rbtree_accesses
        # A miss goes to the rbtree and records the knode on cpu 3's list;
        # the repeat is a hit and records nothing.
        assert manager.percpu.lookup(knode.knode_id, cpu=3) == (knode, True)
        assert manager.percpu.lookup(knode.knode_id, cpu=3) == (knode, False)
        assert manager.kmap.rbtree_accesses == before + 1
        assert manager.percpu.lookup(12345, cpu=3) == (None, False)

    def test_miss_then_hit(self):
        kmap = KMap()
        knode = Knode(1, ino=10)
        kmap.add(knode)
        cache = PerCPUKnodeCache(kmap, num_cpus=2, max_per_cpu=4)
        assert cache.lookup(1, cpu=0) == (knode, True)
        assert cache.lookup(1, cpu=0) == (knode, False)
        assert (cache.fast_hits, cache.slow_lookups) == (1, 1)

    def test_cpu_isolation(self):
        kmap = KMap()
        knode = Knode(1, ino=10)
        kmap.add(knode)
        cache = PerCPUKnodeCache(kmap, num_cpus=2, max_per_cpu=4)
        cache.record(knode.knode_id, cpu=0)
        # cpu 0's entry does not serve cpu 1: its lookup misses.
        assert cache.lookup(1, cpu=1) == (knode, True)
        assert (cache.fast_hits, cache.slow_lookups) == (0, 1)

    def test_bad_cpu_rejected(self):
        cache = PerCPUKnodeCache(KMap(), num_cpus=2, max_per_cpu=2)
        with pytest.raises(IndexError):
            cache.lookup(1, cpu=2)

    def test_find_cpu(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode, cpu=2)
        assert manager.percpu.find_cpu(knode.knode_id) == 2

    def test_inactive_invalidation(self, manager):
        inode = Inode(10)
        knode = manager.create_knode(inode, cpu=1)
        inode.open()
        manager.open_knode(inode, cpu=1)
        inode.close()
        manager.close_knode(inode, cpu=1)
        assert manager.percpu.find_cpu(knode.knode_id) is None


class TestRegistry:
    def test_full_coverage_exceeds_400_sites(self):
        assert KlocRegistry().redirected_sites() > 400

    def test_group_coverage(self):
        registry = KlocRegistry.groups("page_cache")
        assert registry.covered(KernelObjectType.PAGE_CACHE)
        assert not registry.covered(KernelObjectType.DENTRY)

    def test_incremental_groups_monotonic(self):
        """Fig 5c's incremental adds grow the covered site count."""
        groups = ["page_cache", "journal", "slab", "sockbuf", "block_io"]
        registry = KlocRegistry.none()
        last = 0
        for group in groups:
            registry.enable_group(group)
            count = registry.redirected_sites()
            assert count > last
            last = count

    def test_disable(self):
        registry = KlocRegistry()
        registry.disable(KernelObjectType.DENTRY)
        assert not registry.covered(KernelObjectType.DENTRY)
        registry.disable_group("journal")
        assert not registry.covered(KernelObjectType.JOURNAL)

    def test_unknown_group_rejected(self):
        with pytest.raises(ConfigError):
            KlocRegistry.none().enable_group("nope")
