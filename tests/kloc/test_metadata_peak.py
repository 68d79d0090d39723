"""Peak-metadata regression tests.

Table 6's peak figure is sampled at every metadata *growth* site (knode
creation, object tracking, per-CPU list recording); shrink sites and
cache-hit refreshes cannot raise the live size, so the accounting legally
skips sampling there. These tests pin that contract — the peak must
capture growth through every site, never decay, and the incremental
counters must always agree with a from-scratch recomputation.
"""

import pytest

from repro.core.objtypes import KernelObjectType
from repro.kloc.knode import KNODE_STRUCT_BYTES, RB_POINTER_BYTES
from repro.kloc.manager import KlocManager
from repro.vfs.inode import Inode
from tests.fakes import FakeKernel

#: id + age + links per per-CPU list entry (percpu_cache.PERCPU_ENTRY_BYTES).
PERCPU_ENTRY_BYTES = 24


@pytest.fixture
def kernel():
    return FakeKernel()


@pytest.fixture
def manager(kernel):
    return KlocManager(kernel.clock, num_cpus=4)


def recomputed_bytes(manager):
    """Table 6 accounting from first principles — no incremental state."""
    knodes = manager.kmap.all_knodes()
    objects = sum(k.object_count for k in knodes)
    entries = sum(
        len(manager.percpu.entries(c))
        for c in range(manager.percpu.num_cpus)
    )
    return (
        KNODE_STRUCT_BYTES * len(knodes)
        + RB_POINTER_BYTES * objects
        + PERCPU_ENTRY_BYTES * entries
    )


class TestPeakCapture:
    def test_knode_creation_growth_captured(self, manager):
        inodes = [Inode(i) for i in range(1, 11)]
        for inode in inodes:
            manager.create_knode(inode)
        high = manager.metadata_bytes()
        assert manager.peak_metadata_bytes >= high
        peak = manager.peak_metadata_bytes
        for inode in inodes:
            manager.delete_knode(inode)
        assert manager.metadata_bytes() < high
        assert manager.peak_metadata_bytes == peak

    def test_object_tracking_growth_captured(self, kernel, manager):
        inode = Inode(1)
        manager.create_knode(inode)
        objs = [kernel.alloc_object(KernelObjectType.DENTRY) for _ in range(5)]
        for obj in objs:
            manager.add_object(inode, obj)
            # Every growth site samples, so the peak tracks the live size
            # step for step.
            assert manager.peak_metadata_bytes >= manager.metadata_bytes()
        peak = manager.peak_metadata_bytes
        assert peak >= KNODE_STRUCT_BYTES + RB_POINTER_BYTES * 5
        for obj in objs:
            manager.remove_object(obj)
        assert manager.peak_metadata_bytes == peak

    def test_percpu_list_growth_captured(self, kernel, manager):
        inode = Inode(1)
        manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        manager.add_object(inode, obj)
        base_entries = manager.percpu.total_entries
        for cpu in range(4):
            manager.note_access(obj, cpu=cpu)
            assert manager.peak_metadata_bytes >= manager.metadata_bytes()
        grown = manager.percpu.total_entries - base_entries
        assert grown > 0
        assert manager.peak_metadata_bytes >= (
            KNODE_STRUCT_BYTES
            + RB_POINTER_BYTES
            + PERCPU_ENTRY_BYTES * manager.percpu.total_entries
        )

    def test_hit_path_refresh_does_not_change_peak(self, kernel, manager):
        inode = Inode(1)
        manager.create_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        manager.add_object(inode, obj)
        manager.note_access(obj, cpu=0)
        peak = manager.peak_metadata_bytes
        for _ in range(20):  # pure per-CPU hits: no growth, no sampling need
            manager.note_access(obj, cpu=0)
        assert manager.peak_metadata_bytes == peak
        assert manager.peak_metadata_bytes >= manager.metadata_bytes()


class TestIncrementalInvariants:
    def _churn(self, kernel, manager):
        inodes = [Inode(i) for i in range(1, 9)]
        by_inode = {}
        objs = []
        for i, inode in enumerate(inodes):
            manager.create_knode(inode)
            mine = []
            for _ in range(i % 3 + 1):
                obj = kernel.alloc_object(KernelObjectType.DENTRY)
                manager.add_object(inode, obj)
                mine.append(obj)
            by_inode[inode] = mine
            objs.extend(mine)
        for cpu in range(4):
            for obj in objs[:: cpu + 1]:
                manager.note_access(obj, cpu=cpu)
        # Subsystems free their objects at unlink, then the knode goes
        # (§3.2) — tracked objects never outlive their knode here.
        removed = []
        for inode in inodes[:3]:
            for obj in by_inode[inode]:
                manager.remove_object(obj)
                removed.append(obj)
            manager.delete_knode(inode)
        for obj in by_inode[inodes[5]][::2]:
            manager.remove_object(obj)
            removed.append(obj)
        live = [o for o in objs if o not in removed]
        return inodes[3:], live

    def test_counters_match_recomputation(self, kernel, manager):
        self._churn(kernel, manager)
        assert manager.knodes_created - manager.knodes_deleted == len(manager.kmap)
        assert manager.metadata_bytes() == recomputed_bytes(manager)
        assert manager._tracked_objects == sum(  # noqa: SLF001
            k.object_count for k in manager.kmap.all_knodes()
        )

    def test_peak_dominates_live_size_throughout(self, kernel, manager):
        live_inodes, live_objs = self._churn(kernel, manager)
        assert manager.peak_metadata_bytes >= manager.metadata_bytes()
        # Empty everything: the peak is a high-water mark, not live state.
        for obj in live_objs:
            manager.remove_object(obj)
        for inode in live_inodes:
            manager.delete_knode(inode)
        assert manager.metadata_bytes() == 0
        assert manager.peak_metadata_bytes > 0
