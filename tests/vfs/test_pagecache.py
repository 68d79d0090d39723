"""Tests for the per-inode page cache and the global manager."""

import pytest

from repro.core.errors import SimulationError
from repro.core.objtypes import KernelObjectType
from repro.vfs.pagecache import CachePage, PageCache, PageCacheManager
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel()


def make_cache(kernel, ino=1):
    return PageCache(
        ino,
        alloc_node=lambda: kernel.alloc_object(KernelObjectType.RADIX_NODE),
        free_node=kernel.free_object,
    )


def make_page(kernel, cache, index):
    obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
    page = CachePage(obj, cache.ino, index)
    cache.insert(page)
    return page


class TestPageCache:
    def test_insert_lookup(self, kernel):
        cache = make_cache(kernel)
        page = make_page(kernel, cache, 5)
        assert cache.lookup(5) is page
        assert cache.lookup(6) is None

    def test_duplicate_insert_rejected(self, kernel):
        cache = make_cache(kernel)
        make_page(kernel, cache, 5)
        with pytest.raises(SimulationError):
            make_page(kernel, cache, 5)

    def test_radix_nodes_are_kernel_objects(self, kernel):
        cache = make_cache(kernel)
        before = kernel.slab.stats.allocs
        make_page(kernel, cache, 0)
        assert kernel.slab.stats.allocs > before  # interior node(s) created

    def test_remove_frees_radix_nodes(self, kernel):
        cache = make_cache(kernel)
        make_page(kernel, cache, 0)
        kernel.freed_objects.clear()
        removed = cache.remove(0)
        assert removed is not None
        # Radix interior nodes freed back through the kernel.
        assert any(
            o.otype is KernelObjectType.RADIX_NODE for o in kernel.freed_objects
        )

    def test_dirty_pages(self, kernel):
        cache = make_cache(kernel)
        a = make_page(kernel, cache, 0)
        b = make_page(kernel, cache, 1)
        # Dirtying contract: enter the page in the dirty index, then dirty it.
        cache.dirty[a.index] = a
        a.obj.frame.dirty = True
        assert cache.dirty_pages() == [a]
        a.clean()
        assert cache.dirty_pages() == []  # a stale entry is not reported

    def test_remove_drops_dirty_index_entry(self, kernel):
        cache = make_cache(kernel)
        a = make_page(kernel, cache, 4)
        cache.dirty[a.index] = a
        a.obj.frame.dirty = True
        cache.remove(4)
        assert cache.dirty == {}

    def test_pages_listing(self, kernel):
        cache = make_cache(kernel)
        for i in [3, 1, 2]:
            make_page(kernel, cache, i)
        assert [p.index for p in cache.pages()] == [1, 2, 3]


class TestPageCacheManager:
    def test_register_duplicate_rejected(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        mgr.register(make_cache(kernel, ino=1))
        with pytest.raises(SimulationError):
            mgr.register(make_cache(kernel, ino=1))

    def test_pressure_accounting(self, kernel):
        mgr = PageCacheManager(max_pages=2)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        for i in range(2):
            mgr.note_insert(make_page(kernel, cache, i))
        assert mgr.over_pressure() == 1
        assert mgr.over_pressure(incoming=0) == 0

    def test_eviction_victims_cold_first(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        pages = [make_page(kernel, cache, i) for i in range(3)]
        for p in pages:
            mgr.note_insert(p)
        mgr.note_access(pages[0])  # promote → survives
        victims = [p for _c, p in mgr.eviction_victims(2)]
        assert pages[0] not in victims
        assert len(victims) == 2

    def test_note_remove(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        page = make_page(kernel, cache, 0)
        mgr.note_insert(page)
        mgr.note_remove(page)
        assert mgr.total_pages == 0

    def test_victims_skip_unregistered_caches(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        page = make_page(kernel, cache, 0)
        mgr.note_insert(page)
        mgr.unregister(1)
        assert mgr.eviction_victims(1) == []

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            PageCacheManager(max_pages=0)
