"""Tests for the per-inode page cache and the global manager."""

import pytest

from repro.core.errors import SimulationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE
from repro.vfs.filesystem import Filesystem
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
    assert cache.tree.insert(index, page)
    return page


class TestPageCache:
    def test_insert_lookup(self, kernel):
        cache = make_cache(kernel)
        page = make_page(kernel, cache, 5)
        assert cache.tree.lookup(5) is page
        assert cache.tree.lookup(6) is None

    def test_duplicate_insert_rejected(self, kernel):
        """The fill that inserts a new page refuses an index already cached."""
        fs = Filesystem(kernel)
        fh = fs.create("/a")
        fs.write(fh, 0, 1)
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        with pytest.raises(SimulationError):
            fs._fill_page(cache, fh.inode, 0, 0, False)  # noqa: SLF001

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
        """A fill past the cap evicts exactly the excess, coldest first."""
        fs = Filesystem(kernel, page_cache_max_pages=2)
        mgr = fs.cache_mgr
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        assert (mgr.total_pages, mgr.inserted, mgr.evicted) == (2, 2, 0)
        fs.write(fh, 2 * PAGE_SIZE, PAGE_SIZE)
        assert (mgr.total_pages, mgr.inserted, mgr.evicted) == (2, 3, 1)
        cache = mgr.cache_for(fh.inode.ino)
        assert [p.index for p in cache.pages()] == [1, 2]

    def test_eviction_victims_cold_first(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        pages = [make_page(kernel, cache, i) for i in range(3)]
        for p in pages:
            mgr.lru.insert(p)
        mgr.lru.touch(pages[0])  # promote → survives
        victims = [p for _c, p in mgr.eviction_victims(2)]
        assert pages[0] not in victims
        assert len(victims) == 2

    def test_note_remove(self, kernel):
        """Dropping a page from the manager's LRU drops it from the count."""
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        page = make_page(kernel, cache, 0)
        mgr.lru.insert(page)
        assert mgr.total_pages == 1
        mgr.lru.remove(page)
        assert mgr.total_pages == 0

    def test_victims_skip_unregistered_caches(self, kernel):
        mgr = PageCacheManager(max_pages=10)
        cache = make_cache(kernel, ino=1)
        mgr.register(cache)
        page = make_page(kernel, cache, 0)
        mgr.lru.insert(page)
        mgr.unregister(1)
        assert mgr.eviction_victims(1) == []

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            PageCacheManager(max_pages=0)
