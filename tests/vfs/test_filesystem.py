"""Integration tests for the Filesystem facade."""

import pytest

from repro.core.errors import VFSError
from repro.core.objtypes import KernelObjectType
from repro.core.units import KB, PAGE_SIZE
from repro.vfs.filesystem import Filesystem
from repro.vfs.writeback import WritebackDaemon
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel(fast_bytes=8 * 1024 * 1024, slow_bytes=64 * 1024 * 1024)


@pytest.fixture
def fs(kernel):
    return Filesystem(kernel, page_cache_max_pages=4096)


class TestNamespace:
    def test_create_open_close(self, fs, kernel):
        fh = fs.create("/a")
        assert fs.exists("/a")
        assert fh.inode.is_open
        fs.close(fh)
        assert not fh.inode.is_open
        assert kernel.created_inodes and kernel.closed_inodes

    def test_create_duplicate_rejected(self, fs):
        fs.create("/a")
        with pytest.raises(VFSError):
            fs.create("/a")

    def test_open_missing_rejected(self, fs):
        with pytest.raises(VFSError):
            fs.open("/nope")

    def test_reopen(self, fs):
        fh = fs.create("/a")
        fs.close(fh)
        fh2 = fs.open("/a")
        assert fh2.inode is fh.inode
        assert fh2.fd != fh.fd

    def test_double_close_rejected(self, fs):
        fh = fs.create("/a")
        fs.close(fh)
        with pytest.raises(VFSError):
            fs.close(fh)

    def test_unlink_removes_everything(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 8 * PAGE_SIZE)
        fs.close(fh)
        fs.unlink("/a")
        assert not fs.exists("/a")
        assert kernel.unlinked_inodes
        freed_types = {o.otype for o in kernel.freed_objects}
        assert KernelObjectType.PAGE_CACHE in freed_types
        assert KernelObjectType.EXTENT in freed_types
        assert KernelObjectType.DENTRY in freed_types
        assert KernelObjectType.INODE in freed_types

    def test_unlink_open_file_rejected(self, fs):
        fs.create("/a")
        with pytest.raises(VFSError):
            fs.unlink("/a")

    def test_unlink_missing_rejected(self, fs):
        with pytest.raises(VFSError):
            fs.unlink("/ghost")

    def test_unlink_returns_all_memory(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 64 * PAGE_SIZE)
        fs.close(fh)
        fs.journal.commit()
        fs.unlink("/a")
        fs.journal.commit()
        kernel.topology.check_invariants()
        assert kernel.topology.live_pages() == 0


class TestDataPath:
    def test_write_populates_page_cache(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 10 * PAGE_SIZE)
        assert fs.cache_mgr.total_pages == 10
        assert fh.inode.size_bytes == 10 * PAGE_SIZE

    def test_write_allocates_table1_objects(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, PAGE_SIZE)
        live_types = set()
        for frame in kernel.topology.frames.values():
            if frame.obj_type:
                live_types.add(frame.obj_type)
        assert "PAGE_CACHE" in live_types
        assert "INODE" in live_types
        assert "DENTRY" in live_types
        assert "EXTENT" in live_types
        assert "JOURNAL" in live_types

    def test_partial_page_write(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 100, 50)
        assert fs.cache_mgr.total_pages == 1
        assert fh.inode.size_bytes == 150

    def test_read_hits_cache(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 4 * PAGE_SIZE)
        n = fs.read(fh, 0, 4 * PAGE_SIZE)
        assert n == 4 * PAGE_SIZE
        assert fs.cache_hits == 4
        assert fs.cache_misses == 0

    def test_read_truncated_at_eof(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 100)
        assert fs.read(fh, 0, PAGE_SIZE) == 100
        assert fs.read(fh, 200, 10) == 0

    def test_read_miss_goes_to_disk(self, fs, kernel):
        """Evicted pages must be re-fetched through blk-mq."""
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        # Manually evict page 0 (as reclaim would).
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        page = cache.tree.lookup(0)
        fs.cache_mgr.lru.remove(page)
        cache.remove(0)
        kernel.free_object(page.obj)
        reads_before = kernel.storage.reads
        fs.read(fh, 0, PAGE_SIZE, )
        assert kernel.storage.reads > reads_before
        assert fs.cache_misses == 1

    def test_fsync_flushes_and_commits(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 8 * PAGE_SIZE)
        dirty_before = fs.dirty_page_count()
        assert dirty_before == 8
        written_before = kernel.storage.bytes_written
        flushed = fs.fsync(fh)
        assert flushed == 8
        assert fs.dirty_page_count() == 0
        assert kernel.storage.bytes_written > written_before
        assert fs.journal.commits >= 1

    def test_write_on_closed_handle_rejected(self, fs):
        fh = fs.create("/a")
        fs.close(fh)
        with pytest.raises(VFSError):
            fs.write(fh, 0, 10)

    def test_invalid_sizes_rejected(self, fs):
        fh = fs.create("/a")
        with pytest.raises(ValueError):
            fs.write(fh, 0, 0)
        with pytest.raises(ValueError):
            fs.read(fh, 0, 0)

    def test_extent_allocated_per_span(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 256 * KB)  # exactly one extent span
        fs.write(fh, 256 * KB, 1)  # second span
        extents = fs._extents[fh.inode.ino]
        assert len(extents) == 2


class TestReadahead:
    def test_sequential_read_prefetches(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 64 * PAGE_SIZE)
        fs.fsync(fh)
        # Drop the cache to force misses.
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        for page in cache.pages():
            fs.cache_mgr.lru.remove(page)
            cache.remove(page.index)
            kernel.free_object(page.obj)
        for i in range(6):
            fs.read(fh, i * PAGE_SIZE, PAGE_SIZE)
        assert fh.readahead.prefetched > 0
        # Later sequential reads hit prefetched pages.
        assert fs.cache_hits > 0

    def test_readahead_disabled(self, kernel):
        fs = Filesystem(kernel, readahead_enabled=False)
        fh = fs.create("/a")
        fs.write(fh, 0, 16 * PAGE_SIZE)
        for i in range(8):
            fs.read(fh, i * PAGE_SIZE, PAGE_SIZE)
        assert fh.readahead.prefetched == 0


class TestReclaim:
    def test_cache_cap_enforced(self, kernel):
        fs = Filesystem(kernel, page_cache_max_pages=32)
        fh = fs.create("/a")
        fs.write(fh, 0, 64 * PAGE_SIZE)
        assert fs.cache_mgr.total_pages <= 32
        assert fs.cache_mgr.evicted >= 32

    def test_dirty_victims_written_back(self, kernel):
        fs = Filesystem(kernel, page_cache_max_pages=16)
        fh = fs.create("/a")
        written_before = kernel.storage.bytes_written
        fs.write(fh, 0, 64 * PAGE_SIZE)
        assert kernel.storage.bytes_written > written_before


class TestWriteback:
    def test_daemon_flushes_on_timer(self, fs, kernel):
        daemon = WritebackDaemon(fs, period_ns=10**9, batch_pages=64)
        daemon.start()
        fh = fs.create("/a")
        fs.write(fh, 0, 8 * PAGE_SIZE)
        assert fs.dirty_page_count() > 0
        kernel.clock.advance(10**9)
        assert daemon.wakeups >= 1
        assert fs.dirty_page_count() == 0

    def test_daemon_commits_journal(self, fs, kernel):
        daemon = WritebackDaemon(fs, period_ns=1000)
        daemon.start()
        fh = fs.create("/a")
        fs.write(fh, 0, PAGE_SIZE)
        kernel.clock.advance(10_000)
        assert fs.journal.txn_pages == 0

    def test_start_idempotent(self, fs):
        daemon = WritebackDaemon(fs, period_ns=1000)
        daemon.start()
        daemon.start()

    def test_invalid_config(self, fs):
        with pytest.raises(ValueError):
            WritebackDaemon(fs, period_ns=0)
        with pytest.raises(ValueError):
            WritebackDaemon(fs, batch_pages=0)
