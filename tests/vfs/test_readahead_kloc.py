"""Integration tests: readahead x KLOC interplay (§4.4's prefetch hook)."""

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.units import KB, MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.policies import KlocsPolicy, NaivePolicy


def make_kernel(policy=None, fast_mb=4, **kwargs):
    spec = two_tier_platform_spec(
        fast_capacity_bytes=fast_mb * MB, slow_capacity_bytes=40 * MB
    )
    kernel = Kernel(spec, policy or NaivePolicy(), seed=3, **kwargs)
    kernel.start()
    return kernel


def sequential_read_after_drop(kernel, nbytes=64 * PAGE_SIZE):
    """Write a file, drop its cache, and stream it back sequentially."""
    fh = kernel.fs.create("/ra")
    kernel.fs.write(fh, 0, nbytes)
    kernel.fs.fsync(fh)
    cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
    for page in cache.pages():
        kernel.fs.cache_mgr.lru.remove(page)
        cache.remove(page.index)
        kernel.free_object(page.obj)
    for i in range(nbytes // PAGE_SIZE):
        kernel.fs.read(fh, i * PAGE_SIZE, PAGE_SIZE)
    return fh


class TestPrefetchHook:
    def test_policy_notified_on_prefetch(self):
        kernel = make_kernel(KlocsPolicy())
        seen = []
        original = kernel.policy.on_prefetch
        kernel.policy.on_prefetch = lambda inode, n: seen.append((inode.ino, n))
        fh = sequential_read_after_drop(kernel)
        assert seen, "sequential stream must trigger readahead"
        assert all(ino == fh.inode.ino for ino, _n in seen)
        # The FS notifies only for pages it actually fetched (within EOF
        # and not already cached), so notified <= the tracker's count.
        notified = sum(n for _i, n in seen)
        assert 0 < notified <= fh.readahead.prefetched

    def test_prefetched_pages_mostly_consumed(self):
        kernel = make_kernel(NaivePolicy())
        fh = sequential_read_after_drop(kernel)
        assert fh.readahead.useful_fraction() > 0.6

    def test_readahead_reduces_foreground_storage_reads(self):
        def foreground_reads(readahead):
            kernel = make_kernel(
                NaivePolicy(), readahead_enabled=readahead
            )
            sequential_read_after_drop(kernel)
            # Foreground = non-background bios; approximate via counts:
            # with readahead, misses collapse into few sequential bios.
            return kernel.storage.reads

        assert foreground_reads(True) < foreground_reads(False)

    def test_kloc_prefetch_promotes_knode_objects(self):
        kernel = make_kernel(KlocsPolicy(), fast_mb=1)
        fh = kernel.fs.create("/warm")
        kernel.fs.write(fh, 0, 24 * PAGE_SIZE)
        # Push the knode's objects to slow memory, then drop the cached
        # data pages so a sequential stream actually prefetches.
        kernel.kloc_daemon.free_target_frac = 1.0
        knode = kernel.kloc_manager.knode_for_inode(fh.inode)
        kernel.kloc_daemon.downgrade_knode(knode)
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        for page in cache.pages():
            kernel.fs.cache_mgr.lru.remove(page)
            cache.remove(page.index)
            kernel.free_object(page.obj)
        slow_before = sum(
            1 for f in kernel.kloc_daemon.knode_frames(knode)
            if f.tier_name == "slow"
        )
        assert slow_before > 0  # the knode's metadata pages stayed slow
        # Sequential reads trigger readahead → on_prefetch pulls the
        # knode's surviving slow-resident objects up alongside the data.
        for i in range(8):
            kernel.fs.read(fh, i * PAGE_SIZE, PAGE_SIZE)
        assert fh.readahead.prefetched > 0
        slow_after = sum(
            1 for f in kernel.kloc_daemon.knode_frames(knode)
            if f.tier_name == "slow"
        )
        assert slow_after < slow_before
