"""The page cache's dirty index against a brute-force tree walk.

``WritebackDaemon.flush``, ``PageCache.dirty_pages`` (fsync) and
``Filesystem.dirty_page_count`` read each cache's dirty index instead of
walking its radix tree. Random sequences of write, fsync, read (with
misses), unlink, reclaim under a small cap and small-quota flushes must
flush the same pages, in the same order, as the walk over
``cache.tree.items()`` filtered by ``frame.dirty`` — the walk the index
replaced, kept here as the reference only.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.units import KB, PAGE_SIZE
from repro.vfs.filesystem import Filesystem
from repro.vfs.writeback import WritebackDaemon
from tests.fakes import FakeKernel

#: Small enough that writes and reads of a few files evict each other.
CACHE_CAP = 12


def brute_dirty(fs, cache=None):
    """(ino, index) of every dirty cached page: caches in registration
    order, then index order."""
    caches = [cache] if cache is not None else fs.cache_mgr.caches()
    return [
        (c.ino, index)
        for c in caches
        for index, page in c.tree.items()
        if page.obj.frame.dirty
    ]


class _Driver:
    def __init__(self):
        self.kernel = FakeKernel(
            fast_bytes=8 * 1024 * 1024, slow_bytes=64 * 1024 * 1024
        )
        self.fs = Filesystem(self.kernel, page_cache_max_pages=CACHE_CAP)
        self.daemon = WritebackDaemon(self.fs, period_ns=10**15)
        self.handles = []
        self.next_file = 0
        self.pages_flushed = 0

    def step(self, op: int, arg: int) -> None:
        fs = self.fs
        kind = op % 6
        if kind == 0 or not self.handles:  # create
            if len(self.handles) < 4:
                self.handles.append(fs.create(f"/f{self.next_file}"))
                self.next_file += 1
            return
        fh = self.handles[arg % len(self.handles)]
        if kind == 1:  # write, possibly spanning pages
            fs.write(fh, (arg % 40) * PAGE_SIZE + arg % 3, (1 + arg % 9) * KB)
        elif kind == 2:  # fsync
            cache = fs.cache_mgr.cache_for(fh.inode.ino)
            expected = len(brute_dirty(fs, cache))
            assert fs.fsync(fh) == expected
            assert brute_dirty(fs, cache) == []
        elif kind == 3:  # read; misses once reclaim has dropped pages
            if fh.inode.size_bytes:
                offset = (arg % 40) * PAGE_SIZE
                fs.read(fh, offset, (1 + arg % 5) * PAGE_SIZE)
        elif kind == 4 and arg % 4 == 0:  # close + unlink
            self.handles.remove(fh)
            fs.close(fh)
            fs.unlink(fh.path)
        elif kind == 5:  # flush with a small quota
            self.flush_and_compare(1 + arg % 7)

    def flush_and_compare(self, quota: int) -> None:
        fs = self.fs
        expected = brute_dirty(fs)[:quota]
        # The page each submit writes back is the one that turns clean
        # before the next submit (or before flush returns).
        states = []
        submit = fs.blk.submit

        def recording_submit(*args, **kwargs):
            states.append(set(brute_dirty(fs)))
            return submit(*args, **kwargs)

        fs.blk.submit = recording_submit
        try:
            flushed = self.daemon.flush(quota)
        finally:
            fs.blk.submit = submit
        states.append(set(brute_dirty(fs)))
        order = []
        for before, after in zip(states, states[1:]):
            (page,) = before - after
            order.append(page)
        assert flushed == len(order)
        assert order == expected
        self.pages_flushed += flushed

    def check(self) -> None:
        self.fs.check_consistency()
        assert self.fs.dirty_page_count() == len(brute_dirty(self.fs))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=80,
    )
)
def test_index_flushes_what_the_tree_walk_would(tape):
    driver = _Driver()
    for op, arg in tape:
        driver.step(op, arg)
        driver.check()
    driver.flush_and_compare(CACHE_CAP)
    assert driver.fs.dirty_page_count() == 0


def test_flush_drains_in_registration_then_index_order():
    driver = _Driver()
    for _ in range(2):
        driver.step(0, 0)
    a, b = driver.handles
    driver.fs.write(b, 3 * PAGE_SIZE, PAGE_SIZE)
    driver.fs.write(a, 5 * PAGE_SIZE, PAGE_SIZE)
    driver.fs.write(a, 0, PAGE_SIZE)
    driver.flush_and_compare(2)  # both of a's pages, lowest index first
    driver.flush_and_compare(2)  # then b's
    assert driver.pages_flushed == 3
    assert all(not c.dirty for c in driver.fs.cache_mgr.caches())
