"""Small targeted tests for remaining coverage gaps across modules."""

import pytest

from repro.core.units import KB, PAGE_SIZE
from repro.metrics.chart import sparkline
from repro.vfs.filesystem import Filesystem
from repro.vfs.writeback import WritebackDaemon
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel(fast_bytes=8 * 1024 * 1024, slow_bytes=64 * 1024 * 1024)


class TestSparklineEdges:
    def test_flat_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1  # all the same tick

    def test_single_point(self):
        assert len(sparkline([1.0])) == 1


class TestWritebackBatching:
    def test_flush_respects_batch_cap(self, kernel):
        fs = Filesystem(kernel, page_cache_max_pages=4096)
        daemon = WritebackDaemon(fs, period_ns=10**12, batch_pages=5)
        fh = fs.create("/w")
        fs.write(fh, 0, 20 * PAGE_SIZE)
        flushed = daemon.flush(daemon.batch_pages)
        assert flushed == 5
        assert fs.dirty_page_count() == 15

    def test_flush_with_nothing_dirty(self, kernel):
        fs = Filesystem(kernel, page_cache_max_pages=64)
        daemon = WritebackDaemon(fs)
        assert daemon.flush(10) == 0


class TestDentryCachePressureInFS:
    def test_shrunk_dentries_free_their_objects(self, kernel):
        fs = Filesystem(
            kernel, page_cache_max_pages=4096, dentry_cache_entries=4
        )
        handles = [fs.create(f"/d{i}") for i in range(8)]
        # Four oldest dentries were shrunk and their slab objects freed.
        from repro.core.objtypes import KernelObjectType

        freed_dentries = [
            o for o in kernel.freed_objects
            if o.otype is KernelObjectType.DENTRY
        ]
        assert len(freed_dentries) == 4
        # The files themselves are still open and usable via handles.
        for fh in handles:
            fs.write(fh, 0, 1 * KB)


class TestBlockMQDispatchSpread:
    def test_per_cpu_attribution(self, kernel):
        from repro.vfs.blkmq import BlockMQ

        blk = BlockMQ(kernel)
        for cpu in range(kernel.num_cpus):
            blk.submit(PAGE_SIZE, write=False, sequential=True, cpu=cpu)
        assert all(n == 1 for n in blk.per_cpu_dispatch)


class TestFrameAccessAttribution:
    def test_dirty_bit_and_charge_cell(self):
        from repro.platforms.twotier import build_two_tier_kernel

        kernel, _ = build_two_tier_kernel("naive", scale_factor=4096)
        frame = kernel.alloc_app_pages(1)[0]
        kernel.reset_reference_counters()
        cost = kernel.access_frame(frame, 100, write=False)
        assert not frame.dirty
        cost += kernel.access_frame(frame, 100, write=True)
        cost += kernel.access_frame(frame, 100, write=True)
        assert frame.dirty
        key = (frame.owner, frame.tier_name)
        assert kernel.access_ns_by == {key: cost}
        assert kernel.refs_by_owner[frame.owner] == 3
        assert kernel.ref_bytes_by_owner[frame.owner] == 300


class TestRadixDeepSpine:
    def test_far_index_prune(self, kernel):
        from repro.ds.radix import RadixTree

        tree = RadixTree()
        tree.insert(2**30, "deep")
        deep_nodes = tree.node_count
        assert deep_nodes >= 5  # 6-bit fanout spine
        tree.delete(2**30)
        assert tree.node_count == 0
