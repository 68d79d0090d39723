"""Tests for the journal, blk-mq block layer, NVMe model, and extents."""

import pytest

from repro.core.config import StorageSpec
from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE
from repro.vfs.extent import EXTENT_SPAN_PAGES, ExtentTree
from repro.vfs.inode import Inode
from repro.vfs.journal import RECORDS_PER_PAGE, Journal
from repro.vfs.blkmq import BlockMQ
from repro.vfs.storage import NVMeDevice
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel()


class TestNVMe:
    def test_sequential_faster_than_random(self):
        dev = NVMeDevice(StorageSpec())
        seq = dev.io_cost_ns(1 << 20, write=False, sequential=True)
        rand = dev.io_cost_ns(1 << 20, write=False, sequential=False)
        assert seq < rand

    def test_counters(self):
        dev = NVMeDevice()
        dev.io_cost_ns(100, write=True, sequential=True)
        dev.io_cost_ns(50, write=False, sequential=False)
        assert dev.writes == 1 and dev.reads == 1
        assert dev.bytes_written == 100 and dev.bytes_read == 50

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NVMeDevice().io_cost_ns(-1, write=False, sequential=True)


class TestJournal:
    def test_records_pack_into_pages(self, kernel):
        journal = Journal(kernel)
        journal.log_metadata(None, RECORDS_PER_PAGE)
        assert journal.txn_pages == 1
        journal.log_metadata(None, 1)
        assert journal.txn_pages == 2

    def test_commit_frees_buffers(self, kernel):
        journal = Journal(kernel)
        journal.log_metadata(None, 5)
        committed = journal.commit()
        assert committed == 1
        assert journal.txn_pages == 0
        assert any(
            o.otype is KernelObjectType.JOURNAL for o in kernel.freed_objects
        )

    def test_empty_commit_is_noop(self, kernel):
        journal = Journal(kernel)
        assert journal.commit() == 0
        assert journal.commits == 0

    def test_full_transaction_autocommits(self, kernel):
        journal = Journal(kernel, max_txn_pages=2)
        journal.log_metadata(None, 2 * RECORDS_PER_PAGE)
        assert journal.commits == 1
        assert journal.txn_pages == 0

    def test_commit_writes_to_storage(self, kernel):
        journal = Journal(kernel)
        journal.log_metadata(None, 3)
        before = kernel.storage.bytes_written
        journal.commit()
        assert kernel.storage.bytes_written == before + PAGE_SIZE

    def test_invalid_args(self, kernel):
        with pytest.raises(ValueError):
            Journal(kernel, max_txn_pages=0)
        with pytest.raises(ValueError):
            Journal(kernel).log_metadata(None, 0)


class TestBlockMQ:
    def test_submit_allocates_and_frees_bio_and_request(self, kernel):
        blk = BlockMQ(kernel)
        blk.submit(PAGE_SIZE, write=True, sequential=True)
        types = {o.otype for o in kernel.freed_objects}
        assert KernelObjectType.BLOCK in types
        assert KernelObjectType.BLK_MQ in types
        assert blk.submitted == 1

    def test_per_cpu_dispatch(self, kernel):
        blk = BlockMQ(kernel)
        blk.submit(PAGE_SIZE, write=False, sequential=False, cpu=2)
        assert blk.per_cpu_dispatch[2] == 1

    def test_submit_pages(self, kernel):
        blk = BlockMQ(kernel)
        cost = blk.submit(3 * PAGE_SIZE, write=True, sequential=True)
        assert blk.bytes_moved == 3 * PAGE_SIZE
        assert cost == kernel.storage.io_cost_ns(
            3 * PAGE_SIZE, write=True, sequential=True
        )

    def test_zero_bytes_rejected(self, kernel):
        with pytest.raises(ValueError):
            BlockMQ(kernel).submit(0, write=False, sequential=False)

    def test_background_io_cheaper(self, kernel):
        blk = BlockMQ(kernel)
        fg = blk.submit(1 << 20, write=False, sequential=True)
        bg = blk.submit(1 << 20, write=False, sequential=True, background=True)
        assert bg < fg


class TestExtentTree:
    def test_span_mapping(self, kernel):
        """Pages map to fixed spans of EXTENT_SPAN_PAGES, one extent each."""
        tree = ExtentTree()
        first = kernel.alloc_object(KernelObjectType.EXTENT)
        second = kernel.alloc_object(KernelObjectType.EXTENT)
        tree.insert(EXTENT_SPAN_PAGES - 1, first)
        tree.insert(2 * EXTENT_SPAN_PAGES, second)
        assert tree.lookup(0) is first
        assert tree.lookup(EXTENT_SPAN_PAGES) is None
        assert tree.lookup(3 * EXTENT_SPAN_PAGES - 1) is second
        assert len(tree) == 2

    def test_lookup_insert(self, kernel):
        tree = ExtentTree()
        assert tree.lookup(0) is None
        extent = kernel.alloc_object(KernelObjectType.EXTENT)
        tree.insert(0, extent)
        assert tree.lookup(EXTENT_SPAN_PAGES - 1) is extent
        assert tree.lookup(EXTENT_SPAN_PAGES) is None
        assert len(tree) == 1

    def test_remove_all(self, kernel):
        tree = ExtentTree()
        for span in range(3):
            tree.insert(span * EXTENT_SPAN_PAGES, kernel.alloc_object(KernelObjectType.EXTENT))
        extents = tree.remove_all()
        assert len(extents) == 3
        assert len(tree) == 0
