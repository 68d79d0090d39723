"""Tests for the metrics package (footprint/reference/lifetime/report)."""

import pytest

from repro.core.units import MB
from repro.metrics.footprint import footprint_snapshot
from repro.metrics.lifetime import lifetime_report
from repro.metrics.references import reference_report
from repro.metrics.report import format_table
from repro.core.objtypes import KernelObjectType
from repro.mem.frame import PageOwner
from tests.kernel.test_kernel import make_kernel


class TestFootprint:
    def test_attribution(self):
        kernel = make_kernel()
        kernel.alloc_app_pages(4)
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        snap = footprint_snapshot(kernel.topology)
        assert snap.app_allocated == 4
        assert snap.kernel_allocated == 1
        assert snap.kernel_fraction() == pytest.approx(0.2)
        assert snap.breakdown()["page_cache"] == pytest.approx(0.2)

    def test_cumulative_includes_freed(self):
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.free_object(obj)
        snap = footprint_snapshot(kernel.topology)
        assert snap.kernel_allocated == 1
        assert snap.live.get(PageOwner.PAGE_CACHE, 0) == 0

    def test_empty(self):
        kernel = make_kernel()
        snap = footprint_snapshot(kernel.topology)
        assert snap.kernel_fraction() == 0.0


class TestReferences:
    def test_report_mirrors_kernel_counters(self):
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.JOURNAL)
        app = kernel.alloc_app_pages(1)[0]
        kernel.access_object(obj, 64)
        kernel.access_object(obj, 64)
        kernel.access_frame(app, 64)
        report = reference_report(kernel)
        assert report.kernel_refs == 2
        assert report.app_refs == 1
        assert report.kernel_fraction() == pytest.approx(2 / 3)
        assert report.owner_fraction(PageOwner.JOURNAL) == pytest.approx(2 / 3)


class TestLifetimes:
    def test_ordering_detection(self):
        kernel = make_kernel()
        # Short-lived slab object.
        dentry = kernel.alloc_object(KernelObjectType.DENTRY)
        kernel.clock.advance(1000)
        kernel.free_object(dentry)
        # Longer-lived cache page.
        page = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.clock.advance(50_000)
        kernel.free_object(page)
        # App pages live to the end.
        kernel.alloc_app_pages(2)
        kernel.clock.advance(10_000_000)
        report = lifetime_report(kernel)
        assert report.ordering_holds()
        assert report.samples["DENTRY"] == 1

    def test_app_mean_covers_freed_and_live_pages(self):
        kernel = make_kernel()
        freed = kernel.alloc_app_pages(3)
        (kept,) = kernel.alloc_app_pages(1)
        kernel.clock.advance(1000)
        kernel.free_app_pages(freed)
        kernel.clock.advance(3000)
        report = lifetime_report(kernel)
        assert report.samples["APP"] == 4
        # Freed pages count their alloc-to-free span, the live one its
        # age at report time.
        spans = [f.freed_at - f.allocated_at for f in freed]
        spans.append(kernel.clock.now() - kept.allocated_at)
        assert min(spans) >= 1000 and spans[-1] >= 4000
        assert report.app_mean_ns == sum(spans) / 4

    def test_empty_report(self):
        kernel = make_kernel()
        report = lifetime_report(kernel)
        assert not report.ordering_holds()
        assert report.app_mean_ns is None


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 10]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
