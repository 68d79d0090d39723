"""Cross-checks between independent accounting systems.

The tracer, the allocator statistics, the topology counters, and the
metrics reports all observe the same events through different paths;
they must agree exactly.
"""

import pytest

from repro.core.trace import Tracer
from repro.experiments.runner import make_workload
from repro.metrics.footprint import footprint_snapshot
from repro.metrics.references import reference_report
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096


@pytest.fixture(scope="module")
def traced_run():
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
    tracer = Tracer(capacity=500_000)
    tracer.enable("alloc", "free", "knode")
    kernel.tracer = tracer
    wl = make_workload(kernel, "rocksdb", scale_factor=SCALE)
    wl.setup()
    wl.run(800)
    return kernel, tracer, wl


class TestTracerVsAllocators:
    def test_alloc_event_count_matches_allocator_stats(self, traced_run):
        kernel, tracer, _ = traced_run
        traced_allocs = sum(tracer.counts_by_name("alloc").values())
        stats_allocs = (
            kernel.slab.stats.allocs
            + kernel.kloc_alloc.stats.allocs
            + kernel.page_alloc.stats.allocs
        )
        assert traced_allocs == stats_allocs

    def test_free_event_count_matches_allocator_stats(self, traced_run):
        kernel, tracer, _ = traced_run
        traced_frees = sum(tracer.counts_by_name("free").values())
        stats_frees = (
            kernel.slab.stats.frees
            + kernel.kloc_alloc.stats.frees
            + kernel.page_alloc.stats.frees
        )
        assert traced_frees == stats_frees

    def test_knode_creates_match_manager(self, traced_run):
        kernel, tracer, _ = traced_run
        created = sum(
            1 for e in tracer.query(category="knode") if e.name == "create"
        )
        assert created == kernel.kloc_manager.knodes_created


class TestMetricsVsKernelCounters:
    def test_reference_report_totals(self, traced_run):
        kernel, _, _ = traced_run
        report = reference_report(kernel)
        by_owner = report.by_owner
        assert report.kernel_refs == sum(n for o, n in by_owner.items() if o.is_kernel)
        assert report.app_refs == sum(n for o, n in by_owner.items() if not o.is_kernel)
        assert sum(by_owner.values()) == report.total_refs > 0

    def test_footprint_totals_match_topology(self, traced_run):
        kernel, _, _ = traced_run
        snap = footprint_snapshot(kernel.topology)
        assert snap.total_allocated == kernel.topology.total_allocated_pages()
        assert sum(snap.live.values()) == kernel.topology.live_pages()

    def test_tier_refs_sum_to_total(self, traced_run):
        kernel, _, _ = traced_run
        assert sum(kernel.refs_by_tier.values()) == reference_report(kernel).total_refs

    def test_migration_engine_matches_topology(self, traced_run):
        kernel, _, _ = traced_run
        topo_moves = sum(kernel.topology.migration_count.values())
        assert topo_moves == kernel.engine.total_moved
