"""Lifetime analysis: how long pages and objects live (Figure 2d).

Combines the allocators' per-type ledgers (slab/kloc/page objects) with
the topology's freed-app-page totals and its live application pages,
classified into the figure's three series: application pages, slab
objects, page-cache pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.objtypes import AllocatorKind, KernelObjectType
from repro.mem.frame import PageOwner

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel


@dataclass
class LifetimeReport:
    """Mean lifetimes (ns) per Figure 2d series and per object type."""

    app_mean_ns: Optional[float] = None
    slab_mean_ns: Optional[float] = None
    page_cache_mean_ns: Optional[float] = None
    by_type_ns: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)

    def ordering_holds(self) -> bool:
        """Fig 2d's shape: slab < page cache < application lifetimes."""
        if None in (self.app_mean_ns, self.slab_mean_ns, self.page_cache_mean_ns):
            return False
        return self.slab_mean_ns <= self.page_cache_mean_ns <= self.app_mean_ns


def lifetime_report(kernel: "Kernel") -> LifetimeReport:
    """Aggregate lifetimes across allocators and application pages."""
    now = kernel.clock.now()
    report = LifetimeReport()

    # Kernel objects, from the allocator ledgers.
    slab_sum = slab_n = cache_sum = cache_n = 0
    for ledger in (
        kernel.slab.stats.lifetimes,
        kernel.kloc_alloc.stats.lifetimes,
        kernel.page_alloc.stats.lifetimes,
    ):
        for otype in KernelObjectType:
            mean = ledger.mean_ns(otype)
            count = ledger.count(otype)
            if mean is None:
                continue
            key = otype.name
            prev_n = report.samples.get(key, 0)
            prev = report.by_type_ns.get(key, 0.0)
            report.by_type_ns[key] = (prev * prev_n + mean * count) / (prev_n + count)
            report.samples[key] = prev_n + count
            if otype is KernelObjectType.PAGE_CACHE:
                cache_sum += mean * count
                cache_n += count
            elif otype.allocator is AllocatorKind.SLAB:
                slab_sum += mean * count
                slab_n += count
    if slab_n:
        report.slab_mean_ns = slab_sum / slab_n
    if cache_n:
        report.page_cache_mean_ns = cache_sum / cache_n

    # Application pages: the freed ones' totals (taken at free) plus the
    # still-live ones (app pages typically outlive the measurement
    # window, as in the paper). Live frames come from the topology's
    # APP views, so the report never walks another owner's frames.
    topo = kernel.topology
    app_sum = topo.app_freed_lifetime_ns
    app_n = topo.app_frames_freed
    for frame in topo.iter_frames_by_owner(PageOwner.APP):
        app_sum += frame.lifetime_ns(now)
        app_n += 1
    if app_n:
        report.app_mean_ns = app_sum / app_n
        report.samples["APP"] = app_n
    return report
