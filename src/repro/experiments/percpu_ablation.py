"""§4.3's per-CPU fast-path statistic.

"Per-CPU lists reduce the rbtree-cache and rbtree-slab accesses by 54%."
We run the same workload with normally-sized per-CPU lists and with
degenerate single-entry lists, and report the rbtree-access reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import KLOCSpec
from repro.experiments.defaults import SCALE_FACTOR, ops_for, seed
from repro.experiments.runner import make_workload
from repro.kloc.percpu_cache import PerCPUKnodeCache
from repro.metrics.report import format_table
from repro.platforms.twotier import build_two_tier_kernel


@dataclass
class PerCPUReport:
    fast_path_reduction: float
    kmap_accesses_with: int
    kmap_accesses_without: int

    @property
    def access_reduction(self) -> float:
        """Fraction of kmap rbtree accesses the fast path eliminated."""
        if not self.kmap_accesses_without:
            return 0.0
        return 1.0 - self.kmap_accesses_with / self.kmap_accesses_without

    def format_report(self) -> str:
        return format_table(
            ["metric", "value"],
            [
                ["fast-path hit fraction", self.fast_path_reduction],
                ["kmap rbtree accesses (lists on)", self.kmap_accesses_with],
                ["kmap rbtree accesses (lists off)", self.kmap_accesses_without],
                ["rbtree access reduction", self.access_reduction],
            ],
            title="§4.3 — per-CPU knode list ablation (paper: 54%)",
        )


def _measure(percpu_list_max: int, workload: str, ops: int) -> tuple:
    kernel, _pol = build_two_tier_kernel(
        "klocs", scale_factor=SCALE_FACTOR, seed=seed()
    )
    # The ablation arm swaps in shorter lists before any knode exists.
    manager = kernel.kloc_manager
    if percpu_list_max != manager.percpu.max_per_cpu:
        manager.percpu = PerCPUKnodeCache(
            manager.kmap, kernel.num_cpus, percpu_list_max
        )
    wl = make_workload(kernel, workload)
    wl.setup()
    manager.kmap.rbtree_accesses = 0
    manager.percpu.fast_hits = 0
    manager.percpu.slow_lookups = 0
    wl.run(ops)
    stats = (
        manager.percpu.rbtree_access_reduction(),
        manager.kmap.rbtree_accesses,
    )
    wl.teardown()
    return stats


def run_percpu_ablation(
    workload: str = "rocksdb", *, ops: Optional[int] = None
) -> PerCPUReport:
    budget = ops if ops is not None else ops_for(workload)
    reduction_on, kmap_on = _measure(KLOCSpec().percpu_list_max, workload, budget)
    _reduction_off, kmap_off = _measure(1, workload, budget)
    return PerCPUReport(
        fast_path_reduction=reduction_on,
        kmap_accesses_with=kmap_on,
        kmap_accesses_without=kmap_off,
    )
