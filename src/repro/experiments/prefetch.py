"""§7.3's prefetching study: KLOC-aware readahead.

"Augmenting prefetchers with KLOCs improves RocksDB throughput by 1.26x."
We compare KLOCs with readahead enabled vs disabled, and the same for
Naive, where prefetching amplifies pollution instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.cache import two_tier_spec
from repro.experiments.parallel import run_specs
from repro.metrics.report import format_table


@dataclass
class PrefetchReport:
    #: (workload, policy) → throughput ratio (readahead on / off).
    ratios: Dict[tuple, float] = field(default_factory=dict)

    def ratio(self, workload: str, policy: str) -> float:
        return self.ratios[(workload, policy)]

    def format_report(self) -> str:
        return format_table(
            ["workload", "policy", "readahead_gain"],
            [[w, p, r] for (w, p), r in self.ratios.items()],
            title="§7.3 — throughput gain from I/O prefetching",
        )


def run_prefetch_study(
    workloads: Sequence[str] = ("rocksdb",),
    policies: Sequence[str] = ("klocs", "naive"),
    *,
    ops: Optional[int] = None,
) -> PrefetchReport:
    """Each (workload, policy) pair runs with readahead on and off.

    The readahead-on cells are the same specs as Fig 4's, so after a
    Fig 4 sweep they come back from the result cache.
    """
    grid = [(w, p) for w in workloads for p in policies]
    runs = run_specs(
        [
            two_tier_spec(w, p, ops=ops, readahead_enabled=readahead)
            for w, p in grid
            for readahead in (True, False)
        ]
    )
    report = PrefetchReport()
    for i, cell in enumerate(grid):
        on, off = runs[2 * i], runs[2 * i + 1]
        report.ratios[cell] = on.throughput / off.throughput
    return report
