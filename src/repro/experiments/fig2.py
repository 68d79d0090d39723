"""Figure 2: the motivation characterization.

2a — % of the memory footprint in kernel objects vs application pages
     (large inputs), with raw page counts.
2b — the same split for Small (10GB) vs Large (40GB) inputs.
2c — % of memory *references* to kernel objects vs application data.
2d — lifetimes of application pages vs slab objects vs page-cache pages
     (log scale; the paper: app ≈ tens of minutes, slab ≈ 36ms, cache ≈
     160ms — our compressed clock preserves the ordering and the orders
     of magnitude between the classes).

These run on an ample-memory platform (the *All Fast Mem* bound) because
the characterization is about the workloads, not a tiering policy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.units import GB
from repro.experiments.defaults import SCALE_FACTOR, ops_for, seed
from repro.experiments.runner import make_workload
from repro.metrics.footprint import FootprintSnapshot, footprint_snapshot
from repro.metrics.lifetime import LifetimeReport, lifetime_report
from repro.metrics.references import ReferenceReport, reference_report
from repro.metrics.report import format_table
from repro.platforms.twotier import build_two_tier_kernel
from repro.workloads import WORKLOADS


@dataclass
class Fig2Result:
    """One workload's characterization numbers."""

    workload: str
    footprint: FootprintSnapshot
    references: ReferenceReport
    lifetimes: LifetimeReport


@dataclass
class Fig2Report:
    rows: List[Fig2Result] = field(default_factory=list)
    #: workload → {"small": frac, "large": frac} for Fig 2b.
    scaling: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_report(self) -> str:
        parts = []
        if self.rows:
            parts.append(
                format_table(
                    ["workload", "kernel_frac", "pages(M-equiv)", "page_cache",
                     "slab", "sockbuf", "journal", "block_io"],
                    [
                        [
                            r.workload,
                            r.footprint.kernel_fraction(),
                            r.footprint.total_allocated,
                            r.footprint.breakdown()["page_cache"],
                            r.footprint.breakdown()["slab"],
                            r.footprint.breakdown()["sockbuf"],
                            r.footprint.breakdown()["journal"],
                            r.footprint.breakdown()["block_io"],
                        ]
                        for r in self.rows
                    ],
                    title="Fig 2a — footprint attribution (cumulative pages)",
                )
            )
            parts.append(
                format_table(
                    ["workload", "kernel_ref_frac"],
                    [[r.workload, r.references.kernel_fraction()] for r in self.rows],
                    title="Fig 2c — reference attribution",
                )
            )
            parts.append(
                format_table(
                    ["workload", "app_ms", "slab_ms", "page_cache_ms", "ordering_ok"],
                    [
                        [
                            r.workload,
                            _ms(r.lifetimes.app_mean_ns),
                            _ms(r.lifetimes.slab_mean_ns),
                            _ms(r.lifetimes.page_cache_mean_ns),
                            r.lifetimes.ordering_holds(),
                        ]
                        for r in self.rows
                    ],
                    title="Fig 2d — mean lifetimes",
                )
            )
        if self.scaling:
            parts.append(
                format_table(
                    ["workload", "small(10GB)", "large(40GB)"],
                    [
                        [w, v.get("small", 0.0), v.get("large", 0.0)]
                        for w, v in self.scaling.items()
                    ],
                    title="Fig 2b — kernel footprint fraction vs input size",
                )
            )
        return "\n\n".join(parts)


def _ms(ns: Optional[float]) -> float:
    return (ns or 0.0) / 1e6


def _characterize(
    workload: str, *, dataset_bytes: Optional[int] = None, ops: Optional[int] = None
) -> Fig2Result:
    kernel, _pol = build_two_tier_kernel(
        "all_fast", scale_factor=SCALE_FACTOR, seed=seed()
    )
    wl = make_workload(kernel, workload)
    if dataset_bytes is not None:
        wl.config = dataclasses.replace(wl.config, dataset_bytes=dataset_bytes)
    wl.setup()
    kernel.reset_reference_counters()
    wl.run(ops if ops is not None else ops_for(workload))
    result = Fig2Result(
        workload=workload,
        footprint=footprint_snapshot(kernel.topology),
        references=reference_report(kernel),
        lifetimes=lifetime_report(kernel),
    )
    wl.teardown()
    return result


def run_fig2a_footprint(
    workloads=tuple(WORKLOADS), *, ops: Optional[int] = None
) -> Fig2Report:
    """Fig 2a: footprint attribution per workload (large inputs)."""
    report = Fig2Report()
    for name in workloads:
        report.rows.append(_characterize(name, ops=ops))
    return report


def run_fig2b_scaling(
    workloads=("rocksdb", "redis", "filebench"), *, ops: Optional[int] = None
) -> Fig2Report:
    """Fig 2b: the kernel share persists when inputs shrink 4x."""
    report = Fig2Report()
    for name in workloads:
        large = _characterize(name, ops=ops)
        small = _characterize(name, dataset_bytes=10 * GB, ops=ops)
        report.scaling[name] = {
            "large": large.footprint.kernel_fraction(),
            "small": small.footprint.kernel_fraction(),
        }
    return report


def run_fig2c_references(
    workloads=tuple(WORKLOADS), *, ops: Optional[int] = None
) -> Fig2Report:
    """Fig 2c: reference attribution (same runs as 2a, separate entry
    point so the registry matches the paper's figure list)."""
    return run_fig2a_footprint(workloads, ops=ops)


def run_fig2d_lifetimes(
    workloads=("rocksdb", "redis"), *, ops: Optional[int] = None
) -> Fig2Report:
    """Fig 2d: lifetime ordering — slab < page cache < application."""
    return run_fig2a_footprint(workloads, ops=ops)
