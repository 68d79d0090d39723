"""Figure 5: Optane Memory Mode speedups (5a), sources of improvement
(5b), and kernel-object-type sensitivity (5c)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.cache import optane_spec, two_tier_spec
from repro.experiments.defaults import ops_for
from repro.experiments.parallel import run_specs
from repro.experiments.runner import TwoTierRun
from repro.kloc.registry import KlocRegistry
from repro.metrics.report import format_table

# ----------------------------------------------------------------------
# Fig 5a — Optane Memory Mode
# ----------------------------------------------------------------------

FIG5A_POLICIES = ("all_remote", "autonuma", "nimble", "klocs", "all_local")


@dataclass
class Fig5aReport:
    """speedups[workload][policy], normalized to all_remote."""

    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_report(self) -> str:
        rows = [
            [w] + [v.get(p, float("nan")) for p in FIG5A_POLICIES]
            for w, v in self.speedups.items()
        ]
        return format_table(
            ["workload"] + list(FIG5A_POLICIES),
            rows,
            title="Fig 5a — Optane Memory Mode speedup vs all-remote",
        )


def run_fig5a_optane(
    workloads: Sequence[str] = ("rocksdb", "redis"),
    policies: Sequence[str] = FIG5A_POLICIES,
    *,
    ops: Optional[int] = None,
) -> Fig5aReport:
    report = Fig5aReport()
    grid = [
        (workload, policy, ops if ops is not None else ops_for(workload))
        for workload in workloads
        for policy in policies
    ]
    results = run_specs(
        [optane_spec(w, p, ops=budget) for w, p, budget in grid]
    )
    tputs: Dict[str, Dict[str, float]] = {}
    for (workload, policy, _budget), tput in zip(grid, results):
        tputs.setdefault(workload, {})[policy] = tput
    for workload in workloads:
        base = tputs[workload]["all_remote"]
        report.speedups[workload] = {
            p: t / base for p, t in tputs[workload].items()
        }
    return report


# ----------------------------------------------------------------------
# Fig 5b — sources of improvement (RocksDB)
# ----------------------------------------------------------------------


@dataclass
class Fig5bReport:
    """Per policy: slow-memory allocations (page cache, slab) and
    fast→slow migrations, for RocksDB — lower slow-allocs and controlled
    migrations are what give KLOCs its edge."""

    rows: List[TwoTierRun] = field(default_factory=list)

    def format_report(self) -> str:
        return format_table(
            ["policy", "slow_alloc_page_cache", "slow_alloc_slab",
             "migr_down", "migr_up", "fast_ref_frac"],
            [
                [
                    r.policy,
                    r.slow_allocs.get("page_cache", 0),
                    r.slow_allocs.get("slab", 0),
                    r.migrations_down,
                    r.migrations_up,
                    r.fast_ref_fraction,
                ]
                for r in self.rows
            ],
            title="Fig 5b — RocksDB slow-memory allocations and migrations",
        )


def run_fig5b_sources(
    policies: Sequence[str] = ("naive", "nimble", "nimble++", "klocs"),
    *,
    ops: Optional[int] = None,
) -> Fig5bReport:
    report = Fig5bReport()
    report.rows.extend(
        run_specs([two_tier_spec("rocksdb", p, ops=ops) for p in policies])
    )
    return report


# ----------------------------------------------------------------------
# Fig 5c — incremental kernel-object-type coverage
# ----------------------------------------------------------------------

#: The paper's incremental order: app-only first, then page caches,
#: journals, slab objects, socket buffers, block I/O.
FIG5C_ORDER = ("none", "page_cache", "journal", "slab", "sockbuf", "block_io")


@dataclass
class Fig5cReport:
    """speedups[workload][coverage_label] vs the app-only configuration."""

    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_report(self) -> str:
        labels = ["+" + g if g != "none" else "app-only" for g in FIG5C_ORDER]
        rows = [
            [w] + [v.get(g, float("nan")) for g in FIG5C_ORDER]
            for w, v in self.speedups.items()
        ]
        return format_table(
            ["workload"] + labels,
            rows,
            title="Fig 5c — KLOC speedup as object types are added "
            "(normalized to app-only tiering)",
        )


def run_fig5c_objtypes(
    workloads: Sequence[str] = ("rocksdb", "redis"),
    *,
    ops: Optional[int] = None,
) -> Fig5cReport:
    """Incrementally add Fig 5c's object groups to the KLOC registry.

    Types excluded from coverage are always placed in fast memory (the
    paper's control: "kernel objects excluded from KLOCs are placed in
    fast memory"), which our uncovered-type placement implements.
    """
    report = Fig5cReport()
    grid: List[tuple] = []
    for workload in workloads:
        covered: List[str] = []
        for group in FIG5C_ORDER:
            if group != "none":
                covered.append(group)
            registry = KlocRegistry.groups(*covered) if covered else KlocRegistry.none()
            grid.append((workload, group, registry))
    results = run_specs(
        [
            two_tier_spec(w, "klocs", ops=ops, registry=registry)
            for w, _g, registry in grid
        ]
    )
    tput_by: Dict[str, Dict[str, float]] = {}
    for (workload, group, _registry), run in zip(grid, results):
        tput_by.setdefault(workload, {})[group] = run.throughput
    for workload in workloads:
        base_tput = tput_by[workload][FIG5C_ORDER[0]]
        report.speedups[workload] = {
            group: tput / base_tput for group, tput in tput_by[workload].items()
        }
    return report
