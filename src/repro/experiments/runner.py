"""Shared run machinery: build kernel → setup workload → measure.

Every run builds its kernel and replays the workload's load phase
(``setup()``) before measuring; nothing is carried between runs. Sweeps
dedupe whole cells through the result cache
(:mod:`repro.experiments.cache`), never partial state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.defaults import SCALE_FACTOR, ops_for, seed
from repro.kernel.kernel import Kernel
from repro.kloc.registry import KlocRegistry
from repro.metrics.footprint import FootprintSnapshot, footprint_snapshot
from repro.metrics.references import ReferenceReport, reference_report
from repro.platforms.twotier import PAPER_FAST_BYTES, build_two_tier_kernel
from repro.workloads import WORKLOADS
from repro.workloads.base import WorkloadResult


def make_workload(kernel: Kernel, name: str, *, scale_factor: int = SCALE_FACTOR):
    """Instantiate a workload with its default config rescaled.

    ``dataclasses.replace`` keeps every other config field as the
    workload's default, so new fields can't be silently dropped here.
    """
    workload_cls = WORKLOADS[name]
    probe_cfg = workload_cls(kernel, None).config
    cfg = dataclasses.replace(probe_cfg, scale_factor=scale_factor)
    return workload_cls(kernel, cfg)


@dataclass
class TwoTierRun:
    """Everything a figure needs from one (workload, policy) run."""

    workload: str
    policy: str
    result: WorkloadResult
    fast_ref_fraction: float
    footprint: FootprintSnapshot
    references: ReferenceReport
    slow_allocs: Dict[str, int] = field(default_factory=dict)
    migrations_down: int = 0
    migrations_up: int = 0
    kloc_metadata_bytes: int = 0

    @property
    def throughput(self) -> float:
        return self.result.throughput_ops_per_sec


def run_two_tier(
    workload: str,
    policy: str,
    *,
    ops: Optional[int] = None,
    scale_factor: int = SCALE_FACTOR,
    bandwidth_ratio: int = 8,
    fast_bytes_paper: int = PAPER_FAST_BYTES,
    registry: Optional[KlocRegistry] = None,
    readahead_enabled: bool = True,
    run_seed: Optional[int] = None,
    measure_setup: bool = False,
) -> TwoTierRun:
    """One measured workload run on the two-tier platform.

    The load phase (setup) runs first. Reference counters reset after it
    so the reported split covers steady state, as perf-counter
    measurements do.
    """
    kernel, _pol = build_two_tier_kernel(
        policy,
        scale_factor=scale_factor,
        bandwidth_ratio=bandwidth_ratio,
        fast_bytes_paper=fast_bytes_paper,
        seed=run_seed if run_seed is not None else seed(),
        registry=registry,
        readahead_enabled=readahead_enabled,
        # This runner never reads lifetime metrics, so the retired-frame
        # log is dead weight — don't let it grow with every freed page.
        # (Fig 2's characterization builds its own kernel, uncapped.)
        retired_limit=0,
    )
    wl = make_workload(kernel, workload, scale_factor=scale_factor)
    wl.setup()
    if not measure_setup:
        kernel.reset_reference_counters()
    result = wl.run(ops if ops is not None else ops_for(workload))

    from repro.mem.frame import PageOwner

    slow_allocs = {
        owner.value: kernel.topology.alloc_count.get(("slow", owner), 0)
        for owner in (PageOwner.PAGE_CACHE, PageOwner.SLAB)
    }
    run = TwoTierRun(
        workload=workload,
        policy=policy,
        result=result,
        fast_ref_fraction=kernel.fast_ref_fraction(),
        footprint=footprint_snapshot(kernel.topology),
        references=reference_report(kernel),
        slow_allocs=slow_allocs,
        migrations_down=kernel.topology.migrations_between("fast", "slow"),
        migrations_up=kernel.topology.migrations_between("slow", "fast"),
        kloc_metadata_bytes=(
            kernel.kloc_manager.peak_metadata_bytes if kernel.kloc_manager else 0
        ),
    )
    wl.teardown()
    # REPRO_SANITIZE=1: audit the books after teardown (no-op otherwise).
    # The payload above is already built, so the audit cannot perturb it.
    kernel.sanitize_teardown()
    return run


def run_optane_interference(
    workload: str,
    policy: str,
    ops: int,
    *,
    scale_factor: int = SCALE_FACTOR,
    run_seed: Optional[int] = None,
) -> float:
    """§6.2's interference experiment: run, interfere, migrate, measure.

    The workload starts on socket 0. A third of the way in, a streaming
    co-runner contends for socket 0's bandwidth and the scheduler moves
    the task to socket 1; the policy decides what data follows. Reported
    throughput covers the post-interference phase, where placement
    matters.
    """
    from repro.platforms.optane import build_optane_kernel
    from repro.workloads.interference import StreamingInterferer

    kernel, _pol = build_optane_kernel(
        policy,
        scale_factor=scale_factor,
        seed=run_seed if run_seed is not None else seed(),
        retired_limit=0,  # throughput-only measurement; no lifetime reads
    )
    wl = make_workload(kernel, workload, scale_factor=scale_factor)
    wl.setup()
    warm = max(1, ops // 3)
    wl.run(warm)

    interferer = StreamingInterferer(kernel, "node0", streams=3)
    interferer.start()
    kernel.set_task_node(1)
    result = wl.run(ops - warm)
    interferer.stop()
    wl.teardown()
    kernel.sanitize_teardown()  # no-op unless REPRO_SANITIZE=1
    return result.throughput_ops_per_sec
