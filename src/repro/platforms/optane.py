"""Optane Memory Mode platform (Table 4, second half).

Two NUMA sockets, each with a 128GB persistent-memory DIMM fronted by a
16GB hardware-managed DRAM L4 cache. The OS moves data *between* sockets
(AutoNUMA family); hardware manages DRAM-vs-PMEM within a socket. §6.2's
experiment adds a streaming interferer to one socket and lets the
scheduler move the workload to the other.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import (
    KLOCSpec,
    LRUSpec,
    PlatformSpec,
    TierSpec,
)
from repro.core.errors import ConfigError
from repro.core.units import GB, NS
from repro.kernel.kernel import Kernel
from repro.kloc.registry import KlocRegistry
from repro.policies import OPTANE_POLICIES
from repro.policies.base import TieringPolicy

PAPER_PMEM_BYTES = 128 * GB
PAPER_DRAM_CACHE_BYTES = 16 * GB


def _node_spec(name: str, capacity_bytes: int) -> TierSpec:
    """One socket's PMEM DIMM (§6.2: DRAM cache is 3-4x faster)."""
    return TierSpec(
        name=name,
        capacity_bytes=capacity_bytes,
        read_latency_ns=300 * NS,
        write_latency_ns=500 * NS,
        read_bw_bytes_per_ns=6.0,
        write_bw_bytes_per_ns=2.0,
    )


def optane_platform_spec(
    *, scale_factor: int = 1024, num_cpus: int = 16
) -> PlatformSpec:
    capacity = PAPER_PMEM_BYTES // scale_factor
    return PlatformSpec(
        name=f"optane-memory-mode(1/{scale_factor})",
        fast=_node_spec("node0", capacity),
        slow=_node_spec("node1", capacity),
        hw_cache_bytes=PAPER_DRAM_CACHE_BYTES // scale_factor,
        lru=LRUSpec(
            scan_pages_per_second=256_000_000,
            scan_period_ns=4_000_000,
            cold_age_rounds=2,
        ),
        kloc=KLOCSpec(migrate_period_ns=1_000_000, cold_age_rounds=16),
        writeback_period_ns=500_000,
        num_cpus=num_cpus,
    )


def build_optane_kernel(
    policy: str,
    *,
    scale_factor: int = 1024,
    seed: int = 42,
    registry: Optional[KlocRegistry] = None,
) -> Tuple[Kernel, TieringPolicy]:
    """Construct a started Memory-Mode kernel under one Fig 5a strategy."""
    try:
        policy_cls = OPTANE_POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown Optane policy {policy!r}; choose from "
            f"{sorted(OPTANE_POLICIES)}"
        ) from None
    spec = optane_platform_spec(scale_factor=scale_factor)
    instance = policy_cls()
    kernel = Kernel(spec, instance, seed=seed, registry=registry)
    kernel.start()
    return kernel, instance
