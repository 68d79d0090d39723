"""Two-tier software-managed platform (Table 4, first half).

8GB fast DRAM @30GB/s over 80GB bandwidth-throttled DRAM, scaled down by
``scale_factor`` with time compression to match (see
:func:`repro.core.config.two_tier_platform_spec`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import PlatformSpec, two_tier_platform_spec
from repro.core.errors import ConfigError
from repro.core.units import GB
from repro.kernel.kernel import Kernel
from repro.kloc.registry import KlocRegistry
from repro.policies import TWO_TIER_POLICIES
from repro.policies.base import TieringPolicy

#: Paper-scale capacities (Table 4).
PAPER_FAST_BYTES = 8 * GB
PAPER_SLOW_BYTES = 80 * GB


def two_tier_spec_scaled(
    *,
    scale_factor: int = 1024,
    bandwidth_ratio: int = 8,
    fast_bytes_paper: int = PAPER_FAST_BYTES,
    slow_bytes_paper: int = PAPER_SLOW_BYTES,
    num_cpus: int = 16,
) -> PlatformSpec:
    """The paper's two-tier platform at 1/``scale_factor`` capacity."""
    return two_tier_platform_spec(
        fast_capacity_bytes=fast_bytes_paper // scale_factor,
        slow_capacity_bytes=slow_bytes_paper // scale_factor,
        bandwidth_ratio=bandwidth_ratio,
        num_cpus=num_cpus,
    )


def build_two_tier_kernel(
    policy: str,
    *,
    scale_factor: int = 1024,
    bandwidth_ratio: int = 8,
    fast_bytes_paper: int = PAPER_FAST_BYTES,
    seed: int = 42,
    registry: Optional[KlocRegistry] = None,
    readahead_enabled: bool = True,
) -> Tuple[Kernel, TieringPolicy]:
    """Construct a started kernel under one of Table 5's strategies.

    ``policy`` is a TWO_TIER_POLICIES key. The *All Fast Mem* bound gets a
    fast tier as large as the slow tier so nothing ever spills.
    """
    try:
        policy_cls = TWO_TIER_POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown two-tier policy {policy!r}; choose from "
            f"{sorted(TWO_TIER_POLICIES)}"
        ) from None
    fast = PAPER_SLOW_BYTES if policy == "all_fast" else fast_bytes_paper
    spec = two_tier_spec_scaled(
        scale_factor=scale_factor,
        bandwidth_ratio=bandwidth_ratio,
        fast_bytes_paper=fast,
    )
    instance = policy_cls()
    kernel = Kernel(
        spec,
        instance,
        seed=seed,
        registry=registry,
        readahead_enabled=readahead_enabled,
    )
    kernel.start()
    return kernel, instance
