"""Shared experiment defaults: scale, op budgets and the seed.

Pass ``ops`` to a runner (``--ops`` on the CLI) to shrink a run.
"""

from __future__ import annotations

import os
from typing import Dict

#: Capacity divisor relative to the paper's hardware (8GB fast → 8MB).
SCALE_FACTOR = 1024

#: Steady-state measurement ops per workload (post-setup).
DEFAULT_OPS: Dict[str, int] = {
    "rocksdb": 40_000,
    "redis": 20_000,
    "filebench": 24_000,
    "cassandra": 20_000,
    "spark": 600,
}

#: The workloads Fig 4/Fig 6 sweep (the paper drops Spark in §6.1 because
#: of firewall issues; we include it in Fig 2 only, like the paper).
EVAL_WORKLOADS = ("rocksdb", "redis", "filebench", "cassandra")

#: Representative pair used where a full sweep would be prohibitively
#: slow at benchmark time (Fig 6's 9-config sweep).
SWEEP_WORKLOADS = ("rocksdb", "redis")


def ops_for(workload: str) -> int:
    """Measurement op budget for one workload."""
    return DEFAULT_OPS[workload]


def seed() -> int:  # simlint: config-site
    return int(os.environ.get("REPRO_SEED", "42"))
