"""The golden-digest grid: which cells are pinned and how each is hashed.

Every cell runs cold (no result cache) at a fixed
seed, scale and op budget, so its payload depends only on the simulator
source. The digest is the sha256 of the payload's canonical JSON.

Two-tier cells hash :func:`repro.experiments.cache.run_to_payload`.
Optane interference cells hash a payload built from the kernel the run
used: reference and access-time attribution, migrations between the
nodes, per-node hardware-cache and local/remote counters, and the final
clock — far more than the throughput float the runner returns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
REGENERATE_CMD = "PYTHONPATH=src python -m tests.golden.regenerate"

OPS = 600
SEED = 42
SCALE_FACTOR = 1024

TWO_TIER_WORKLOADS = ("rocksdb", "redis", "filebench", "cassandra", "spark")
TWO_TIER_POLICIES = ("naive", "nimble", "nimble++", "klocs")
OPTANE_WORKLOADS = ("cassandra", "redis")
OPTANE_POLICIES = ("autonuma", "klocs", "all_local")


def cells() -> List[Tuple[str, str, str]]:
    """Every (platform, workload, policy) cell, in a stable order."""
    grid = [
        ("two_tier", w, p) for w in TWO_TIER_WORKLOADS for p in TWO_TIER_POLICIES
    ]
    grid += [("optane", w, p) for w in OPTANE_WORKLOADS for p in OPTANE_POLICIES]
    return grid


def cell_id(platform: str, workload: str, policy: str) -> str:
    return f"{platform}/{workload}/{policy}"


def digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _two_tier_payload(workload: str, policy: str) -> Dict[str, Any]:
    from repro.experiments.cache import run_to_payload
    from repro.experiments.runner import run_two_tier

    run = run_two_tier(
        workload, policy, ops=OPS, scale_factor=SCALE_FACTOR, run_seed=SEED
    )
    return run_to_payload(run)


def _optane_payload(workload: str, policy: str) -> Dict[str, Any]:
    import repro.platforms.optane as optane
    from repro.experiments.runner import run_optane_interference

    captured: List[Any] = []
    build = optane.build_optane_kernel

    def capture(*args: Any, **kwargs: Any) -> Any:
        kernel, pol = build(*args, **kwargs)
        captured.append(kernel)
        return kernel, pol

    optane.build_optane_kernel = capture
    try:
        throughput = run_optane_interference(
            workload,
            policy,
            OPS,
            scale_factor=SCALE_FACTOR,
            run_seed=SEED,
        )
    finally:
        optane.build_optane_kernel = build
    (kernel,) = captured
    topo = kernel.topology
    nodes = {}
    for name, node in sorted(kernel.nodes.items()):
        cache = node.hw_cache
        nodes[name] = {
            "local_accesses": node.local_accesses,
            "remote_accesses": node.remote_accesses,
            "hw_hits": cache.hits if cache is not None else None,
            "hw_misses": cache.misses if cache is not None else None,
            "hw_evictions": cache.evictions if cache is not None else None,
        }
    return {
        "kind": "optane",
        "workload": workload,
        "policy": policy,
        "throughput": throughput,
        "now_ns": kernel.clock.now(),
        "refs_by_tier": {
            f"{tier}/{'kernel' if is_kernel else 'app'}": n
            for (tier, is_kernel), n in kernel.refs_by_tier.items()
        },
        "access_ns_by": {
            f"{owner.value}/{tier}": ns
            for (owner, tier), ns in kernel.access_ns_by.items()
        },
        "refs": {
            "kernel_refs": kernel.kernel_refs,
            "kernel_ref_bytes": kernel.kernel_ref_bytes,
            "app_refs": kernel.app_refs,
            "app_ref_bytes": kernel.app_ref_bytes,
            "by_owner": {o.value: n for o, n in kernel.refs_by_owner.items()},
        },
        "migrations": {
            "node0->node1": topo.migrations_between("node0", "node1"),
            "node1->node0": topo.migrations_between("node1", "node0"),
        },
        "nodes": nodes,
    }


def payload(platform: str, workload: str, policy: str) -> Dict[str, Any]:
    if platform == "two_tier":
        return _two_tier_payload(workload, policy)
    if platform == "optane":
        return _optane_payload(workload, policy)
    raise ValueError(f"unknown golden platform {platform!r}")


def compute(platform: str, workload: str, policy: str) -> str:
    return digest(payload(platform, workload, policy))


def load() -> Dict[str, Any]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
