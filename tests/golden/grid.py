"""The golden-digest grid: which cells are pinned and how each is hashed.

Every cell runs cold (no result cache) at a fixed
seed, scale and op budget, so its payload depends only on the simulator
source. The digest is the sha256 of the payload's canonical JSON.

Two-tier cells hash :func:`repro.experiments.cache.run_to_payload`.
The eviction cells are rocksdb runs long enough to pass page-cache
eviction onset, with readahead on and off, so the digests also cover
LRU eviction, the read-miss path, readahead fetches and the KLOC
prefetch hook; their op budget and readahead flag are part of the id.
Two more rocksdb cells run the KLOC ablations (no migration, and
fine-grained LRU migration), whose scan engines no other cell builds.
The Fig 2 cell hashes one all-fast characterization run — footprint,
references and the lifetime report's means and sample counts — so the
digests also cover the freed-app-page lifetime accounting.
Optane interference cells hash a payload built from the kernel the run
used: reference and access-time attribution, migrations between the
nodes, per-node hardware-cache and local/remote counters, and the final
clock — far more than the throughput float the runner returns.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
REGENERATE_CMD = "PYTHONPATH=src python -m tests.golden.regenerate"

OPS = 600
SEED = 42
SCALE_FACTOR = 1024

TWO_TIER_WORKLOADS = ("rocksdb", "redis", "filebench", "cassandra", "spark")
TWO_TIER_POLICIES = ("naive", "nimble", "nimble++", "klocs")
#: KLOC ablations, pinned on one workload only.
ABLATION_CELLS = (("rocksdb", "klocs_nomigration"), ("rocksdb", "klocs_fine"))
OPTANE_WORKLOADS = ("cassandra", "redis")
OPTANE_POLICIES = ("autonuma", "klocs", "all_local")
EVICTION_OPS = 20_000
EVICTION_WORKLOAD = "rocksdb"
EVICTION_POLICIES = ("naive", "klocs")
FIG2_WORKLOAD = "rocksdb"
FIG2_CELL_ID = f"fig2/{FIG2_WORKLOAD}/all_fast"


def cells() -> List[Tuple[str, str, str]]:
    """Every (platform, workload, policy) cell, in a stable order."""
    grid = [
        ("two_tier", w, p) for w in TWO_TIER_WORKLOADS for p in TWO_TIER_POLICIES
    ]
    grid += [("two_tier", w, p) for w, p in ABLATION_CELLS]
    grid += [("optane", w, p) for w in OPTANE_WORKLOADS for p in OPTANE_POLICIES]
    return grid


def cell_id(platform: str, workload: str, policy: str) -> str:
    return f"{platform}/{workload}/{policy}"


def eviction_cells() -> List[Tuple[str, bool]]:
    """Every (policy, readahead) eviction cell, in a stable order."""
    return [(p, ra) for p in EVICTION_POLICIES for ra in (True, False)]


def eviction_cell_id(policy: str, readahead: bool) -> str:
    flag = "on" if readahead else "off"
    return (
        f"two_tier/{EVICTION_WORKLOAD}/{policy}"
        f"/ops{EVICTION_OPS}/readahead-{flag}"
    )


def all_cell_ids() -> List[str]:
    return (
        [cell_id(*c) for c in cells()]
        + [eviction_cell_id(*c) for c in eviction_cells()]
        + [FIG2_CELL_ID]
    )


def digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@contextmanager
def _captured_kernel(module: Any, builder: str) -> Iterator[List[Any]]:
    """Wrap ``module.builder`` so every kernel it builds is collected."""
    build = getattr(module, builder)
    captured: List[Any] = []

    def capture(*args: Any, **kwargs: Any) -> Any:
        kernel, pol = build(*args, **kwargs)
        captured.append(kernel)
        return kernel, pol

    setattr(module, builder, capture)
    try:
        yield captured
    finally:
        setattr(module, builder, build)


def _two_tier_payload(
    workload: str, policy: str, ops: int = OPS, readahead: bool = True
) -> Dict[str, Any]:
    from repro.experiments.cache import run_to_payload
    from repro.experiments.runner import run_two_tier

    run = run_two_tier(
        workload,
        policy,
        ops=ops,
        scale_factor=SCALE_FACTOR,
        readahead_enabled=readahead,
        run_seed=SEED,
    )
    return run_to_payload(run)


def _optane_payload(workload: str, policy: str) -> Dict[str, Any]:
    import repro.platforms.optane as optane
    from repro.experiments.runner import run_optane_interference
    from repro.metrics.references import reference_report

    with _captured_kernel(optane, "build_optane_kernel") as captured:
        throughput = run_optane_interference(
            workload,
            policy,
            OPS,
            scale_factor=SCALE_FACTOR,
            run_seed=SEED,
        )
    (kernel,) = captured
    topo = kernel.topology
    refs = reference_report(kernel)
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
            "kernel_refs": refs.kernel_refs,
            "kernel_ref_bytes": refs.kernel_bytes,
            "app_refs": refs.app_refs,
            "app_ref_bytes": refs.app_bytes,
            "by_owner": {o.value: n for o, n in refs.by_owner.items()},
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


def eviction_run(policy: str, readahead: bool) -> Tuple[str, int]:
    """(digest, pages evicted from the page cache) of one eviction cell."""
    import repro.experiments.runner as runner

    with _captured_kernel(runner, "build_two_tier_kernel") as captured:
        blob = _two_tier_payload(EVICTION_WORKLOAD, policy, EVICTION_OPS, readahead)
    (kernel,) = captured
    return digest(blob), kernel.fs.cache_mgr.evicted


def fig2_run() -> Tuple[str, int]:
    """(digest, application pages freed) of the Fig 2 characterization cell."""
    import repro.experiments.fig2 as fig2
    from repro.experiments.defaults import SCALE_FACTOR as FIG2_SCALE
    from repro.mem.frame import PageOwner

    assert FIG2_SCALE == SCALE_FACTOR
    with _captured_kernel(fig2, "build_two_tier_kernel") as captured:
        row = fig2._characterize(FIG2_WORKLOAD, ops=OPS)
    (kernel,) = captured
    lt = row.lifetimes
    fp = row.footprint
    refs = row.references
    blob = {
        "kind": "fig2",
        "workload": FIG2_WORKLOAD,
        "lifetimes": {
            "app_mean_ns": lt.app_mean_ns,
            "slab_mean_ns": lt.slab_mean_ns,
            "page_cache_mean_ns": lt.page_cache_mean_ns,
            "by_type_ns": lt.by_type_ns,
            "samples": lt.samples,
        },
        "footprint": {
            "allocated": {o.value: n for o, n in fp.allocated.items()},
            "live": {o.value: n for o, n in fp.live.items()},
        },
        "references": {
            "kernel_refs": refs.kernel_refs,
            "app_refs": refs.app_refs,
            "kernel_bytes": refs.kernel_bytes,
            "app_bytes": refs.app_bytes,
            "by_owner": {o.value: n for o, n in refs.by_owner.items()},
        },
    }
    topo = kernel.topology
    app_freed = topo.allocated_pages_by_owner(PageOwner.APP) - topo.live_pages_by_owner(
        PageOwner.APP
    )
    return digest(blob), app_freed


def load() -> Dict[str, Any]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
