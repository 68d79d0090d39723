"""Parallel experiment engine: fan independent runs out across cores.

Every paper figure is a grid of independent, deterministic simulator runs
(Fig 4 is workloads × strategies; Fig 6 is workloads × 9 configs ×
strategies). Each grid cell builds its own kernel with its own seed, so
cells share no state and can execute in any order on any core — the
engine dispatches cache misses to a :class:`ProcessPoolExecutor` and
merges results back **in grid order**, making parallel output
bit-for-bit identical to a serial sweep.

Combined with :mod:`repro.experiments.cache`, a repeated invocation of a
figure is served almost entirely from disk.

Environment knobs:

- ``REPRO_JOBS`` — worker processes (default: all cores).
  ``REPRO_JOBS=1`` forces the in-process serial path (debugging,
  profiling, pdb).
- ``REPRO_NO_CACHE=1`` / ``REPRO_CACHE_DIR`` — see the cache module.

Per-cell visibility: each grid cell logs one stderr line —
``[sweep] 3/12 rocksdb/klocs ops=40000 .. computed 12.4s`` or
``.. cached`` — so silent cache staleness (or a surprisingly slow cell)
is visible at a glance. Every finished cell is stored as it completes,
so a killed sweep's finished cells return from the result cache on the
next invocation.
"""

from __future__ import annotations

import os
import sys
import time  # simlint: ok[determinism] host-side wall timing for stderr logs only
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.cache import (
    ResultCache,
    RunSpec,
    run_from_payload,
    run_to_payload,
)
from repro.experiments.runner import run_optane_interference, run_two_tier


def default_jobs() -> int:  # simlint: config-site
    """Worker count: ``REPRO_JOBS`` if set, else every core."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec to completion and return its JSON-able payload.

    This is the worker entry point — it must stay module-level (and take
    only picklable arguments) so :class:`ProcessPoolExecutor` can ship it
    to a forked/spawned child.
    """
    if spec.kind == "two_tier":
        run = run_two_tier(
            spec.workload,
            spec.policy,
            ops=spec.ops,
            scale_factor=spec.scale_factor,
            bandwidth_ratio=spec.bandwidth_ratio,
            fast_bytes_paper=spec.fast_bytes_paper,
            registry=spec.build_registry(),
            readahead_enabled=spec.readahead_enabled,
            run_seed=spec.seed,
        )
        return run_to_payload(run)
    if spec.kind == "optane":
        tput = run_optane_interference(
            spec.workload,
            spec.policy,
            spec.ops,
            scale_factor=spec.scale_factor,
            run_seed=spec.seed,
        )
        return {"kind": "optane", "throughput": tput}
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def _timed_execute(spec: RunSpec) -> Dict[str, Any]:
    start = time.perf_counter()  # simlint: ok[determinism] host-side timing
    payload = execute_spec(spec)
    # simlint: ok[determinism] host-side timing; stripped before decode
    payload["_wall_s"] = time.perf_counter() - start
    return payload


def result_from_payload(payload: Dict[str, Any]) -> Any:
    """Decode a payload to what the serial runner would have returned:
    a :class:`TwoTierRun` for two-tier cells, a throughput float for
    Optane cells."""
    if payload.get("kind") == "optane":
        return payload["throughput"]
    return run_from_payload(payload)


def _log_cell(
    index: int,
    total: int,
    spec: RunSpec,
    status: str,
    wall_s: float,
) -> None:
    timing = "" if status == "cached" else f" {wall_s:.1f}s"
    print(
        f"[sweep] {index + 1}/{total} {spec.label()} .. {status}{timing}",
        file=sys.stderr,
        flush=True,
    )


def run_specs(
    specs: Sequence[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Execute a grid of specs, parallel where possible, cached always.

    Results come back in ``specs`` order regardless of completion order,
    so callers can zip them against the grid they enumerated. Duplicate
    specs are computed once.
    """
    if jobs is None:
        jobs = default_jobs()
    if cache is None:
        cache = ResultCache()

    total = len(specs)
    payloads: List[Optional[Dict[str, Any]]] = [None] * total
    pending: List[int] = []
    computed_keys: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        payload = cache.load(spec)
        if payload is not None:
            payloads[i] = payload
            _log_cell(i, total, spec, "cached", 0.0)
        else:
            pending.append(i)

    # Dedupe identical pending specs: compute one, share the payload.
    leaders: List[int] = []
    followers: Dict[int, int] = {}
    for i in pending:
        key = specs[i].key()
        if key in computed_keys:
            followers[i] = computed_keys[key]
        else:
            computed_keys[key] = i
            leaders.append(i)

    def record(i: int, payload: Dict[str, Any]) -> None:
        wall_s = payload.pop("_wall_s", 0.0)
        payloads[i] = payload
        cache.store(specs[i], payload)
        _log_cell(i, total, specs[i], "computed", wall_s)

    if jobs > 1 and len(leaders) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(leaders))) as pool:
            futures = {pool.submit(_timed_execute, specs[i]): i for i in leaders}
            for future in as_completed(futures):
                record(futures[future], future.result())
    else:
        for i in leaders:
            record(i, _timed_execute(specs[i]))

    for i, leader in followers.items():
        payloads[i] = payloads[leader]
        _log_cell(i, total, specs[i], "cached", 0.0)

    return [result_from_payload(p) for p in payloads]
