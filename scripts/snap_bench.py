#!/usr/bin/env python3
"""Warm-start benchmark: snapshot-restored sweeps vs. cold setup replays.

``perfbench/run.py`` times cold cells end to end; this bench times the
part snapshots eliminate — the **setup phase**. The measured job is a
fig5b-style sweep (rocksdb under every placement policy, across an ops
ladder): with snapshots disabled every cell replays the full load phase,
with snapshots enabled only the first cell per (workload, policy) pays
it and every later ops point restores the warmed kernel from the store.
The snapshot store starts empty in both modes, so the warm number is the
honest first-invocation cost — cold setups for the first ladder rung,
restores for the rest.

Modes are isolated in **subprocesses** with the result cache off
(``REPRO_NO_CACHE=1``): every cell's measurement really runs, and the
only difference between the modes is where the setup phase comes from.
Reps are interleaved cold/warm to decorrelate machine noise, and the
reported speedup is min-over-min (the most repeatable wall-clock
estimator on noisy hosts).

Each worker also emits every cell's result payload (the exact dicts the
experiment cache hashes); the bench refuses to report a speedup unless
the cold and warm payload lists are byte-identical — a restored run that
diverges from its cold twin is a correctness bug, not a slow bench.

Writes ``BENCH_snap.json``.

Usage::

    PYTHONPATH=src python scripts/snap_bench.py            # full bench
    PYTHONPATH=src python scripts/snap_bench.py --quick    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The swept grid: fig5b's workload under every placement policy. The
#: ops ladder mimics an ops-sensitivity sweep — exactly the shape where
#: every rung past the first shares a warmed kernel.
WORKLOAD = "rocksdb"
POLICIES = ("naive", "nimble", "nimble++", "klocs")
FULL_OPS_LADDER = (1_000, 2_000, 4_000)
QUICK_OPS_LADDER = (500, 1_000)
FULL_REPS = 3
QUICK_REPS = 2


def _worker(mode: str, ops_ladder: List[int], snap_dir: str) -> int:
    """Run the sweep serially in one mode; print elapsed + payloads."""
    os.environ["REPRO_NO_CACHE"] = "1"  # measure real runs, not cache hits
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.cache import run_to_payload
    from repro.experiments.runner import run_two_tier
    from repro.snapshot import SnapshotStore

    # REPRO_NO_CACHE disables the *default* store, so each mode pins its
    # behavior explicitly: cold never touches disk, warm gets a private
    # store that starts empty (the spawner wipes it between reps).
    store = SnapshotStore(Path(snap_dir), enabled=(mode == "warm"))

    payloads = []
    restored = 0
    t0 = time.perf_counter()
    for ops in ops_ladder:
        for policy in POLICIES:
            run = run_two_tier(
                workload=WORKLOAD,
                policy=policy,
                ops=ops,
                snapshots=store,
            )
            restored += int(run.from_snapshot)
            payloads.append(run_to_payload(run))
    elapsed = time.perf_counter() - t0
    print(
        json.dumps(
            {"elapsed_s": elapsed, "restored": restored, "payloads": payloads},
            sort_keys=True,
        )
    )
    return 0


def _spawn(mode: str, ops_ladder: List[int], snap_dir: Path) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--_worker",
            mode,
            "--_ops-ladder",
            ",".join(str(o) for o in ops_ladder),
            "--_snap-dir",
            str(snap_dir),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _wipe(snap_dir: Path) -> None:
    for path in snap_dir.glob("*.snap"):
        path.unlink()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_snap.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run (shorter ops ladder, fewer reps)",
    )
    parser.add_argument("--reps", type=int, default=None, help="override rep count")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if the speedup falls below this "
        "(0 = report only; wall-clock gates are flaky on shared CI)",
    )
    parser.add_argument("--_worker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--_ops-ladder", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--_snap-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._worker is not None:
        ladder = [int(o) for o in args._ops_ladder.split(",")]
        return _worker(args._worker, ladder, args._snap_dir)

    ops_ladder = list(QUICK_OPS_LADDER if args.quick else FULL_OPS_LADDER)
    reps = args.reps if args.reps is not None else (
        QUICK_REPS if args.quick else FULL_REPS
    )
    cells = len(ops_ladder) * len(POLICIES)
    restores_expected = cells - len(POLICIES)

    with tempfile.TemporaryDirectory(prefix="snap_bench_") as tmp:
        snap_dir = Path(tmp)

        # Warm the interpreter/bytecode page cache per mode so first-rep
        # bias doesn't flatter either side.
        for mode in ("cold", "warm"):
            _spawn(mode, [min(200, ops_ladder[0])], snap_dir)
            _wipe(snap_dir)

        cold_times: List[float] = []
        warm_times: List[float] = []
        cold_payloads: Optional[list] = None
        warm_payloads: Optional[list] = None
        restored = 0
        for _rep in range(reps):
            cold = _spawn("cold", ops_ladder, snap_dir)
            warm = _spawn("warm", ops_ladder, snap_dir)
            _wipe(snap_dir)  # every rep starts from an empty store
            cold_times.append(float(cold["elapsed_s"]))
            warm_times.append(float(warm["elapsed_s"]))
            cold_payloads = cold["payloads"]
            warm_payloads = warm["payloads"]
            restored = int(warm["restored"])

    if cold_payloads != warm_payloads:
        print("PAYLOAD MISMATCH — restored runs diverged; timings are invalid")
        for i, (c, w) in enumerate(zip(cold_payloads, warm_payloads)):
            if c != w:
                print(f"  cell {i}: cold and warm payloads differ")
        return 2
    if restored != restores_expected:
        print(
            f"WARM PATH DID NOT ENGAGE — {restored} restored cells, "
            f"expected {restores_expected}; timings are invalid"
        )
        return 2

    best_cold = min(cold_times)
    best_warm = min(warm_times)
    speedup = best_cold / best_warm if best_warm > 0 else float("inf")

    report = {
        "bench": "snap_bench",
        "baseline": "REPRO_NO_SNAPSHOT-equivalent (snapshot store disabled; "
        "every cell replays the full setup phase)",
        "grid": {
            "workload": WORKLOAD,
            "policies": list(POLICIES),
            "ops_ladder": ops_ladder,
            "cells": cells,
            "restored_cells": restored,
        },
        "quick": args.quick,
        "reps": reps,
        "cold_s": [round(t, 4) for t in cold_times],
        "warm_s": [round(t, 4) for t in warm_times],
        "best_cold_s": round(best_cold, 4),
        "best_warm_s": round(best_warm, 4),
        "speedup": round(speedup, 2),
        "equivalent": True,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(
        f"grid: {WORKLOAD} x {len(POLICIES)} policies x "
        f"ops={ops_ladder} ({cells} cells, {restored} restored)"
    )
    print(f"cold : {['%.3f' % t for t in cold_times]}  best {best_cold:.3f}s")
    print(f"warm : {['%.3f' % t for t in warm_times]}  best {best_warm:.3f}s")
    print(f"speedup: {speedup:.2f}x (payloads identical)  -> {args.out}")

    if args.min_speedup and speedup < args.min_speedup:
        print(f"speedup {speedup:.2f}x below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
