"""Deterministic Python call counts per ``repro`` package, pinned.

Host timings drift from run to run; how many Python functions a cell
calls does not. This test runs four cold cells, each in a fresh
interpreter, counts every ``sys.setprofile`` ``call`` event whose code
lives under ``src/repro/``, groups the counts by top-level package
(``kernel``, ``mem``, ``vfs``, ...) and by phase, and fails when any
count is higher than the one recorded in ``call_counts.json``.

The cells have the shapes of the repo benchmark's four workloads at a
quarter of its op budgets. Phases: ``setup`` is the kernel build and
the workload's load phase, up to the first ``Workload.run``; ``measure``
is the rest of the cell (the measured ops, the Optane run's
interference switch, the reports and the teardown). Module bodies are
not counted, because a module runs its body only on its first import.

After a change that lowers a count, record the new counts::

    PYTHONPATH=src python -m tests.perf.test_call_counts
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

FIXTURE = Path(__file__).resolve().parent / "call_counts.json"
ROOT = Path(__file__).resolve().parents[2]
SEED = 42

#: cell -> (platform, workload, policy, measured ops).
CELLS: Dict[str, Tuple[str, str, str, int]] = {
    "lsm-klocs": ("two_tier", "rocksdb", "klocs", 2_500),
    "kv-nimble": ("two_tier", "redis", "nimble", 1_250),
    "fileserver-klocs": ("two_tier", "filebench", "klocs", 1_500),
    "numa-kv-autonuma": ("optane", "redis", "autonuma", 1_250),
}


def count_calls(cell: str) -> Dict[str, Dict[str, int]]:
    """Run one cell in this interpreter; phase -> package -> calls."""
    from repro.experiments import runner
    from repro.workloads.base import Workload

    kind, workload, policy, ops = CELLS[cell]
    package_dir = str(ROOT / "src" / "repro") + os.sep
    run_code = Workload.run.__code__
    counts = {"setup": Counter(), "measure": Counter()}
    package_of: Dict[Any, str] = {}
    current = counts["setup"]

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal current
        if event != "call":
            return
        code = frame.f_code
        package = package_of.get(code)
        if package is None:
            path = code.co_filename
            if not path.startswith(package_dir) or code.co_name == "<module>":
                package = ""
            else:
                package = path[len(package_dir):].split(os.sep)[0]
                if package.endswith(".py"):
                    package = "repro"
            package_of[code] = package
        if code is run_code:
            current = counts["measure"]
        if package:
            current[package] += 1

    sys.setprofile(profile)
    try:
        if kind == "two_tier":
            runner.run_two_tier(workload, policy, ops=ops, run_seed=SEED)
        else:
            runner.run_optane_interference(workload, policy, ops, run_seed=SEED)
    finally:
        sys.setprofile(None)
    return {phase: dict(sorted(c.items())) for phase, c in counts.items()}


def measure(cell: str) -> Dict[str, Dict[str, int]]:
    """Count one cell in a fresh interpreter, so that no class-level
    cache or first import left by an earlier run changes the counts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(ROOT)
    out = subprocess.run(
        [sys.executable, "-m", "tests.perf.test_call_counts", "--cell", cell],
        cwd=ROOT,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def _load() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_matches_cells():
    record = _load()
    assert record["seed"] == SEED
    assert record["cells"] == {name: list(shape) for name, shape in CELLS.items()}


@pytest.mark.parametrize("cell", list(CELLS))
def test_call_counts_do_not_rise(cell):
    want = _load()["counts"][cell]
    got = measure(cell)
    rises = {
        f"{phase}.{package}": (n, want.get(phase, {}).get(package, 0))
        for phase, by_package in got.items()
        for package, n in by_package.items()
        if n > want.get(phase, {}).get(package, 0)
    }
    assert not rises, f"calls (got, recorded) rose: {rises}"
    assert got["measure"], "the measure phase made no calls"


def main(argv: List[str]) -> None:
    if argv[:1] == ["--cell"]:
        print(json.dumps(count_calls(argv[1])))
        return
    record = {
        "seed": SEED,
        "python": "%d.%d" % sys.version_info[:2],
        "cells": {name: list(shape) for name, shape in CELLS.items()},
        "counts": {name: measure(name) for name in CELLS},
    }
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main(sys.argv[1:])
