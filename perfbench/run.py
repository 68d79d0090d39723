#!/usr/bin/env python3
"""The repository benchmark: cold simulator cells, timed end to end and per layer.

One run repeats one workload as cold cells, each a fresh interpreter
running ``cell.py``, one at a time (closed loop, one simulated client),
until ``--seconds`` are used up. Every cell runs with the result cache
and the snapshot store off and a private cache directory, so it times
simulation, never a JSON read or a restore, and never touches the
user's ``.repro_cache/``.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's cells (the sample count is printed). Host times are scaled to a
nominal machine speed measured by a reference loop around each cell
(see ``REFERENCE_S``); the raw medians are printed beside them.
``--trace 1`` alternates untraced and traced cells and reports the
per-layer metrics of ``layers.py``, the trace overhead and the snapshot
save/load numbers.

A cell fails if it raises (``SanitizerError`` included), if its payload
digest differs from the one recorded in ``digests.json`` for this
workload, seed and ``SIM_VERSION``, from the run's first cell, or, in a
traced run, from the untraced cells. The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

A cell whose payload check fails still counts in the timings, so a wrong
tree reports ``"correct": false`` with its metrics; a run exits non-zero
only when no cell ran to the end.

Usage::

    python3 perfbench/run.py --workload lsm-klocs --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload kv-nimble --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --workload lsm-klocs --record-digests 0-31
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

from cell import WORKLOADS
from layers import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: The seed figures are quoted at, and the seed kept back for confirming
#: a later claim on inputs it was not tuned on.
DEFAULT_SEED = 42
HELD_OUT_SEED = 7

#: Fewest cells a run makes, whatever ``--seconds`` says: medians need
#: several samples, and a traced run needs one cell of each kind.
MIN_PLAIN_CELLS = 5
#: A cell that runs longer than this is killed and counts as failed.
CELL_TIMEOUT_S = 120.0
#: Stop starting cells once this much time has gone, so a run ends well
#: inside its 180 s limit even when cells have become slow.
HARD_STOP_S = 140.0

#: On a shared host the speed of the machine drifts by a quarter or more
#: between runs, and every host time drifts with it. So a fixed
#: pure-Python reference loop runs before and after each cell, and host
#: times are reported scaled to the speed at which that loop takes
#: REFERENCE_S: host seconds on a nominal machine. Raw times are printed
#: beside them.
REFERENCE_S = 0.2


class _Page:
    __slots__ = ("fid", "refs")

    def __init__(self, fid: int) -> None:
        self.fid = fid
        self.refs = 0

    def touch(self, n: int) -> int:
        self.refs += n
        return self.refs


def reference_loop() -> float:
    """CPU seconds of a fixed mix of dict, attribute and call work."""
    t0 = process_time()
    pages: Dict[int, _Page] = {}
    recent: List[tuple] = []
    for i in range(700_000):
        fid = (i * 2654435761) & 8191
        page = pages.get(fid)
        if page is None:
            page = pages[fid] = _Page(fid)
        recent.append((fid, page.touch(i & 7)))
        if len(recent) > 64:
            del recent[:32]
    sorted(pages.values(), key=lambda p: p.refs)
    return process_time() - t0


@dataclass
class Cell:
    """One finished cell: host rusage measured here, the rest from ``cell.py``."""

    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    report: Dict[str, Any]
    error: Optional[str]
    #: REFERENCE_S over the reference loop's time around this cell.
    speed: float = 1.0

    @property
    def timed(self) -> bool:
        """The cell ran to the end, so its timings count even if its payload is wrong."""
        return "digest" in self.report


def run_cell(workload: str, seed: int, traced: bool, scratch: Path, env: Dict[str, str]) -> Cell:
    """Start one cell, wait for it, and collect its resource usage."""
    cell_dir = Path(tempfile.mkdtemp(dir=scratch))
    out = cell_dir / "cell.json"
    cmd = [
        sys.executable, str(HERE / "cell.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out),
    ]
    with open(cell_dir / "stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CELL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report: Dict[str, Any] = {}
    error = None
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        error = f"cell exited {proc.returncode} without a report"
    if error is None and "error" in report:
        error = report["error"]
    if error is None and proc.returncode != 0:
        error = f"cell exited {proc.returncode}"
    if error is not None:
        tail = (cell_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        print(f"cell failed: {error}\n{tail[-2000:]}", file=sys.stderr)
    shutil.rmtree(cell_dir, ignore_errors=True)
    return Cell(traced, wall_s, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, report, error)


def cell_env(scratch: Path) -> Dict[str, str]:
    """The inherited environment minus every simulator knob, plus isolation."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_NO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    return env


def load_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def check_outputs(outputs: Dict[str, Any]) -> Optional[str]:
    """Sanity bounds on the simulated outputs; None when they hold."""
    tput = outputs.get("throughput")
    if not isinstance(tput, (int, float)) or not math.isfinite(tput) or tput <= 0:
        return f"throughput {tput!r} is not a positive number"
    frac = outputs.get("fast_ref_fraction")
    if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
        return f"fast_ref_fraction {frac!r} is outside [0, 1]"
    for name in ("migrations_down", "migrations_up", "kloc_metadata_bytes"):
        value = outputs.get(name)
        if not isinstance(value, int) or value < 0:
            return f"{name} {value!r} is not a count"
    return None


def judge(cells: List[Cell], workload: str, seed: int) -> None:
    """Mark cells whose payload is wrong; every cell must match every other."""
    recorded = load_digests()
    reference = None
    for cell in cells:
        if cell.error is not None:
            continue
        rep = cell.report
        expect = recorded.get(rep["sim_version"], {}).get(workload, {}).get(str(seed))
        problem = check_outputs(rep["outputs"])
        if problem is None and expect is not None and rep["digest"] != expect:
            problem = (f"payload digest {rep['digest'][:16]} differs from the one recorded "
                       f"for SIM_VERSION {rep['sim_version']} ({expect[:16]})")
        if problem is None and reference is not None and rep["digest"] != reference:
            kind = "traced" if cell.traced else "untraced"
            problem = f"{kind} payload digest {rep['digest'][:16]} differs from {reference[:16]}"
        if problem is None and reference is None:
            reference = rep["digest"]
        if problem is not None:
            cell.error = problem
            print(f"cell failed: {problem}", file=sys.stderr)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail_mean(sorted_values: List[int], share: float) -> float:
    """Mean of the slowest ``share`` of an already sorted list.

    Used in place of the p99 itself: on these workloads the slow ops
    (daemon passes, flushes, compactions) make up about 1% of all ops, so
    the p99 falls on either side of that step from seed to seed, while
    the mean of the slowest 1% stays put.
    """
    n = max(1, int(len(sorted_values) * share))
    return sum(sorted_values[-n:]) / n


def end_to_end(cells: List[Cell]) -> Dict[str, Dict[str, Any]]:
    good = [c for c in cells if c.timed]
    p50: List[float] = []
    tail: List[float] = []
    for cell in good:
        op_ns = sorted(cell.report["op_ns"])
        p50.append(percentile(op_ns, 0.50) / 1e3)
        tail.append(tail_mean(op_ns, 0.01) / 1e3)
    speed = [c.speed for c in good]
    values = {
        "wall_s": ("s", median([c.wall_s * k for c, k in zip(good, speed)])),
        "cpu_s": ("s", median([c.cpu_s * k for c, k in zip(good, speed)])),
        "setup_s": ("s", median([c.report["setup_cpu_s"] * k for c, k in zip(good, speed)])),
        "ops_per_s": ("ops/s", median([c.report["ops"] / (c.report["measure_cpu_s"] * k)
                                       for c, k in zip(good, speed)])),
        "op_p50_us": ("us", median([v * k for v, k in zip(p50, speed)])),
        "op_tail99_us": ("us", median([v * k for v, k in zip(tail, speed)])),
        "peak_rss_mb": ("MB", median([c.rss_mb for c in good])),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def per_layer(cells: List[Cell]) -> Dict[str, Dict[str, Any]]:
    good = [c for c in cells if c.timed]
    traced = [c for c in good if c.traced]
    plain = [c for c in good if not c.traced]
    if not traced or not plain:
        return {}
    samples = []
    for c in traced:
        sample = {**c.report["layers"], **c.report["snapshot"]}
        samples.append({name: v * c.speed if layer_unit(name) in ("s", "us/page") else v
                        for name, v in sample.items()})
    values = {name: median([s[name] for s in samples]) for name in samples[0]}
    # Traced CPU excludes the snapshot save/load the traced cells also do.
    traced_cpu = median([(c.cpu_s - c.report["snapshot_cpu_s"]) * c.speed for c in traced])
    values["trace_overhead"] = traced_cpu / median([c.cpu_s * c.speed for c in plain])
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def describe(cell: Cell) -> str:
    """One line of per-cell samples, for the progress log on stderr."""
    line = (f"speed {cell.speed:.3f}  wall {cell.wall_s:.4f} s  cpu {cell.cpu_s:.4f} s"
            f"  rss {cell.rss_mb:.2f} MB")
    rep = cell.report
    if cell.timed:
        op_ns = sorted(rep["op_ns"])
        line += (f"  setup {rep['setup_cpu_s']:.4f} s"
                 f"  ops/s {rep['ops'] / rep['measure_cpu_s']:.1f}"
                 f"  p50 {percentile(op_ns, 0.5) / 1e3:.3f} us"
                 f"  tail99 {tail_mean(op_ns, 0.01) / 1e3:.1f} us")
    return line


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> List[Cell]:
    """Run cells until the time is used up (and the minimum count is met)."""
    env = cell_env(scratch)
    cells: List[Cell] = []
    start = perf_counter()
    ref_before = reference_loop()
    while True:
        # A traced run alternates untraced and traced cells, untraced first.
        traced = trace and len(cells) % 2 == 1
        cell = run_cell(workload, seed, traced, scratch, env)
        ref_after = reference_loop()
        cell.speed = 2 * REFERENCE_S / (ref_before + ref_after)
        ref_before = ref_after
        cells.append(cell)
        elapsed = perf_counter() - start
        print(f"cell {len(cells)}{' traced' if traced else ''}: {describe(cell)}", file=sys.stderr)
        if elapsed > HARD_STOP_S:
            break
        next_traced = trace and len(cells) % 2 == 1
        same_kind = [c.wall_s for c in cells if c.traced == next_traced]
        expected = median(same_kind) if same_kind else cells[-1].wall_s
        if len(cells) >= (2 if trace else MIN_PLAIN_CELLS) and elapsed + expected > seconds:
            break
    return cells


def print_summary(workload: str, seed: int, cells: List[Cell],
                  metrics: Dict[str, Dict[str, Any]]) -> None:
    good = [c for c in cells if c.timed]
    traced = sum(c.traced for c in cells)
    failed = sum(c.error is not None for c in cells)
    print(f"workload {workload}  seed {seed}  cells {len(cells)} "
          f"(traced {traced}, failed {failed})")
    if good:
        out = good[0].report["outputs"]
        print("simulated outputs checked: "
              f"throughput={out['throughput']:.6g} ops/s  "
              f"fast_ref_fraction={out['fast_ref_fraction']:.6g}  "
              f"migrations_down={out['migrations_down']}  migrations_up={out['migrations_up']}  "
              f"kloc_metadata_peak={out['kloc_metadata_bytes']} B  "
              f"digest={good[0].report['digest'][:16]}")
    samples = sum(not c.traced for c in good)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  (medians over {samples} untraced and {len(good) - samples} traced cells; "
          f"times scaled to the reference speed)")
    plain = [c for c in good if not c.traced]
    if plain:
        print(f"  raw host medians: wall {median([c.wall_s for c in plain]):.4f} s  "
              f"cpu {median([c.cpu_s for c in plain]):.4f} s  "
              f"setup {median([c.report['setup_cpu_s'] for c in plain]):.4f} s  "
              f"host speed {median([c.speed for c in good]):.3f} of nominal")


def record_digests(workload: str, seeds: List[int], scratch: Path) -> int:
    """Run one untraced cell per seed and record its digest."""
    recorded = load_digests()
    env = cell_env(scratch)
    for seed in seeds:
        cell = run_cell(workload, seed, False, scratch, env)
        if cell.error is not None or check_outputs(cell.report["outputs"]) is not None:
            print(f"seed {seed}: not recorded ({cell.error})", file=sys.stderr)
            return 1
        by_seed = recorded.setdefault(cell.report["sim_version"], {}).setdefault(workload, {})
        old = by_seed.setdefault(str(seed), cell.report["digest"])
        if old != cell.report["digest"]:
            print(f"seed {seed}: digest {cell.report['digest'][:16]} differs from the "
                  f"recorded {old[:16]}; bump SIM_VERSION if behaviour changed", file=sys.stderr)
            return 1
        print(f"{workload} seed {seed}: {cell.report['digest']}")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI",
                        help="record payload digests for a range of seeds and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.record_digests:
            return record_digests(args.workload, parse_seeds(args.record_digests), scratch)
        cells = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    judge(cells, args.workload, args.seed)
    if not any(c.timed for c in cells):
        print("perfbench: no cell ran to the end", file=sys.stderr)
        return 1
    metrics = per_layer(cells) if args.trace else end_to_end(cells)
    if not metrics:
        print("perfbench: the traced run lacks a finished traced or untraced cell",
              file=sys.stderr)
        return 1
    print_summary(args.workload, args.seed, cells, metrics)
    failed = sum(c.error is not None for c in cells)
    print(json.dumps({"correct": failed == 0, "attempted": len(cells), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
