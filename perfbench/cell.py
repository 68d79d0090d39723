"""One benchmark cell: a single workload run in a fresh interpreter.

``run.py`` starts this file once per cell and reads the JSON it writes
to ``--out``. The cell times, from the outside, what the process does:

- the CPU time from interpreter start to the end of ``Workload.setup()``
  (imports, kernel build, load phase);
- the CPU time of the measure phase (every ``Workload.run`` call);
- the host time of each ``run_op`` call.

With ``--trace 1`` it also installs the per-layer spans of
:mod:`layers` and times a save and a load of the post-setup state on a
private snapshot store. Either way it writes the run's payload and its
sha256, so the caller can check the cell against the recorded digests
and the traced run against the untraced one.

Usage (normally only through ``run.py``)::

    python3 perfbench/cell.py --workload lsm-klocs --seed 42 --trace 0 --out cell.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns, process_time
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (platform, app, policy, measured ops). The op budgets are
#: the quick-scale budgets of ``repro.experiments.defaults`` (a quarter
#: of the figure defaults), fixed here so that a change to the defaults
#: cannot silently change what the benchmark measures.
WORKLOADS: Dict[str, tuple] = {
    "lsm-klocs": ("two_tier", "rocksdb", "klocs", 10_000),
    "kv-nimble": ("two_tier", "redis", "nimble", 5_000),
    "fileserver-klocs": ("two_tier", "filebench", "klocs", 6_000),
    "numa-kv-autonuma": ("optane", "redis", "autonuma", 5_000),
}


class Probe:
    """Class-level hooks that time setup, the measure phase and each op."""

    def __init__(self, app_cls: type, on_measure_start=None) -> None:
        from repro.workloads.base import Workload

        self.op_ns: List[int] = []
        self.setup_cpu_s: Optional[float] = None
        self.measure_start: Optional[float] = None
        self.measure_end: Optional[float] = None
        self.kernel: Any = None
        self.workload: Any = None
        op_ns = self.op_ns
        run_op = app_cls.__dict__["run_op"]
        setup = Workload.setup
        run = Workload.run

        def timed_run_op(wl: Any, op_index: int, cpu: int) -> Any:
            t0 = perf_counter_ns()
            result = run_op(wl, op_index, cpu)
            op_ns.append(perf_counter_ns() - t0)
            return result

        def timed_setup(wl: Any) -> None:
            setup(wl)
            if self.setup_cpu_s is None:
                self.setup_cpu_s = process_time()
                self.kernel = wl.kernel
                self.workload = wl

        def timed_run(wl: Any, ops: int) -> Any:
            if self.measure_start is None:
                if on_measure_start is not None:
                    on_measure_start(self)
                self.measure_start = process_time()
            result = run(wl, ops)
            self.measure_end = process_time()
            return result

        for owner, name, fn in (
            (app_cls, "run_op", timed_run_op),
            (Workload, "setup", timed_setup),
            (Workload, "run", timed_run),
        ):
            fn.__name__ = name  # snapshots pickle bound methods by name
            setattr(owner, name, fn)


def snapshot_timer(store_dir: Path, key: Any, out: Dict[str, float]):
    """Measure-start hook: save and load the post-setup state once."""

    def hook(probe: Probe) -> None:
        from repro.snapshot import SnapshotStore

        store = SnapshotStore(root=store_dir, enabled=True)
        t0 = process_time()
        store.save(key, probe.kernel, probe.workload)
        t1 = process_time()
        loaded = store.load(key)
        t2 = process_time()
        if loaded is None:
            raise RuntimeError("snapshot load missed right after save")
        out["snapshot.save_s"] = t1 - t0
        out["snapshot.load_s"] = t2 - t1
        out["snapshot.bytes"] = sum(p.stat().st_size for p in store_dir.glob("*.snap"))

    return hook


def simulate(workload: str, seed: int, trace: bool, scratch: Path) -> Dict[str, Any]:
    """Run one cell; returns its payload, digest, outputs and timings."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.version import SIM_VERSION
    from repro.experiments import runner
    from repro.experiments.cache import run_to_payload
    from repro.workloads import WORKLOADS as APPS

    kind, app, policy, ops = WORKLOADS[workload]
    app_cls = APPS[app]
    snap: Dict[str, float] = dict.fromkeys(("snapshot.save_s", "snapshot.load_s", "snapshot.bytes"), 0)
    hook = None
    if trace:
        try:
            from repro.snapshot import setup_key
        except ImportError:
            print("perfbench: no repro.snapshot; snapshot metrics report 0", file=sys.stderr)
        else:
            key = setup_key(
                kind=kind, workload=app, policy=policy,
                scale_factor=runner.SCALE_FACTOR, seed=seed,
            )
            hook = snapshot_timer(scratch / "snapshots", key, snap)
    probe = Probe(app_cls, on_measure_start=hook)
    spans = None
    if trace:
        import layers

        spans = layers.install(app_cls)

    if kind == "two_tier":
        run = runner.run_two_tier(app, policy, ops=ops, run_seed=seed)
        payload = run_to_payload(run)
        outputs = {
            "throughput": run.throughput,
            "fast_ref_fraction": run.fast_ref_fraction,
            "migrations_down": run.migrations_down,
            "migrations_up": run.migrations_up,
            "kloc_metadata_bytes": run.kloc_metadata_bytes,
        }
    else:
        throughput = runner.run_optane_interference(app, policy, ops, run_seed=seed)
        kernel = probe.kernel
        # The task ends on node1, so node1 plays the fast (local) tier.
        outputs = {
            "throughput": throughput,
            "fast_ref_fraction": kernel.fast_ref_fraction("node1"),
            "migrations_down": kernel.topology.migrations_between("node1", "node0"),
            "migrations_up": kernel.topology.migrations_between("node0", "node1"),
            "kloc_metadata_bytes": (
                kernel.kloc_manager.peak_metadata_bytes if kernel.kloc_manager else 0
            ),
        }
        payload = {"kind": "optane", "workload": app, "policy": policy, **outputs}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    result: Dict[str, Any] = {
        "sim_version": SIM_VERSION,
        "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "outputs": outputs,
        "ops": len(probe.op_ns),
        "op_ns": probe.op_ns,
        "setup_cpu_s": probe.setup_cpu_s,
        "measure_cpu_s": probe.measure_end - probe.measure_start,
        "snapshot": snap,
        "snapshot_cpu_s": snap["snapshot.save_s"] + snap["snapshot.load_s"],
    }
    if spans is not None:
        result["layers"] = layers.report(spans, len(probe.op_ns))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        result = simulate(args.workload, args.seed, bool(args.trace), args.out.parent)
    except Exception as exc:  # noqa: BLE001 - any failure fails the cell, incl. SanitizerError
        import traceback

        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
