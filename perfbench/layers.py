"""Per-layer spans for the traced run, installed from outside the simulator.

Each entry point below is replaced, at class level, by a wrapper that
records a span around the call: calls, inclusive time and self time
(span time minus the time of the spans it encloses). Layers are the
packages under ``src/repro/``. Wrappers go in before the kernel is
built, because the kernel and its clock keep bound methods (the
``note_access`` hook, daemon callbacks) from construction on.

The simulator's own tracer (``repro.core.trace.Tracer``) is never
attached: it switches the kernel off its batched access path, so it
would time a different program. Spans are aggregated in memory and read
out once when the cell ends.

An entry point that a later version of the simulator no longer has is
skipped with a note on stderr and reports zero calls, so the benchmark
keeps running across refactors.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, owner module, owner class or None for a module function,
#: attribute names, metric key or None to use ``Class.attr``).
#: ``kernel.syscall`` folds every ``SyscallInterface`` method into one entry.
ENTRY_POINTS: List[Tuple[str, str, Optional[str], Tuple[str, ...], Optional[str]]] = [
    ("workloads", "repro.workloads.base", "Workload", ("setup",), None),
    (
        "kernel",
        "repro.kernel.syscalls",
        "SyscallInterface",
        (
            "creat", "open", "read", "write", "fsync", "close", "unlink",
            "socket", "send", "recv", "close_socket",
        ),
        "syscall",
    ),
    ("kernel", "repro.kernel.process", "Process", ("touch",), None),
    (
        "kernel",
        "repro.kernel.kernel",
        "Kernel",
        ("alloc_object", "free_object", "access_object", "access_frames"),
        None,
    ),
    (
        "vfs",
        "repro.vfs.filesystem",
        "Filesystem",
        ("create", "open", "read", "write", "fsync", "close", "unlink"),
        None,
    ),
    ("vfs", "repro.vfs.writeback", "WritebackDaemon", ("flush",), None),
    (
        "kloc",
        "repro.kloc.manager",
        "KlocManager",
        ("note_access", "add_object", "remove_object"),
        None,
    ),
    ("kloc", "repro.kloc.migrationd", "KlocMigrationDaemon", ("run", "knode_frames"), None),
    ("kloc", "repro.kloc.knode", "Knode", ("frames",), None),
    ("alloc", "repro.alloc.slab", "SlabAllocator", ("alloc", "free"), None),
    ("alloc", "repro.alloc.kloc_alloc", "KlocAllocator", ("alloc", "free"), None),
    ("alloc", "repro.alloc.buddy", "PageAllocator", ("alloc_object", "free_object"), None),
    ("mem", "repro.mem.topology", "MemoryTopology", ("allocate", "free", "move_frame"), None),
    ("mem", "repro.mem.migration", "MigrationEngine", ("migrate",), None),
    ("mem", "repro.mem.node", "NumaNode", ("access_cost_ns",), None),
    ("mem", "repro.mem.hwcache", "HardwareDRAMCache", ("access",), None),
    ("net", "repro.net.stack", "NetworkStack", ("deliver", "recv", "send"), None),
    ("ds", "repro.ds.radix", "RadixTree", ("lookup", "insert", "delete", "items"), None),
    ("ds", "repro.ds.rbtree", "RedBlackTree", ("insert", "delete"), None),
    ("ds", "repro.ds.lru", "ActiveInactiveLRU", ("touch",), None),
    ("policies", "repro.policies.lru_engine", "LRUScanEngine", ("scan",), None),
    # AutoNumaPolicy inherits its scan pass from NumaPolicyBase.
    ("policies", "repro.policies.autonuma", "NumaPolicyBase", ("_scan",), "AutoNumaPolicy.scan"),
    ("core", "repro.core.rng", "DeterministicRNG", ("zipf",), None),
    # The runner imports these by name, so its module attributes are patched.
    ("metrics", "repro.experiments.runner", None, ("footprint_snapshot", "reference_report"), None),
]

#: Entry points whose result is an iterator: each step of the iteration
#: is timed as part of the span, since that is where the work happens.
ITERATORS = {"ds.RadixTree.items"}

LAYERS = (
    "workloads", "kernel", "vfs", "kloc", "alloc", "mem", "net", "ds",
    "policies", "core", "metrics",
)


#: Units of the per-layer metrics that are not calls or seconds.
LAYER_UNITS = {
    "kernel.syscalls_per_op": "1/op",
    "vfs.writeback.pages_flushed": "pages",
    "vfs.writeback.us_per_flushed_page": "us/page",
    "kloc.pages_down": "pages",
    "kloc.pages_up": "pages",
    "kloc.frames_walked_per_page_moved": "ratio",
    "mem.migrate.pages": "pages",
    "mem.hwcache.hit_frac": "fraction",
    "ds.RadixTree.items.steps": "count",
    "policies.LRUScanEngine.scan.pages_moved": "pages",
    "policies.AutoNumaPolicy.scan.pages_moved": "pages",
    "snapshot.bytes": "bytes",
    "trace_overhead": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


class SpanTable:
    """In-memory span aggregates: key -> [calls, self seconds, total seconds]."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}
        self.zipf_first_call_s = 0.0
        # One accumulator of child-span time per open span; the root
        # collects time spent in top-level spans.
        self._stack: List[float] = [0.0]

    def add(self, layer: str, key: str) -> List[float]:
        self.layer_of[key] = layer
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def span(
        self,
        layer: str,
        key: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Tuple[Any, ...], Any, float], None]] = None,
    ) -> Callable[..., Any]:
        cell = self.add(layer, key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                cell[0] += 1
                cell[1] += dt - child
                cell[2] += dt
            if on_result is not None:
                on_result(args, result, dt)
            return result

        return wrapper

    def iterating_span(self, layer: str, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self.add(layer, key)
        stack = self._stack
        counts = self.counts
        steps_key = f"{key}.steps"
        counts[steps_key] = 0

        def timed(it: Any) -> Any:
            steps = 0
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        cell[1] += dt - child
                        cell[2] += dt
                    steps += 1
                    yield item
            finally:
                counts[steps_key] += steps

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    # -- hooks that turn return values into per-layer counts ---------------

    def _adder(self, name: str, measure: Callable[[Tuple[Any, ...], Any], float]):
        counts = self.counts
        counts[name] = 0

        def hook(args: Tuple[Any, ...], result: Any, dt: float) -> None:
            counts[name] += measure(args, result)

        return hook

    def hooks(self) -> Dict[str, Callable[[Tuple[Any, ...], Any, float], None]]:
        counts = self.counts
        counts["kloc.pages_down"] = 0
        counts["kloc.pages_up"] = 0
        counts["policies.AutoNumaPolicy.scan.pages_moved"] = 0

        def kloc_run(args: Tuple[Any, ...], result: Any, dt: float) -> None:
            if isinstance(result, dict):
                counts["kloc.pages_down"] += result.get("downgraded", 0)
                counts["kloc.pages_up"] += result.get("upgraded", 0)

        def numa_scan(args: Tuple[Any, ...], result: Any, dt: float) -> None:
            # The policy's own counters are cumulative from construction.
            policy = args[0]
            counts["policies.AutoNumaPolicy.scan.pages_moved"] = getattr(
                policy, "migrated_app", 0
            ) + getattr(policy, "migrated_kernel", 0)

        def zipf(args: Tuple[Any, ...], result: Any, dt: float) -> None:
            if not self.zipf_first_call_s:
                self.zipf_first_call_s = dt

        return {
            "vfs.WritebackDaemon.flush": self._adder(
                "vfs.writeback.pages_flushed", lambda a, r: r
            ),
            "kloc.KlocMigrationDaemon.run": kloc_run,
            "kloc.Knode.frames": self._adder("kloc.frames_walked", lambda a, r: len(r)),
            "mem.MigrationEngine.migrate": self._adder("mem.migrate.pages", lambda a, r: r.moved),
            "mem.HardwareDRAMCache.access": self._adder("mem.hwcache.hits", lambda a, r: bool(r)),
            "policies.LRUScanEngine.scan": self._adder(
                "policies.LRUScanEngine.scan.pages_moved",
                lambda a, r: r.get("demoted", 0) + r.get("promoted", 0),
            ),
            "policies.AutoNumaPolicy.scan": numa_scan,
            "core.DeterministicRNG.zipf": zipf,
        }


def install(app_cls: type) -> SpanTable:
    """Wrap every entry point (and ``app_cls.run_op``) in a span."""
    table = SpanTable()
    hooks = table.hooks()
    run_op = app_cls.__dict__.get("run_op")
    if run_op is None:
        raise RuntimeError(f"{app_cls.__name__} defines no run_op")
    setattr(app_cls, "run_op", table.span("workloads", "workloads.Workload.run_op", run_op))
    for layer, module_name, cls_name, attrs, label in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner: Any = module if cls_name is None else getattr(module, cls_name, None)
        for attr in attrs:
            if cls_name is None:
                key = f"{layer}.{attr}"
            else:
                key = f"{layer}.{label or f'{cls_name}.{attr}'}"
            fn = None if owner is None else vars(owner).get(attr)
            if not callable(fn):
                print(f"perfbench: no entry point {module_name}.{cls_name}.{attr}; "
                      f"{key} reports 0", file=sys.stderr)
                table.add(layer, key)
                continue
            if key in ITERATORS:
                wrapped = table.iterating_span(layer, key, fn)
            else:
                wrapped = table.span(layer, key, fn, hooks.get(key))
            setattr(owner, attr, wrapped)
    return table


def report(table: SpanTable, ops: int) -> Dict[str, float]:
    """Flatten the span aggregates into the per-layer metric names."""
    out: Dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for key, (calls, self_s, _total) in table.stats.items():
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
        layer_self[table.layer_of[key]] += self_s
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    counts = table.counts
    syscalls = table.stats["kernel.syscall"][0]
    out["kernel.syscalls_per_op"] = syscalls / ops if ops else 0.0
    flushed = counts["vfs.writeback.pages_flushed"]
    flush_total = table.stats["vfs.WritebackDaemon.flush"][2]
    out["vfs.writeback.pages_flushed"] = flushed
    out["vfs.writeback.us_per_flushed_page"] = flush_total / flushed * 1e6 if flushed else 0.0
    out["kloc.pages_down"] = counts["kloc.pages_down"]
    out["kloc.pages_up"] = counts["kloc.pages_up"]
    moved = counts["kloc.pages_down"] + counts["kloc.pages_up"]
    # Frames Knode.frames() handed back per page the daemon moved; with
    # nothing moved, every walked frame was wasted (divide by one).
    out["kloc.frames_walked_per_page_moved"] = counts["kloc.frames_walked"] / max(1, moved)
    out["mem.migrate.pages"] = counts["mem.migrate.pages"]
    hw_calls = table.stats["mem.HardwareDRAMCache.access"][0]
    out["mem.hwcache.hit_frac"] = counts["mem.hwcache.hits"] / hw_calls if hw_calls else 0.0
    out["ds.RadixTree.items.steps"] = counts.get("ds.RadixTree.items.steps", 0)
    out["policies.LRUScanEngine.scan.pages_moved"] = counts[
        "policies.LRUScanEngine.scan.pages_moved"
    ]
    out["policies.AutoNumaPolicy.scan.pages_moved"] = counts[
        "policies.AutoNumaPolicy.scan.pages_moved"
    ]
    out["core.zipf.first_call_s"] = table.zipf_first_call_s
    return out
