"""Pins the data-path counters that the payload digests cannot see.

A golden digest hashes a run's payload: throughput, footprints,
reference splits. The page-cache data path also keeps its own work
counters (radix walks, extent lookups, LRU promotions, per-CPU knode
hits, readahead proposals), and a refactor could change how often a
layer is called while every payload stays bit-identical. This test runs
three cold cells and compares those counters, exactly, with
``datapath_counters.json``.

Regenerate the fixture only for a deliberate behaviour change::

    PYTHONPATH=src python -m tests.vfs.test_datapath_counters
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from tests.golden.grid import SCALE_FACTOR, SEED, _captured_kernel

FIXTURE = Path(__file__).resolve().parent / "datapath_counters.json"

#: (workload, policy, ops): two cells at the golden grid's 600 ops, plus
#: the golden eviction cells' 20,000-op rocksdb shape, which runs past
#: page-cache eviction onset (misses, evictions, readahead fetches).
CELLS: List[Tuple[str, str, int]] = [
    ("filebench", "klocs", 600),
    ("rocksdb", "klocs", 600),
    ("rocksdb", "klocs", 20_000),
]


def cell_id(workload: str, policy: str, ops: int) -> str:
    return f"{workload}/{policy}/ops{ops}"


@contextmanager
def _recording(module: Any, names: Tuple[str, ...]) -> Iterator[Dict[str, list]]:
    """Replace each class ``module.<name>`` by a factory that records
    every instance built through the module's name."""
    built: Dict[str, list] = {name: [] for name in names}
    originals = {name: getattr(module, name) for name in names}
    for name, cls in originals.items():
        sink = built[name]

        def make(*args: Any, _cls: type = cls, _sink: list = sink, **kwargs: Any) -> Any:
            obj = _cls(*args, **kwargs)
            _sink.append(obj)
            return obj

        setattr(module, name, make)
    try:
        yield built
    finally:
        for name, cls in originals.items():
            setattr(module, name, cls)


def counters(workload: str, policy: str, ops: int) -> Dict[str, int]:
    """Run one cold two-tier cell and read its data-path counters."""
    import repro.experiments.runner as runner
    import repro.vfs.filesystem as filesystem

    with _captured_kernel(runner, "build_two_tier_kernel") as kernels, _recording(
        filesystem, ("PageCache", "ExtentTree", "FileHandle")
    ) as built:
        runner.run_two_tier(
            workload, policy, ops=ops, scale_factor=SCALE_FACTOR, run_seed=SEED
        )
    (kernel,) = kernels
    fs = kernel.fs
    lru = fs.cache_mgr.lru
    manager = kernel.kloc_manager
    return {
        "fs.cache_hits": fs.cache_hits,
        "fs.cache_misses": fs.cache_misses,
        "cache_mgr.inserted": fs.cache_mgr.inserted,
        "cache_mgr.evicted": fs.cache_mgr.evicted,
        "lru.promotions": lru.promotions,
        "lru.demotions": lru.demotions,
        "radix.lookups": sum(c.tree.lookups for c in built["PageCache"]),
        "radix.lookup_hops": sum(c.tree.lookup_hops for c in built["PageCache"]),
        "extent.lookups": sum(t.lookups for t in built["ExtentTree"]),
        "percpu.fast_hits": manager.percpu.fast_hits,
        "percpu.slow_lookups": manager.percpu.slow_lookups,
        "kloc.peak_metadata_bytes": manager.peak_metadata_bytes,
        "blk.submitted": fs.blk.submitted,
        "blk.bytes_moved": fs.blk.bytes_moved,
        "journal.records": fs.journal.records,
        "journal.commits": fs.journal.commits,
        "writeback.pages_flushed": kernel.writeback.pages_flushed,
        "readahead.prefetched": sum(h.readahead.prefetched for h in built["FileHandle"]),
        "readahead.hits_on_prefetched": sum(
            h.readahead.hits_on_prefetched for h in built["FileHandle"]
        ),
    }


def _load() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_matches_cells():
    record = _load()
    assert record["seed"] == SEED
    assert record["scale_factor"] == SCALE_FACTOR
    assert set(record["cells"]) == {cell_id(*c) for c in CELLS}


@pytest.mark.parametrize("workload,policy,ops", CELLS, ids=[cell_id(*c) for c in CELLS])
def test_datapath_counters(workload, policy, ops):
    want = _load()["cells"][cell_id(workload, policy, ops)]
    got = counters(workload, policy, ops)
    diff = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    assert not diff, f"counters (got, recorded) moved: {diff}"
    assert set(got) == set(want)


def test_eviction_cell_reaches_the_miss_path():
    """The long cell must keep covering what the 600-op cells cannot."""
    cell = _load()["cells"][cell_id(*CELLS[-1])]
    assert cell["fs.cache_misses"] > 0
    assert cell["cache_mgr.evicted"] > 0
    assert cell["readahead.prefetched"] > 0


def main() -> None:
    record = {
        "seed": SEED,
        "scale_factor": SCALE_FACTOR,
        "cells": {cell_id(*c): counters(*c) for c in CELLS},
    }
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
