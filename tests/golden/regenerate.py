"""Recompute every golden digest and rewrite ``tests/golden/digests.json``.

Run from the repository root after a deliberate behaviour change (one
that bumps ``repro.core.version.SIM_VERSION``)::

    PYTHONPATH=src python -m tests.golden.regenerate

The file records the ``SIM_VERSION`` it was generated under; the golden
test refuses a digest change that comes without a version bump.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from tests.golden import grid


def main() -> int:
    from repro.core.version import SIM_VERSION

    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_SEED"] = str(grid.SEED)
    digests = {}
    for platform, workload, policy in grid.cells():
        t0 = perf_counter()
        cid = grid.cell_id(platform, workload, policy)
        digests[cid] = grid.compute(platform, workload, policy)
        print(f"{cid:46s} {digests[cid][:16]}  {perf_counter() - t0:.1f}s", file=sys.stderr)
    for policy, readahead in grid.eviction_cells():
        t0 = perf_counter()
        cid = grid.eviction_cell_id(policy, readahead)
        digests[cid], evicted = grid.eviction_run(policy, readahead)
        print(
            f"{cid:46s} {digests[cid][:16]}  {perf_counter() - t0:.1f}s  "
            f"{evicted} pages evicted",
            file=sys.stderr,
        )
    t0 = perf_counter()
    digests[grid.FIG2_CELL_ID], app_freed = grid.fig2_run()
    print(
        f"{grid.FIG2_CELL_ID:46s} {digests[grid.FIG2_CELL_ID][:16]}  "
        f"{perf_counter() - t0:.1f}s  {app_freed} app pages freed",
        file=sys.stderr,
    )
    record = {
        "sim_version": SIM_VERSION,
        "ops": grid.OPS,
        "eviction_ops": grid.EVICTION_OPS,
        "seed": grid.SEED,
        "scale_factor": grid.SCALE_FACTOR,
        "digests": digests,
    }
    grid.DIGESTS_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {grid.DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
