"""A traced run takes the untraced run's path, event for event.

A kernel with a tracer attached charges every reference through the same
calls as any other kernel, so tracing must change nothing: the traced
payload hashes like the untraced one, and the event stream (every
category enabled, nothing dropped) matches the one pinned in
``traced_events.json``.

Regenerate the fixture only for a deliberate behaviour change::

    PYTHONPATH=src python -m tests.kernel.test_traced_equivalence
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.core.trace import Tracer

FIXTURE = Path(__file__).resolve().parent / "traced_events.json"

CELLS = [("filebench", "klocs"), ("rocksdb", "klocs"), ("redis", "nimble")]
OPS = 600
#: Room for every event of the cells above, so nothing is dropped.
CAPACITY = 1 << 20


def cell_id(workload: str, policy: str) -> str:
    return f"{workload}/{policy}"


def _run(workload: str, policy: str, tracer: Optional[Tracer]) -> str:
    """Run one cold cell, with ``tracer`` attached when given; return its
    payload digest."""
    import repro.experiments.runner as runner
    from repro.experiments.cache import run_to_payload
    from tests.golden.grid import SCALE_FACTOR, SEED, digest

    build = runner.build_two_tier_kernel
    kernels: list = []

    def build_traced(*args: Any, **kwargs: Any) -> Any:
        kernel, pol = build(*args, **kwargs)
        if tracer is not None:
            kernel.tracer = tracer
        kernels.append(kernel)
        return kernel, pol

    runner.build_two_tier_kernel = build_traced
    try:
        run = runner.run_two_tier(
            workload, policy, ops=OPS, scale_factor=SCALE_FACTOR, run_seed=SEED
        )
    finally:
        runner.build_two_tier_kernel = build
    assert len(kernels) == 1
    return digest(run_to_payload(run))


def traced(workload: str, policy: str) -> Tuple[str, Dict[str, Any]]:
    """Run one cell with every category traced; return its payload digest
    and the event stream's count and sha256."""
    tracer = Tracer(capacity=CAPACITY)
    tracer.enable("*")
    payload = _run(workload, policy, tracer)
    assert tracer.dropped == 0
    h = hashlib.sha256()
    for event in tracer.query():
        record = (event.timestamp_ns, event.category, event.name, event.fields)
        h.update(repr(record).encode("utf-8"))
        h.update(b"\n")
    return payload, {"events": len(tracer), "sha256": h.hexdigest()}


def _load() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_matches_cells():
    record = _load()
    assert record["ops"] == OPS
    assert set(record["cells"]) == {cell_id(*c) for c in CELLS}


@pytest.mark.parametrize("workload,policy", CELLS, ids=[cell_id(*c) for c in CELLS])
def test_traced_run_matches_untraced_run(workload, policy):
    payload, stream = traced(workload, policy)
    assert payload == _run(workload, policy, None)
    assert stream == _load()["cells"][cell_id(workload, policy)]


def main() -> None:
    record = {
        "ops": OPS,
        "cells": {cell_id(*c): traced(*c)[1] for c in CELLS},
    }
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
