"""Both branches of the batched data-path loops produce one payload.

The page-cache read loop and the socket copy loop charge through an
:class:`~repro.kernel.kernel.AccessBatch` when the kernel hands one out,
and through plain ``access_object`` calls otherwise. A kernel with a
tracer attached hands none out, so a traced run takes the unbatched
branch of every such loop. The two runs must hash to the same payload:
the batch only defers clock advances, it never changes a cost or when a
daemon fires.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.trace import Tracer

CELLS = [("filebench", "klocs"), ("rocksdb", "klocs"), ("redis", "nimble")]
OPS = 600


def _digest(workload: str, policy: str, traced: bool) -> str:
    import repro.experiments.runner as runner
    from repro.experiments.cache import run_to_payload
    from tests.golden.grid import SCALE_FACTOR, SEED, digest

    build = runner.build_two_tier_kernel
    kernels: list = []

    def build_traced(*args: Any, **kwargs: Any) -> Any:
        kernel, pol = build(*args, **kwargs)
        if traced:
            # No category enabled: nothing is recorded, but the kernel
            # still sees a tracer and refuses to open access batches.
            kernel.tracer = Tracer(capacity=1)
            assert kernel.begin_access_batch() is None
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


@pytest.mark.parametrize("workload,policy", CELLS, ids=["/".join(c) for c in CELLS])
def test_traced_run_matches_batched_run(workload, policy):
    assert _digest(workload, policy, traced=True) == _digest(
        workload, policy, traced=False
    )
