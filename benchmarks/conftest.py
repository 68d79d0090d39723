"""Benchmark-suite configuration.

Each bench regenerates one of the paper's tables/figures and asserts its
*shape* (strategy ordering, ratio bands, crossovers) rather than absolute
numbers — the simulator is a scaled substrate, not the authors' testbed.
Run with::

    pytest benchmarks/ --benchmark-only -s

Set REPRO_QUICK=1 for a ~4x faster pass with looser statistics.

Figure regenerators route through the parallel experiment engine: cells
fan out across REPRO_JOBS workers and completed runs are replayed from
``.repro_cache/``. The *shape* assertions are unaffected (cached results
are bit-identical), so warm-cache re-runs are near-instant; when the
recorded pytest-benchmark timing itself is the point, run with
``REPRO_NO_CACHE=1`` (host wall-clock is otherwise measured by
``perfbench/run.py``, whose cells always run cold).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under pytest-benchmark timing.

    Experiment runs are long (seconds) and deterministic, so one round is
    both sufficient and necessary — repeated rounds would re-run multi-
    minute sweeps for no statistical gain.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _runner
