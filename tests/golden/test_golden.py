"""Golden payload digests: the behaviour oracle for the whole simulator.

Each cell of :mod:`tests.golden.grid` is run cold and its payload hashed;
the digest must equal the one committed in ``tests/golden/digests.json``.
A refactor or speedup must leave every digest unchanged. A deliberate
behaviour change must bump ``SIM_VERSION`` and regenerate the file — a
digest change under the recorded version fails as "behaviour changed
without a SIM_VERSION bump", and a version bump without regenerated
digests fails too.
"""

import pytest

from repro.core.version import SIM_VERSION
from tests.golden import grid

RECORD = grid.load()


def _regen_hint() -> str:
    return f"regenerate with: {grid.REGENERATE_CMD}"


def test_record_matches_grid():
    assert RECORD["ops"] == grid.OPS
    assert RECORD["eviction_ops"] == grid.EVICTION_OPS
    assert RECORD["seed"] == grid.SEED
    assert RECORD["scale_factor"] == grid.SCALE_FACTOR
    assert set(RECORD["digests"]) == set(grid.all_cell_ids()), _regen_hint()


def _check(cid: str, got: str) -> None:
    if RECORD["sim_version"] != SIM_VERSION:
        pytest.fail(
            f"digests were recorded under SIM_VERSION {RECORD['sim_version']!r} "
            f"but the simulator is {SIM_VERSION!r}; {_regen_hint()}"
        )
    want = RECORD["digests"][cid]
    if got != want:
        pytest.fail(
            f"{cid}: payload digest {got[:16]} != recorded {want[:16]} — "
            f"behaviour changed without a SIM_VERSION bump. If the change is "
            f"intended, bump SIM_VERSION in repro/core/version.py and "
            f"{_regen_hint()}"
        )


@pytest.mark.parametrize(
    "platform,workload,policy", grid.cells(), ids=lambda v: str(v)
)
def test_golden_digest(monkeypatch, platform, workload, policy):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cid = grid.cell_id(platform, workload, policy)
    _check(cid, grid.compute(platform, workload, policy))


@pytest.mark.parametrize(
    "policy,readahead",
    grid.eviction_cells(),
    ids=[grid.eviction_cell_id(*c) for c in grid.eviction_cells()],
)
def test_eviction_digest(monkeypatch, policy, readahead):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    got, evicted = grid.eviction_run(policy, readahead)
    # A cell that never evicts pins nothing the 600-op cells do not.
    assert evicted > 0, "cell ends before page-cache eviction onset"
    _check(grid.eviction_cell_id(policy, readahead), got)


def test_fig2_digest(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_SEED", str(grid.SEED))
    got, app_freed = grid.fig2_run()
    # The cell pins freed-page lifetimes only if the run frees app pages.
    assert app_freed > 0, "characterization run frees no application pages"
    _check(grid.FIG2_CELL_ID, got)
