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
    assert RECORD["seed"] == grid.SEED
    assert RECORD["scale_factor"] == grid.SCALE_FACTOR
    expected = {grid.cell_id(*cell) for cell in grid.cells()}
    assert set(RECORD["digests"]) == expected, _regen_hint()


@pytest.mark.parametrize(
    "platform,workload,policy", grid.cells(), ids=lambda v: str(v)
)
def test_golden_digest(monkeypatch, platform, workload, policy):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    if RECORD["sim_version"] != SIM_VERSION:
        pytest.fail(
            f"digests were recorded under SIM_VERSION {RECORD['sim_version']!r} "
            f"but the simulator is {SIM_VERSION!r}; {_regen_hint()}"
        )
    cid = grid.cell_id(platform, workload, policy)
    got = grid.compute(platform, workload, policy)
    want = RECORD["digests"][cid]
    if got != want:
        pytest.fail(
            f"{cid}: payload digest {got[:16]} != recorded {want[:16]} — "
            f"behaviour changed without a SIM_VERSION bump. If the change is "
            f"intended, bump SIM_VERSION in repro/core/version.py and "
            f"{_regen_hint()}"
        )
