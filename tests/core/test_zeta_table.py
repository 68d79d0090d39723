"""The committed zeta table must equal the sum it replaces, bit for bit.

``ZETA_TABLE`` spares every process the n-term ``_zeta`` sum on its first
zipf draw. The payload digests depend on each literal being exactly the
float the left-to-right sum produces, so check each entry against a plain
accumulation loop (what ``sum`` computes on Python 3.11, independent of
the running interpreter) and check that draws do not move.
"""

from __future__ import annotations

import pytest

from repro.core.rng import ZETA_TABLE, DeterministicRNG


def plain_zeta(n: int, theta: float) -> float:
    acc = 0.0
    for i in range(1, n + 1):
        acc += 1.0 / (i ** theta)
    return acc


@pytest.mark.parametrize("key", sorted(ZETA_TABLE))
def test_table_entry_is_the_left_to_right_sum(key):
    n, theta = key
    assert ZETA_TABLE[key] == plain_zeta(n, theta)


def test_table_seeds_the_zeta_cache():
    for key, value in ZETA_TABLE.items():
        assert DeterministicRNG._zeta(*key) == value


@pytest.mark.parametrize("n", sorted({n for n, _theta in ZETA_TABLE}))
def test_draws_identical_with_and_without_table(monkeypatch, n):
    theta = 0.99
    with_table = DeterministicRNG(42).stream("zipf")
    expected = [with_table.zipf(n, theta) for _ in range(10_000)]

    # Cold caches: zeta and the per-(n, theta) constants are recomputed.
    monkeypatch.setattr(DeterministicRNG, "_zeta_cache", {})
    monkeypatch.setattr(DeterministicRNG, "_zipf_cache", {})
    without_table = DeterministicRNG(42).stream("zipf")
    assert [without_table.zipf(n, theta) for _ in range(10_000)] == expected
    assert (n, theta) in DeterministicRNG._zeta_cache  # the sum really ran
