"""Tests for MemoryTier accounting and access-cost model."""

import random

import pytest

from repro.core.config import fast_dram_spec, slow_dram_spec
from repro.core.errors import SimulationError
from repro.core.units import MB, PAGE_SIZE
from repro.mem.tier import MemoryTier
from repro.platforms.optane import optane_platform_spec
from repro.platforms.twotier import two_tier_spec_scaled


@pytest.fixture
def fast():
    return MemoryTier(fast_dram_spec(capacity_bytes=1 * MB))


@pytest.fixture
def slow():
    return MemoryTier(slow_dram_spec(capacity_bytes=1 * MB))


class TestCapacityAccounting:
    def test_initially_empty(self, fast):
        assert fast.used_pages == 0
        assert fast.free_pages == fast.capacity_pages

    def test_reserve_release_roundtrip(self, fast):
        fast.reserve(10)
        assert fast.used_pages == 10
        fast.release(10)
        assert fast.used_pages == 0

    def test_peak_tracks_high_water(self, fast):
        fast.reserve(20)
        fast.release(15)
        fast.reserve(1)
        assert fast.peak_pages == 20

    def test_overcommit_rejected(self, fast):
        with pytest.raises(SimulationError):
            fast.reserve(fast.capacity_pages + 1)

    def test_over_release_rejected(self, fast):
        fast.reserve(1)
        with pytest.raises(SimulationError):
            fast.release(2)

    def test_has_room(self, fast):
        fast.reserve(fast.capacity_pages)
        assert not fast.has_room(1)
        assert fast.has_room(0)

    def test_utilization(self, fast):
        fast.reserve(fast.capacity_pages // 2)
        assert fast.utilization() == pytest.approx(0.5)


class TestAccessCost:
    def test_cost_includes_latency_and_transfer(self, fast):
        cost = fast.access_cost_ns(PAGE_SIZE)
        expected = fast.spec.read_latency_ns + int(
            PAGE_SIZE / fast.spec.read_bw_bytes_per_ns
        )
        assert cost == expected

    def test_slow_tier_costs_more(self, fast, slow):
        assert slow.access_cost_ns(PAGE_SIZE) > fast.access_cost_ns(PAGE_SIZE)

    def test_write_uses_write_parameters(self, slow):
        read = slow.access_cost_ns(PAGE_SIZE, write=False)
        write = slow.access_cost_ns(PAGE_SIZE, write=True)
        assert write > read  # slow tier writes are costlier (§2 NVM bands)

    def test_contention_inflates_cost(self, fast):
        base = fast.access_cost_ns(PAGE_SIZE)
        fast.contention_streams = 1
        contended = fast.access_cost_ns(PAGE_SIZE)
        assert contended > base

    def test_cost_table_fills_per_direction(self, fast):
        read = fast.access_cost_ns(100, write=False)
        write = fast.access_cost_ns(50, write=True)
        assert fast.costs[False] == {100: read}
        assert fast.costs[True] == {50: write}
        assert fast.bulk_access_cost_ns(100, 3) == 3 * read
        assert fast.costs[False] == {100: read}

    def test_negative_size_rejected(self, fast):
        with pytest.raises(ValueError):
            fast.access_cost_ns(-1)
        assert -1 not in fast.costs[False]

    def test_zero_byte_access_is_latency_only(self, fast):
        assert fast.access_cost_ns(0) == fast.spec.read_latency_ns


def _formula(tier, nbytes, write):
    """The tier cost formula, spelled out from the spec."""
    spec = tier.spec
    if write:
        latency, bw = spec.write_latency_ns, spec.write_bw_bytes_per_ns
    else:
        latency, bw = spec.read_latency_ns, spec.read_bw_bytes_per_ns
    return latency + int(nbytes * tier.slowdown / bw)


PLATFORM_TIERS = [
    spec
    for platform in (two_tier_spec_scaled(), optane_platform_spec())
    for spec in (platform.fast, platform.slow)
]


class TestCostTable:
    @pytest.mark.parametrize("spec", PLATFORM_TIERS, ids=lambda s: s.name)
    def test_tabled_cost_is_the_formula(self, spec):
        tier = MemoryTier(spec)
        rng = random.Random(spec.name)
        sizes = [0, 1, 64, PAGE_SIZE] + [rng.randrange(0, 1 << 20) for _ in range(200)]
        for streams in (0, 3):
            tier.contention_streams = streams
            for nbytes in sizes + sizes:  # a miss, then a hit
                for write in (False, True):
                    want = _formula(tier, nbytes, write)
                    assert tier.access_cost_ns(nbytes, write=write) == want
                    assert tier.bulk_access_cost_ns(nbytes, 5, write=write) == 5 * want

    def test_contention_change_reprices_a_tabled_size(self, slow):
        before = slow.access_cost_ns(PAGE_SIZE, write=True)
        assert slow.costs[True][PAGE_SIZE] == before
        slow.contention_streams = 2
        after = slow.access_cost_ns(PAGE_SIZE, write=True)
        assert after == _formula(slow, PAGE_SIZE, True) != before
        slow.contention_streams = 0
        assert slow.access_cost_ns(PAGE_SIZE, write=True) == before
