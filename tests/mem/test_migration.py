"""Tests for the migration engine: cost model, relocatability, pinning."""

import pytest

from repro.core.config import MigrationSpec, fast_dram_spec, slow_dram_spec
from repro.core.units import MB
from repro.mem.frame import PageOwner
from repro.mem.migration import MigrationEngine
from repro.mem.topology import MemoryTopology


@pytest.fixture
def topo():
    return MemoryTopology(
        [
            fast_dram_spec(capacity_bytes=1 * MB),
            slow_dram_spec(capacity_bytes=4 * MB),
        ]
    )


@pytest.fixture
def engine(topo):
    return MigrationEngine(topo, MigrationSpec(copy_threads=4))


class TestBasicMigration:
    def test_moves_frames(self, topo, engine):
        frames = topo.allocate(10, ["fast"], PageOwner.PAGE_CACHE)
        result = engine.migrate(frames, "slow")
        assert result.moved == 10
        assert all(f.tier_name == "slow" for f in frames)

    def test_async_mode_does_not_charge_caller(self, topo, engine):
        frames = topo.allocate(10, ["fast"], PageOwner.PAGE_CACHE)
        result = engine.migrate(frames, "slow")
        # Priced, not charged: the cost is in the result and the engine's
        # counters, and it is the caller's to charge as background work.
        assert result.cost_ns > 0
        assert engine.total_cost_ns == result.cost_ns
        assert engine.total_moved == 10

    def test_remap_overhead_scales_with_pages(self, topo):
        spec = MigrationSpec(remap_overhead_ns=10**9, copy_threads=1)
        engine = MigrationEngine(topo, spec)
        frames = topo.allocate(5, ["fast"], PageOwner.APP)
        result = engine.migrate(frames, "slow")
        # Remap dominates at this setting: one unit per page, serialized
        # on a single migration thread.
        assert result.cost_ns >= 5 * 10**9
        assert result.cost_ns < 6 * 10**9

    def test_parallel_copy_divides_transfer(self, topo):
        frames = topo.allocate(20, ["fast"], PageOwner.APP)
        serial = MigrationEngine(topo, MigrationSpec(copy_threads=1))
        cost_serial = _dry_run_cost(topo, frames, serial)
        # Re-allocate fresh frames for the parallel run.
        topo2 = MemoryTopology(
            [fast_dram_spec(capacity_bytes=1 * MB), slow_dram_spec(capacity_bytes=4 * MB)]
        )
        frames2 = topo2.allocate(20, ["fast"], PageOwner.APP)
        parallel = MigrationEngine(topo2, MigrationSpec(copy_threads=4))
        cost_parallel = _dry_run_cost(topo2, frames2, parallel)
        assert cost_parallel < cost_serial

    def test_already_there_not_counted(self, topo, engine):
        frames = topo.allocate(3, ["slow"], PageOwner.APP)
        result = engine.migrate(frames, "slow")
        assert result.moved == 0
        assert result.cost_ns == 0


def _dry_run_cost(topo, frames, engine):
    return engine.migrate(frames, "slow").cost_ns


class TestRelocatability:
    def test_slab_frames_skipped(self, topo, engine):
        frames = topo.allocate(4, ["fast"], PageOwner.SLAB, relocatable=False)
        result = engine.migrate(frames, "slow")
        assert result.moved == 0
        assert result.skipped_nonrelocatable == 4
        assert all(f.tier_name == "fast" for f in frames)

    def test_mixed_batch_moves_only_relocatable(self, topo, engine):
        slab = topo.allocate(2, ["fast"], PageOwner.SLAB, relocatable=False)
        cache = topo.allocate(3, ["fast"], PageOwner.PAGE_CACHE)
        result = engine.migrate(slab + cache, "slow")
        assert result.moved == 3
        assert result.skipped_nonrelocatable == 2


class TestPinning:
    def test_pinned_frames_stay_in_fast(self, topo, engine):
        frames = topo.allocate(2, ["fast"], PageOwner.PAGE_CACHE)
        frames[0].pinned_fast = True
        result = engine.migrate(frames, "slow")
        assert result.moved == 1
        assert result.skipped_pinned == 1
        assert frames[0].tier_name == "fast"

    def test_pinned_frames_may_move_to_fast(self, topo, engine):
        frames = topo.allocate(1, ["slow"], PageOwner.PAGE_CACHE)
        frames[0].pinned_fast = True
        result = engine.migrate(frames, "fast")
        assert result.moved == 1


class TestCapacityEdge:
    def test_stops_when_destination_full(self, topo, engine):
        fast_cap = topo.tier("fast").capacity_pages
        topo.allocate(fast_cap - 2, ["fast"], PageOwner.APP)  # leave 2 slots
        frames = topo.allocate(5, ["slow"], PageOwner.PAGE_CACHE)
        result = engine.migrate(frames, "fast")
        assert result.moved == 2
        assert topo.tier("fast").free_pages == 0

    def test_freed_frames_ignored(self, topo, engine):
        frames = topo.allocate(3, ["fast"], PageOwner.PAGE_CACHE)
        topo.free(frames[0], now_ns=0)
        result = engine.migrate(frames, "slow")
        assert result.moved == 2
