"""Tests for MemoryTopology allocation, spill, free, and counters."""

import pytest

from repro.core.config import fast_dram_spec, slow_dram_spec
from repro.core.errors import AllocationError, SimulationError
from repro.core.units import MB
from repro.mem.frame import PageOwner
from repro.mem.topology import MemoryTopology

FAST_MB = 1
SLOW_MB = 4


@pytest.fixture
def topo():
    return MemoryTopology(
        [
            fast_dram_spec(capacity_bytes=FAST_MB * MB),
            slow_dram_spec(capacity_bytes=SLOW_MB * MB),
        ]
    )


class TestAllocation:
    def test_prefers_first_tier(self, topo):
        frames = topo.allocate(4, ["fast", "slow"], PageOwner.APP)
        assert all(f.tier_name == "fast" for f in frames)

    def test_spills_to_second_tier(self, topo):
        fast_cap = topo.tier("fast").capacity_pages
        frames = topo.allocate(fast_cap + 3, ["fast", "slow"], PageOwner.APP)
        slow_frames = [f for f in frames if f.tier_name == "slow"]
        assert len(slow_frames) == 3

    def test_exhaustion_raises(self, topo):
        total = topo.tier("fast").capacity_pages + topo.tier("slow").capacity_pages
        with pytest.raises(AllocationError):
            topo.allocate(total + 1, ["fast", "slow"], PageOwner.APP)

    def test_failed_alloc_is_atomic(self, topo):
        total = topo.tier("fast").capacity_pages + topo.tier("slow").capacity_pages
        (first,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.free(first, now_ns=0)
        alloc_count = dict(topo.alloc_count)
        tiers = [(t.total_allocs, t.peak_pages) for t in topo.tiers.values()]
        with pytest.raises(AllocationError):
            topo.allocate(total + 1, ["fast", "slow"], PageOwner.APP)
        assert topo.live_pages() == 0
        topo.check_invariants()
        # Nothing was placed, so no counter moved and no fid was used.
        assert dict(topo.alloc_count) == alloc_count
        assert [(t.total_allocs, t.peak_pages) for t in topo.tiers.values()] == tiers
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        assert frame.fid == first.fid + 1

    def test_multi_page_spill_matches_single_pages(self, topo):
        """One multi-page request that spills across tiers places its
        pages exactly as the same number of single-page requests."""
        singles = MemoryTopology(
            [
                fast_dram_spec(capacity_bytes=FAST_MB * MB),
                slow_dram_spec(capacity_bytes=SLOW_MB * MB),
            ]
        )
        fast_cap = topo.tier("fast").capacity_pages
        for t in (topo, singles):
            t.allocate(fast_cap - 5, ["fast"], PageOwner.SLAB)
        order = ["fast", "slow"]
        multi = topo.allocate(12, order, PageOwner.APP, now_ns=7)
        single = [
            singles.allocate(1, order, PageOwner.APP, now_ns=7)[0] for _ in range(12)
        ]
        assert [(f.fid, f.tier_name) for f in multi] == [
            (f.fid, f.tier_name) for f in single
        ]
        assert [f.tier_name for f in multi].count("slow") == 7
        assert dict(topo.alloc_count) == dict(singles.alloc_count)
        assert {k: list(v) for k, v in topo.live_frames.items()} == {
            k: list(v) for k, v in singles.live_frames.items()
        }
        for name in topo.tiers:
            a, b = topo.tier(name), singles.tier(name)
            assert (a.used_pages, a.total_allocs, a.peak_pages) == (
                b.used_pages,
                b.total_allocs,
                b.peak_pages,
            )
        topo.check_invariants()

    def test_zero_pages_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.allocate(0, ["fast"], PageOwner.APP)

    def test_frame_ids_unique(self, topo):
        frames = topo.allocate(50, ["fast", "slow"], PageOwner.SLAB)
        assert len({f.fid for f in frames}) == 50

    def test_metadata_propagates(self, topo):
        (frame,) = topo.allocate(
            1,
            ["fast"],
            PageOwner.SLAB,
            obj_type="dentry",
            knode_id=9,
            relocatable=False,
            now_ns=123,
        )
        assert frame.obj_type == "dentry"
        assert frame.knode_id == 9
        assert not frame.relocatable
        assert frame.allocated_at == 123

    def test_unknown_tier_raises(self, topo):
        with pytest.raises(SimulationError):
            topo.allocate(1, ["nope"], PageOwner.APP)


class TestFree:
    def test_free_returns_capacity(self, topo):
        frames = topo.allocate(5, ["fast"], PageOwner.APP)
        topo.free_all(frames, now_ns=10)
        assert topo.tier("fast").used_pages == 0

    def test_double_free_rejected(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.free(frame, now_ns=1)
        with pytest.raises(SimulationError):
            topo.free(frame, now_ns=2)

    def test_freed_frame_retired_with_lifetime(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.PAGE_CACHE, now_ns=100)
        topo.free(frame, now_ns=350)
        assert frame.lifetime_ns(now_ns=999) == 250
        # Only application pages feed the topology's lifetime totals.
        assert topo.app_frames_freed == 0
        assert topo.app_freed_lifetime_ns == 0

    def test_free_all_skips_already_freed(self, topo):
        frames = topo.allocate(3, ["fast"], PageOwner.APP)
        topo.free(frames[0], now_ns=1)
        topo.free_all(frames, now_ns=2)  # must not raise
        assert topo.live_pages() == 0


class TestCounters:
    def test_alloc_count_by_tier_and_owner(self, topo):
        topo.allocate(3, ["fast"], PageOwner.APP)
        topo.allocate(2, ["slow"], PageOwner.SLAB)
        assert topo.alloc_count[("fast", PageOwner.APP)] == 3
        assert topo.alloc_count[("slow", PageOwner.SLAB)] == 2

    def test_live_count_tracks_frees(self, topo):
        frames = topo.allocate(3, ["fast"], PageOwner.APP)
        topo.free(frames[0], now_ns=1)
        assert list(topo.live_frames[("fast", PageOwner.APP)]) == [
            f.fid for f in frames[1:]
        ]
        assert topo.live_pages("fast") == topo.live_pages() == 2

    def test_live_pages_by_owner(self, topo):
        topo.allocate(3, ["fast"], PageOwner.APP)
        topo.allocate(2, ["slow"], PageOwner.APP)
        assert topo.live_pages_by_owner(PageOwner.APP) == 5

    def test_allocated_pages_by_owner_includes_freed(self, topo):
        frames = topo.allocate(3, ["fast"], PageOwner.JOURNAL)
        topo.free_all(frames, now_ns=1)
        assert topo.allocated_pages_by_owner(PageOwner.JOURNAL) == 3

    def test_invariants_hold_through_churn(self, topo):
        live = []
        for i in range(10):
            live += topo.allocate(7, ["fast", "slow"], PageOwner.PAGE_CACHE, now_ns=i)
            if i % 3 == 0:
                for frame in live[:5]:
                    topo.free(frame, now_ns=i)
                live = live[5:]
        topo.check_invariants()

    def test_kernel_pages_in_excludes_app_pages(self, topo):
        topo.allocate(3, ["fast"], PageOwner.APP)
        topo.allocate(2, ["fast"], PageOwner.SLAB)
        (moved,) = topo.allocate(1, ["fast"], PageOwner.PAGE_CACHE)
        topo.move_frame(moved, "slow")
        assert topo.kernel_pages_in("fast") == 2
        assert topo.kernel_pages_in("slow") == 1
        assert ("slow", PageOwner.APP) not in topo.live_frames  # read, not inserted

    def test_per_tier_live_count_drift_detected(self, topo):
        frame, _ = topo.allocate(2, ["fast"], PageOwner.SLAB)
        topo.allocate(2, ["slow"], PageOwner.SLAB)
        # A move that re-homed the frame and its index entry but not the
        # tier counters: the global sum still balances.
        del topo.live_frames[("fast", PageOwner.SLAB)][frame.fid]
        topo.live_frames[("slow", PageOwner.SLAB)][frame.fid] = frame
        frame.tier_name = "slow"
        with pytest.raises(SimulationError, match="live index has 1 frames"):
            topo.check_invariants()

    def test_index_entry_under_wrong_key_detected(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.SLAB)
        topo.allocate(1, ["slow"], PageOwner.SLAB)
        # A move that re-homed the index entry but not the frame.
        del topo.live_frames[("fast", PageOwner.SLAB)][frame.fid]
        topo.live_frames[("slow", PageOwner.SLAB)][frame.fid] = frame
        with pytest.raises(SimulationError, match="out of sync"):
            topo.check_invariants()


class TestMoveFrame:
    def test_move_updates_tiers_and_counters(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.PAGE_CACHE)
        topo.move_frame(frame, "slow")
        assert frame.tier_name == "slow"
        assert topo.tier("fast").used_pages == 0
        assert topo.tier("slow").used_pages == 1
        assert topo.migrations_between("fast", "slow") == 1
        topo.check_invariants()

    def test_move_to_same_tier_is_noop(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.move_frame(frame, "fast")
        assert topo.migrations_between("fast", "fast") == 0

    def test_move_to_full_tier_rejected(self, topo):
        cap = topo.tier("fast").capacity_pages
        topo.allocate(cap, ["fast"], PageOwner.APP)
        (frame,) = topo.allocate(1, ["slow"], PageOwner.APP)
        with pytest.raises(SimulationError):
            topo.move_frame(frame, "fast")

    def test_move_freed_frame_rejected(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.free(frame, now_ns=1)
        with pytest.raises(SimulationError):
            topo.move_frame(frame, "slow")

    def test_migration_bumps_frame_counter(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.move_frame(frame, "slow")
        topo.move_frame(frame, "fast")
        assert frame.migrations == 2
