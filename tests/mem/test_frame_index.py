"""Tests for the topology's live-frame index and referenced journal.

The scanners (LRU engine, AutoNUMA family) walk only the (tier, owner)
views of their candidates, and every live count is derived from the
index, so its maintenance must be airtight at every frame lifecycle
event: allocation, free, and cross-tier migration.
"""

import pytest

from repro.core.config import fast_dram_spec, slow_dram_spec
from repro.core.units import MB
from repro.mem.frame import PageOwner
from repro.mem.topology import MemoryTopology


@pytest.fixture
def topo():
    return MemoryTopology(
        [
            fast_dram_spec(capacity_bytes=1 * MB),
            slow_dram_spec(capacity_bytes=4 * MB),
        ]
    )


class TestResidentIndex:
    def test_allocation_lands_in_tier_index(self, topo):
        frames = topo.allocate(6, ["fast"], PageOwner.APP)
        resident = topo.resident_frames_by_owner("fast", PageOwner.APP)
        assert sorted(resident) == sorted(f.fid for f in frames)
        assert topo.resident_frames_by_owner("slow", PageOwner.APP) == {}
        assert list(topo.live_frames) == [("fast", PageOwner.APP)]

    def test_owner_view_is_disjoint_by_owner(self, topo):
        app = topo.allocate(3, ["fast"], PageOwner.APP)
        slab = topo.allocate(2, ["fast"], PageOwner.SLAB)
        by_app = topo.resident_frames_by_owner("fast", PageOwner.APP)
        by_slab = topo.resident_frames_by_owner("fast", PageOwner.SLAB)
        assert sorted(by_app) == sorted(f.fid for f in app)
        assert sorted(by_slab) == sorted(f.fid for f in slab)

    def test_free_removes_from_all_indexes(self, topo):
        frames = topo.allocate(4, ["fast"], PageOwner.APP)
        topo.free(frames[0], now_ns=0)
        assert frames[0].fid not in topo.resident_frames_by_owner(
            "fast", PageOwner.APP
        )
        assert frames[0] not in topo.drain_referenced()
        topo.check_invariants()

    def test_move_frame_switches_index_tier(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.move_frame(frame, "slow")
        assert frame.fid not in topo.resident_frames_by_owner("fast", PageOwner.APP)
        assert frame.fid in topo.resident_frames_by_owner("slow", PageOwner.APP)
        topo.check_invariants()

    def test_unknown_tier_rejected(self, topo):
        with pytest.raises(Exception):
            topo.resident_frames_by_owner("hbm", PageOwner.APP)

    def test_iter_frames_by_owner_spans_tiers(self, topo):
        fast = topo.allocate(2, ["fast"], PageOwner.APP)
        slow = topo.allocate(3, ["slow"], PageOwner.APP)
        topo.allocate(2, ["fast"], PageOwner.SLAB)
        seen = {f.fid for f in topo.iter_frames_by_owner(PageOwner.APP)}
        assert seen == {f.fid for f in fast + slow}

    def test_invariants_after_churn(self, topo):
        frames = topo.allocate(20, ["fast", "slow"], PageOwner.APP)
        for f in frames[::3]:
            topo.free(f, now_ns=0)
        for f in frames:
            if f.live and f.tier_name == "fast" and topo.tier("slow").has_room(1):
                topo.move_frame(f, "slow")
        topo.check_invariants()


class TestReferencedJournal:
    def test_allocation_counts_as_touch(self, topo):
        frames = topo.allocate(3, ["fast"], PageOwner.APP)
        drained = topo.drain_referenced()
        assert {f.fid for f in drained} == {f.fid for f in frames}

    def test_drain_clears_window(self, topo):
        topo.allocate(2, ["fast"], PageOwner.APP)
        topo.drain_referenced()
        assert topo.drain_referenced() == []

    def test_access_reenrolls(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.drain_referenced()
        frame.record_access(1_000, write=False)
        assert [f.fid for f in topo.drain_referenced()] == [frame.fid]

    def test_freed_frame_drops_out(self, topo):
        frames = topo.allocate(2, ["fast"], PageOwner.APP)
        topo.free(frames[0], now_ns=0)
        drained = topo.drain_referenced()
        assert [f.fid for f in drained] == [frames[1].fid]

    def test_freed_frame_never_reenrolls(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        topo.free(frame, now_ns=0)
        frame.record_access(5_000, write=False)  # stale pointer touch: no journal
        assert topo.drain_referenced() == []


class TestMoveResetsHotness:
    """PR-2 behavior change: hotness state is per-residency (SIM_VERSION 2)."""

    def test_move_frame_resets_lru_age_and_streak(self, topo):
        (frame,) = topo.allocate(1, ["fast"], PageOwner.APP)
        frame.lru_age = 7
        frame.scan_ref_streak = 3
        topo.move_frame(frame, "slow")
        assert frame.lru_age == 0
        assert frame.scan_ref_streak == 0


class TestFreedAppTotals:
    def test_every_freed_app_page_counted(self, topo):
        frames = topo.allocate(10, ["fast", "slow"], PageOwner.APP, now_ns=5)
        for i, f in enumerate(frames):
            topo.free(f, now_ns=100 + i)
        assert topo.app_frames_freed == 10
        assert topo.app_freed_lifetime_ns == sum(95 + i for i in range(10))

    def test_kernel_pages_not_counted(self, topo):
        app = topo.allocate(2, ["fast"], PageOwner.APP)
        kernel = topo.allocate(3, ["fast"], PageOwner.SLAB)
        topo.free_all(app + kernel, now_ns=40)
        assert topo.app_frames_freed == 2
        assert topo.app_freed_lifetime_ns == 80

