"""Behavioral tests for the periodic scanners, checked against a reference.

These pin down the decision rules the resident-frame indexes must
preserve exactly: watermark-gated demotion, two-touch promotion with
streak reset, and AutoNUMA's batch-limited wakeups. Every test runs
against the production (indexed) scanners and against the reference
implementations below — straightforward walks over the global frame
table, in fid order — so a regression in the indexed scanners, or a
divergence from the reference, fails loudly.
"""

from types import MethodType

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.units import MB
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.platforms.optane import build_optane_kernel
from repro.policies.lru_engine import FAST_TIER, SLOW_TIER
from repro.policies.nimble import NimblePolicy


def reference_collect(lru):
    """LRUScanEngine._collect as a walk over every live frame."""
    demote_candidates = []
    promote_candidates = []
    visited = 0
    for frame in list(lru.kernel.topology.frames.values()):
        if not frame.live:
            continue
        visited += 1
        referenced = frame.last_access >= lru._last_scan_ns
        if frame.tier_name == FAST_TIER:
            if referenced:
                frame.lru_age = 0
            elif lru.demote_owners is None or frame.owner in lru.demote_owners:
                frame.lru_age += 1
                if frame.lru_age >= lru.spec.cold_age_rounds:
                    demote_candidates.append(frame)
        elif frame.tier_name == SLOW_TIER:
            # Two-touch activation: referenced in consecutive windows.
            frame.scan_ref_streak = frame.scan_ref_streak + 1 if referenced else 0
            if (
                frame.scan_ref_streak >= 2
                and frame.relocatable
                and lru._promotable(frame)
            ):
                promote_candidates.append(frame)
    return demote_candidates, promote_candidates, visited


def reference_numa_scan(pol, now_ns=0):
    """NumaPolicyBase._scan as a walk over the global frame table."""
    home_tier = pol.node_tier(pol.preferred_node())
    candidates = []
    for frame in pol.kernel.topology.frames.values():
        if frame.tier_name == home_tier or not frame.relocatable:
            continue
        if frame.owner in pol.migrate_owners:
            candidates.append(frame)
            if len(candidates) >= pol.batch:
                break
    if not candidates:
        return
    result = pol.kernel.engine.migrate(candidates, home_tier)
    pol.kernel.background_cpu_work(result.cost_ns)
    for frame in result.frames:
        if frame.owner is PageOwner.APP:
            pol.migrated_app += 1
        else:
            pol.migrated_kernel += 1


def use_mode(scanner, reference):
    """Swap the scanner's candidate selection for the reference walk."""
    if reference:
        if hasattr(scanner, "_collect"):
            scanner._collect = MethodType(reference_collect, scanner)
        else:
            scanner._scan = MethodType(reference_numa_scan, scanner)


def make_kernel(fast_mb=4):
    spec = two_tier_platform_spec(
        fast_capacity_bytes=fast_mb * MB, slow_capacity_bytes=40 * MB
    )
    kernel = Kernel(spec, NimblePolicy(), seed=3)
    kernel.start()
    return kernel


@pytest.fixture(params=[False, True], ids=["indexed", "brute"])
def reference(request):
    return request.param


class TestWatermarkGatedDemotion:
    def test_cold_pages_stay_put_without_pressure(self, reference):
        kernel = make_kernel()
        lru = kernel.policy.lru
        use_mode(lru, reference)
        frames = kernel.alloc_app_pages(64)  # fast tier is mostly free
        now = 0
        for _ in range(kernel.platform.lru.cold_age_rounds + 2):
            now += kernel.platform.lru.scan_period_ns
            lru.scan(now)
        # Every frame aged past cold_age_rounds, yet none were demoted:
        # free memory sits above the kswapd watermark.
        assert all(f.lru_age >= kernel.platform.lru.cold_age_rounds for f in frames)
        assert lru.demoted == 0
        assert all(f.tier_name == "fast" for f in frames)

    def test_pressure_demotes_to_restore_watermark(self, reference):
        kernel = make_kernel()
        lru = kernel.policy.lru
        use_mode(lru, reference)
        fast = kernel.topology.tier("fast")
        kernel.alloc_app_pages(fast.capacity_pages)  # exhaust fast memory
        now = 0
        for _ in range(kernel.platform.lru.cold_age_rounds + 2):
            now += kernel.platform.lru.scan_period_ns
            lru.scan(now)
        watermark = int(fast.capacity_pages * lru.free_watermark_frac)
        assert lru.demoted >= watermark
        assert fast.free_pages >= watermark


class TestTwoTouchPromotion:
    def _slow_app_frames(self, kernel, n):
        return kernel.topology.allocate(n, ["slow"], PageOwner.APP)

    def test_single_touches_never_promote(self, reference):
        kernel = make_kernel()
        lru = kernel.policy.lru
        use_mode(lru, reference)
        (frame,) = self._slow_app_frames(kernel, 1)
        period = kernel.platform.lru.scan_period_ns
        lru.scan(period)      # allocation touch: streak 1
        lru.scan(2 * period)  # untouched window: streak back to 0
        frame.record_access(2 * period + 10, write=False)
        lru.scan(3 * period)  # touched again, but streak restarts at 1
        assert lru.promoted == 0
        assert frame.tier_name == "slow"
        assert frame.scan_ref_streak <= 1

    def test_consecutive_touches_promote(self, reference):
        kernel = make_kernel()
        lru = kernel.policy.lru
        use_mode(lru, reference)
        (frame,) = self._slow_app_frames(kernel, 1)
        period = kernel.platform.lru.scan_period_ns
        lru.scan(period)  # allocation counts as the first touch
        frame.record_access(period + 10, write=False)
        lru.scan(2 * period)  # second consecutive window: promote
        assert lru.promoted == 1
        assert frame.tier_name == "fast"

    def test_streak_reset_matches_between_modes(self):
        """Same touch schedule, indexed scanner and reference walk:
        identical promote decisions."""
        outcomes = {}
        for reference in (False, True):
            kernel = make_kernel()
            lru = kernel.policy.lru
            use_mode(lru, reference)
            frames = self._slow_app_frames(kernel, 8)
            period = kernel.platform.lru.scan_period_ns
            for round_no in range(1, 7):
                now = round_no * period
                for i, frame in enumerate(frames):
                    # Frame i is touched in rounds where round_no % (i+1) == 0:
                    # frame 0 every round (promotes), frame 7 rarely (never).
                    if round_no % (i + 1) == 0:
                        frame.record_access(now - 50, write=False)
                lru.scan(now)
            outcomes[reference] = (
                lru.promoted,
                [f.tier_name for f in frames],
                [f.scan_ref_streak for f in frames],
            )
        assert outcomes[True][:2] == outcomes[False][:2]


class TestAutoNumaBatchLimit:
    def _away_kernel(self, pages):
        kernel, pol = build_optane_kernel("autonuma", scale_factor=8192)
        frames = kernel.alloc_app_pages(pages)
        kernel.set_task_node(1)  # every frame is now away from home
        return kernel, pol, frames

    def test_wakeup_moves_at_most_batch(self, reference):
        kernel, pol, frames = self._away_kernel(pol_batch_plus := 600)
        use_mode(pol, reference)
        pol._scan()
        assert pol.migrated_app == pol.batch < pol_batch_plus
        # Earliest-allocated (lowest-fid) frames move first, matching the
        # global walk's encounter order.
        moved = sorted(f.fid for f in frames if f.tier_name == "node1")
        assert moved == sorted(f.fid for f in frames)[: pol.batch]

    def test_repeated_wakeups_drain_the_away_set(self, reference):
        kernel, pol, frames = self._away_kernel(600)
        use_mode(pol, reference)
        for _ in range(4):
            pol._scan()
        assert pol.migrated_app == 600
        assert all(f.tier_name == "node1" for f in frames)
        # Settled: further wakeups find nothing to do.
        pol._scan()
        assert pol.migrated_app == 600
