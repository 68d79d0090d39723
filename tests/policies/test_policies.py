"""Tests for the tiering policies' placement rules and daemons."""

import pytest

from repro.core.config import LRUSpec, two_tier_platform_spec
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB, SEC
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.policies import (
    AllFastMem,
    AllSlowMem,
    KlocsFineGrainedPolicy,
    KlocsNoMigrationPolicy,
    KlocsPolicy,
    NaivePolicy,
    NimblePlusPlusPolicy,
    NimblePolicy,
    OPTANE_POLICIES,
    TWO_TIER_POLICIES,
)


def make_kernel(policy, fast_mb=4):
    spec = two_tier_platform_spec(
        fast_capacity_bytes=fast_mb * MB, slow_capacity_bytes=40 * MB
    )
    kernel = Kernel(spec, policy, seed=3)
    kernel.start()
    return kernel


class TestRegistries:
    def test_two_tier_registry_complete(self):
        assert set(TWO_TIER_POLICIES) == {
            "all_fast", "all_slow", "naive", "nimble", "nimble++",
            "klocs_nomigration", "klocs", "klocs_fine",
        }

    def test_optane_registry_complete(self):
        assert set(OPTANE_POLICIES) == {
            "all_local", "all_remote", "autonuma", "nimble", "klocs"
        }

    def test_policy_flags(self):
        assert not NaivePolicy.uses_kloc
        assert not NimblePolicy.uses_kloc
        assert not NimblePlusPlusPolicy.uses_kloc
        assert KlocsPolicy.uses_kloc
        assert KlocsNoMigrationPolicy.uses_kloc
        assert KlocsFineGrainedPolicy.uses_kloc


class TestPlacementRules:
    def test_all_slow_orders(self):
        policy = AllSlowMem()
        assert policy.tier_order_app() == ["slow"]
        assert policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, None, covered=False
        ) == ["slow"]

    def test_naive_greedy(self):
        policy = NaivePolicy()
        assert policy.tier_order_app() == ["fast", "slow"]
        assert policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, None, covered=False
        ) == ["fast", "slow"]

    def test_nimble_pins_kernel_to_slow(self):
        policy = NimblePolicy()
        assert policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, None, covered=False
        )[0] == "slow"
        assert policy.tier_order_app()[0] == "fast"

    def test_klocs_places_by_knode_activity(self):
        kernel = make_kernel(KlocsPolicy())
        policy = kernel.policy
        fh = kernel.fs.create("/f")  # open → knode active
        order_active = policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, fh.inode, covered=True
        )
        assert order_active[0] == "fast"
        kernel.fs.close(fh)
        order_inactive = policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, fh.inode, covered=True
        )
        assert order_inactive[0] == "slow"

    def test_klocs_transient_types_always_fast(self):
        kernel = make_kernel(KlocsPolicy())
        policy = kernel.policy
        fh = kernel.fs.create("/f")
        kernel.fs.close(fh)  # knode inactive
        order = policy.tier_order_kernel(
            KernelObjectType.BLOCK, fh.inode, covered=True
        )
        assert order[0] == "fast"

    def test_klocs_kernel_share_cap(self):
        kernel = make_kernel(KlocsPolicy(), fast_mb=1)
        policy = kernel.policy
        # Fill the fast tier with kernel pages beyond any entitlement.
        kernel.topology.allocate(
            kernel.topology.tier("fast").capacity_pages,
            ["fast"],
            PageOwner.PAGE_CACHE,
        )
        fh = kernel.fs.create("/f")
        order = policy.tier_order_kernel(
            KernelObjectType.PAGE_CACHE, fh.inode, covered=True
        )
        assert order[0] == "slow"


class TestScanEngineOwnership:
    def test_nimble_scans_app_only(self):
        kernel = make_kernel(NimblePolicy())
        lru = kernel.policy.lru
        assert lru.promote_owners == {PageOwner.APP}
        assert lru.demote_owners == {PageOwner.APP}

    def test_nimblepp_scans_everything(self):
        kernel = make_kernel(NimblePlusPlusPolicy())
        lru = kernel.policy.lru
        assert lru.promote_owners is None
        assert lru.demote_owners is None

    def test_klocs_full_lru_plus_knode_path(self):
        kernel = make_kernel(KlocsPolicy())
        lru = kernel.policy.lru
        assert lru.promote_owners is None
        assert lru.demote_owners is None

    def test_klocs_nomigration_demotes_app_only(self):
        kernel = make_kernel(KlocsNoMigrationPolicy())
        lru = kernel.policy.lru
        assert lru.demote_owners == {PageOwner.APP}


class TestEndToEndBehaviors:
    def test_klocs_downgrades_closed_file_under_pressure(self):
        kernel = make_kernel(KlocsPolicy(), fast_mb=1)
        kernel.kloc_daemon.free_target_frac = 1.0  # force pressure
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 64 * 4096)
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        kernel.fs.close(fh)
        kernel.kloc_daemon.run()
        fast_pages = [p for p in cache.pages() if p.obj.frame.tier_name == "fast"]
        assert fast_pages == []

    def test_naive_never_migrates(self):
        kernel = make_kernel(NaivePolicy(), fast_mb=1)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 512 * 4096)
        kernel.fs.close(fh)
        kernel.clock.advance(100_000_000)
        assert kernel.topology.migrations_between("fast", "slow") == 0
        assert kernel.topology.migrations_between("slow", "fast") == 0

    def test_nimble_scan_registered(self):
        kernel = make_kernel(NimblePolicy())
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 16 * 4096)
        for _ in range(3):  # the clock coalesces ticks within one jump
            kernel.clock.advance(kernel.platform.lru.scan_period_ns)
        assert kernel.policy.lru.scans >= 2

    def test_slab_pages_never_move_under_nimblepp(self):
        """The §3.3 constraint shows up end to end."""
        kernel = make_kernel(NimblePlusPlusPolicy(), fast_mb=1)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 600 * 4096)  # force pressure + scans
        kernel.fs.close(fh)
        kernel.clock.advance(kernel.platform.lru.scan_period_ns * 4)
        moved_slab = sum(
            count
            for (src, dst, owner), count in kernel.topology.migration_count.items()
            if owner is PageOwner.SLAB
        )
        assert moved_slab == 0

    def test_fine_grained_variant_never_sweeps_knodes(self):
        """§4.4 future-work extension: no en-masse knode migration."""
        kernel = make_kernel(KlocsFineGrainedPolicy(), fast_mb=1)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 8 * 4096)
        kernel.fs.close(fh)
        assert kernel.kloc_daemon.pending == {}  # close not marked
        kernel.kloc_daemon.run()  # manual run still safe
        assert kernel.kloc_daemon.runs == 1

    def test_klocs_can_move_slab_replacement_pages(self):
        kernel = make_kernel(KlocsPolicy(), fast_mb=1)
        kernel.kloc_daemon.free_target_frac = 1.0
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 8 * 4096)
        kernel.fs.close(fh)
        kernel.kloc_daemon.run()
        moved_kernel = kernel.topology.migrations_between("fast", "slow")
        assert moved_kernel > 0


class TestGranularityAblation:
    """§4.4: KLOCs track kernel objects at inode granularity, so a file
    that turns cold loses all of its fast pages in one knode sweep, while
    page-granularity scanning (Nimble++) needs several scan rounds."""

    def _cold_file_kernel(self, policy):
        from repro.platforms.twotier import build_two_tier_kernel

        kernel, _ = build_two_tier_kernel(policy, scale_factor=1024)
        fh = kernel.fs.create("/victim")
        kernel.fs.write(fh, 0, 1 * MB)  # 256 pages
        kernel.fs.fsync(fh)
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        kernel.fs.close(fh)
        return kernel, cache

    @staticmethod
    def _fast_resident(cache):
        return sum(1 for p in cache.pages() if p.obj.frame.tier_name == "fast")

    def test_inode_vs_fine_grained_throughput(self):
        """The paper's inode-granularity position ("a simplistic
        implementation and good performance") predicts the shipped policy
        is at least competitive with the fine-grained variant."""
        from repro.experiments.runner import run_two_tier

        klocs = run_two_tier("rocksdb", "klocs", ops=12_000)
        fine = run_two_tier("rocksdb", "klocs_fine", ops=12_000)
        ratio = klocs.throughput / fine.throughput
        assert ratio > 0.9  # competitive-or-better

    def test_knode_sweep_vs_scan_rounds(self):
        # KLOCs: one daemon pass clears the cold knode en masse.
        kernel, cache = self._cold_file_kernel("klocs")
        kernel.kloc_daemon.free_target_frac = 1.0  # treat as pressured
        before = self._fast_resident(cache)
        kernel.kloc_daemon.run()
        after_klocs = self._fast_resident(cache)

        # Nimble++: the scanner needs cold_age_rounds of scans before the
        # pages even become candidates.
        kernel2, cache2 = self._cold_file_kernel("nimble++")
        lru = kernel2.policy.lru
        lru.free_watermark_frac = 1.0  # force demotion pressure
        rounds_needed = 0
        while self._fast_resident(cache2) > 0 and rounds_needed < 10:
            lru.scan()
            rounds_needed += 1

        assert before > 0
        assert after_klocs == 0  # single-pass en-masse downgrade
        assert rounds_needed >= kernel2.platform.lru.cold_age_rounds


class TestLRUScanRate:
    """§3.3: "We measure the time taken to scan one million pages on our
    Intel Xeon platform as 2 seconds", the constant that makes scan-based
    tiering too slow for kernel objects living 36-160ms."""

    def test_lru_scan_rate(self):
        from repro.policies.lru_engine import LRUScanEngine

        spec = two_tier_platform_spec(fast_capacity_bytes=4 * MB)
        kernel = Kernel(spec, NimblePlusPlusPolicy(), seed=1)
        # Paper-scale spec: 500K pages/sec.
        engine = LRUScanEngine(
            kernel, spec=LRUSpec(), promote_owners=None, demote_owners=None
        )
        cost = engine.scan_cost_ns(1_000_000)
        assert 1.8 * SEC <= cost <= 2.2 * SEC

    def test_scan_latency_exceeds_kernel_lifetimes(self):
        """The compressed-time configs keep §3.3's inequality: detection
        latency (period x cold rounds) outlasts the KLOC and writeback
        daemon periods."""
        spec = two_tier_platform_spec(fast_capacity_bytes=4 * MB)
        detection_ns = spec.lru.scan_period_ns * spec.lru.cold_age_rounds
        assert detection_ns >= 4 * spec.kloc.migrate_period_ns
        assert detection_ns >= 8 * spec.writeback_period_ns
