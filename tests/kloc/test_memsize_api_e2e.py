"""End-to-end: sys_kloc_memsize() actually bounds the kernel share."""

import pytest

from repro.core.units import KB
from repro.kloc.api import KlocAPI
from repro.mem.frame import PageOwner
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096


class TestMemsizeEndToEnd:
    def test_cap_limits_daemon_upgrades(self):
        kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
        api = KlocAPI(kernel.kloc_manager)
        api.sys_kloc_memsize("fast", 0.05)
        assert kernel.kloc_manager.spec.fast_capacity_fraction == 0.05

        fh = kernel.fs.create("/big")
        kernel.fs.write(fh, 0, 256 * KB)
        knode = kernel.kloc_manager.knode_for_inode(fh.inode)
        kernel.kloc_daemon.free_target_frac = 1.0
        kernel.kloc_daemon.downgrade_knode(knode)
        # Try to pull everything back: the 5% budget must bound it.
        kernel.kloc_daemon.upgrade_knode(knode, limit=10_000)
        fast = kernel.topology.tier("fast")
        budget = int(fast.capacity_pages * 0.05)
        assert kernel.topology.kernel_pages_in("fast") <= budget + 1

    def test_placement_respects_tightened_cap(self):
        kernel, policy = build_two_tier_kernel("klocs", scale_factor=SCALE)
        fast = kernel.topology.tier("fast")
        # The app holds 200 fast pages, so its entitlement under a 1% cap
        # (its pages plus the growth margin) leaves the kernel 56 pages;
        # the default 50% cap would leave it 256.
        kernel.alloc_app_pages(200)
        KlocAPI(kernel.kloc_manager).sys_kloc_memsize("fast", 0.01)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 512 * KB)
        live = kernel.topology.live_count
        app_fast = live.get(("fast", PageOwner.APP), 0)
        assert app_fast == 200
        kernel_share = fast.capacity_pages - app_fast - policy.APP_GROWTH_MARGIN
        # Transient journal/bio objects are exempt by design; the page
        # cache is not.
        assert live.get(("fast", PageOwner.PAGE_CACHE), 0) <= kernel_share
