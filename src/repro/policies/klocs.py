"""The KLOCs policies (Table 5) — the paper's contribution.

Both variants keep Nimble's application-page machinery (Table 5: "Original
Nimble policies to identify hot application pages") and add KLOC
tracking: kernel objects of *active* knodes are allocated directly into
fast memory, objects of inactive knodes into slow memory (§3.2
implication one / §4.2.2).

:class:`KlocsPolicy` additionally migrates kernel objects:

* the instant a knode goes inactive, its whole subtree is downgraded
  ("we immediately mark and migrate the kernel page objects they are
  associated with, without waiting for scans" — §4.5);
* the asynchronous daemon ages open-but-idle knodes and pulls reopened
  knodes' objects back up (§4.4);
* ping-ponging pages are pinned in fast memory via the 8-bit counters
  (§4.5).

:class:`KlocsNoMigrationPolicy` is Fig 4's *KLOCs-nomigration* bar:
direct allocation only — inactive objects stay wherever they are until
freed, shrinking the fast memory available to active knodes.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.mem.frame import PageOwner
from repro.policies.base import TieringPolicy
from repro.policies.lru_engine import LRUScanEngine

#: §4.5: pages migrated this many times get retained in fast memory.
PINGPONG_PIN_THRESHOLD = 4

#: Object types whose lifetimes are far below the migration/reclaim
#: timescale (Fig 2d's shortest-lived classes): they are freed before
#: they could ever pollute fast memory, so direct allocation always
#: places them fast — §3.2 implication one, without the share cap.
TRANSIENT_TYPES = frozenset(
    {
        KernelObjectType.BLOCK,
        KernelObjectType.BLK_MQ,
        KernelObjectType.SKBUFF,
        KernelObjectType.SKBUFF_DATA,
        KernelObjectType.RX_BUF,
        KernelObjectType.JOURNAL,
    }
)

#: Shared placement orders, returned by the per-allocation hooks instead
#: of building a fresh list per call. Consumers only iterate them
#: (``MemoryTopology.allocate``) — never mutate.
_FAST_FIRST = ["fast", "slow"]
_SLOW_FIRST = ["slow", "fast"]
#: The live-frame index key of application pages on the fast tier.
_FAST_APP = ("fast", PageOwner.APP)


class KlocsNoMigrationPolicy(TieringPolicy):
    """Direct allocation by knode activity; no kernel-object migration."""

    name = "klocs_nomigration"
    uses_kloc = True
    #: Owners the LRU scan demotes. Promotion covers kernel pages too —
    #: KLOCs make referenced slow kernel pages identifiable and (via the
    #: KLOC allocation interface) relocatable; demotion of kernel objects
    #: is handled by knode events, so the scan only demotes application
    #: pages.
    scan_demote_owners: Optional[FrozenSet[PageOwner]] = frozenset({PageOwner.APP})

    def __init__(self) -> None:
        super().__init__()
        self.lru: LRUScanEngine = None  # type: ignore[assignment]
        # Placement state read per allocation; attach() binds the rest.
        self._manager = None

    def attach(self, kernel) -> None:
        super().attach(kernel)
        topology = kernel.topology
        self._manager = kernel.kloc_manager
        self._fast = topology.tier("fast")
        self._live_frames = topology.live_frames
        self.lru = LRUScanEngine(
            kernel,
            spec=kernel.platform.lru,
            promote_owners=None,
            demote_owners=self.scan_demote_owners,
        )

    def start_daemons(self) -> None:
        self.lru.start()

    def tier_order_app(self, *, cpu: int = 0) -> List[str]:
        # §4.2.2: "KLOCs prioritize application pages to reduce their
        # placement in slower memory".
        return _FAST_FIRST

    #: Headroom kept available for application promotions beyond the
    #: app's current fast-tier residency.
    APP_GROWTH_MARGIN = 256

    @hot
    def tier_order_kernel(self, otype, inode, *, covered: bool, cpu: int = 0) -> List[str]:
        """Fast first for an active knode's object while the kernel's
        share of fast memory has room, slow first otherwise.

        Transient objects (bios, blk-mq requests, packet buffers, journal
        records) live microseconds-to-sub-ms and are referenced
        immediately: always hot at allocation, gone before pollution is
        possible, so they go fast like uncovered types.

        The share is the sys_kloc_memsize() cap, read from the KLOC
        manager's spec, with demand-based app priority. Application pages
        are entitled to (1 - fast_capacity_fraction) of fast memory
        (§4.2.2: "KLOCs prioritize application pages"), but entitlement
        the app is not using, beyond a growth margin, is lent to kernel
        objects, so app-light workloads (Filebench) still fill fast memory
        with kernel data.
        """
        if not covered or inode is None or otype in TRANSIENT_TYPES:
            return _FAST_FIRST
        if inode.knode_id is None:
            return _SLOW_FIRST
        manager = self._manager
        knode = manager.knode_for_inode(inode, cpu=cpu)
        if knode is None or not knode.inuse:
            return _SLOW_FIRST
        fast = self._fast
        cap = fast.capacity_pages
        app_fast = len(self._live_frames.get(_FAST_APP, ()))
        entitlement = int(cap * (1 - manager.spec.fast_capacity_fraction))
        if app_fast + self.APP_GROWTH_MARGIN < entitlement:
            entitlement = app_fast + self.APP_GROWTH_MARGIN
        # Every live fast frame that is not the app's is a kernel page.
        if fast.used_pages - app_fast < cap - entitlement:
            return _FAST_FIRST
        return _SLOW_FIRST


class KlocsPolicy(KlocsNoMigrationPolicy):
    """Full KLOCs: direct allocation plus en-masse kernel-object migration."""

    name = "klocs"
    #: Table 5: KLOCs keeps the "original Nimble policies" — full
    #: page-granularity LRU over application AND kernel pages — and
    #: layers the knode short-circuits (immediate close-downgrades,
    #: en-masse cold-knode sweeps) on top.
    scan_demote_owners = None

    def start_daemons(self) -> None:
        super().start_daemons()
        self.kernel.kloc_daemon.start()

    def on_knode_inactive(self, knode) -> None:
        """Mark the knode definitely-cold — the short-circuit that defines
        KLOCs: no scan is needed to identify every object it owns.

        The migration itself is asynchronous (§5's dedicated kernel
        threads): the daemon's next pass downgrades marked knodes first,
        under memory pressure. Deferring one tick also means a file that
        is closed and immediately unlinked frees its objects rather than
        migrating them (§3.2: deleted objects "should not be migrated").
        """
        self.kernel.kloc_daemon.mark_cold(knode)

    #: Pages pulled up eagerly when a knode reactivates; the rest come up
    #: page-by-page through the promote scan as they are referenced.
    REACTIVATE_UPGRADE_LIMIT = 4

    def on_knode_active(self, knode) -> None:
        """Reopened file/socket: retrieve its hottest objects eagerly."""
        daemon = self.kernel.kloc_daemon
        daemon.unmark(knode.knode_id)  # reopened before the daemon ran
        daemon.upgrade_knode(knode, limit=self.REACTIVATE_UPGRADE_LIMIT)
        for frame in daemon.knode_frames(knode):
            if frame.migrations >= PINGPONG_PIN_THRESHOLD:
                frame.pinned_fast = True

    def on_prefetch(self, inode, npages: int) -> None:
        """§4.4: the readahead path exposes kernel objects to the
        prefetcher — pull the inode's knode up alongside its data."""
        if inode.knode_id is None:
            return
        knode = self.kernel.kloc_manager.knode_for_inode(inode)
        if knode is not None and knode.inuse:
            self.kernel.kloc_daemon.upgrade_knode(knode, limit=16)


class KlocsFineGrainedPolicy(KlocsPolicy):
    """§4.4's future-work variant: per-object (per-page) tracking.

    "Our future work will explore the benefits of employing a fine-grained
    kernel object tracking approach" — this policy keeps the KLOC
    allocation interface and activity-based direct allocation but drops
    the inode-granularity *migration* short-circuits: kernel pages move
    only via the page-granularity LRU, individually. Comparing it against
    :class:`KlocsPolicy` quantifies what the en-masse knode sweeps buy
    (see ``TestGranularityAblation`` in tests/policies/test_policies.py).
    """

    name = "klocs_fine"

    def start_daemons(self) -> None:
        # Page-granularity scanning only — no knode migration daemon.
        self.lru.start()

    def on_knode_inactive(self, knode) -> None:
        """No en-masse downgrade: cold pages age out one by one."""

    def on_knode_active(self, knode) -> None:
        """No en-masse upgrade: hot pages promote one by one."""

    def on_prefetch(self, inode, npages: int) -> None:
        """No knode-level prefetch piggyback."""
