"""The KLOC migration daemon (§4.4 / §5).

"Kernel object migrations are asynchronous, and we use dedicated kernel
threads to migrate kernel objects associated with active and inactive
knodes between fast and slow memory."

Each run:

1. **Downgrade** — cold knodes (closed, or open but aged past the
   threshold) have every relocatable frame under their subtree migrated
   to slow memory en masse. This is the dominant direction (§4.4: 88% of
   migrations are downgrades, 79% of those page-cache pages).
2. **Upgrade** — active knodes with slow-resident frames are pulled back
   to fast memory while capacity (minus the configured reserve) allows —
   the 4–12% reverse migrations.
3. **Aging** — knodes untouched since the previous run age by one round.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.mem.frame import PageFrame
from repro.mem.migration import MigrationEngine
from repro.mem.topology import MemoryTopology

if TYPE_CHECKING:
    from repro.alloc.kloc_alloc import KlocAllocator
    from repro.kloc.knode import Knode
    from repro.kloc.manager import KlocManager


class KlocMigrationDaemon:
    """Asynchronous knode-granularity migration between two tiers."""

    def __init__(
        self,
        manager: "KlocManager",
        engine: MigrationEngine,
        topology: MemoryTopology,
        *,
        kloc_allocator: "KlocAllocator",
        background_charge: Callable[[int], None],
        fast_tier: str = "fast",
        slow_tier: str = "slow",
    ) -> None:
        self.manager = manager
        self.engine = engine
        self.topology = topology
        self.fast_tier = fast_tier
        self.slow_tier = slow_tier
        self.kloc_allocator = kloc_allocator
        #: Called with each batch's cost: migration threads burn CPU even
        #: though they run asynchronously (§5 notes the dedicated threads).
        self.background_charge = background_charge
        self.runs = 0
        self.downgraded_pages = 0
        self.upgraded_pages = 0
        self._last_run_ns = 0
        self.started = False
        #: Knodes marked definitely-cold (closed) awaiting the next daemon
        #: pass. Migration is asynchronous (§5); deferring it one tick also
        #: means close-then-unlink sequences free their objects instead of
        #: pointlessly migrating them (§3.2 implication two).
        self.pending: "OrderedDict[int, Knode]" = OrderedDict()
        #: Downgrades run only while fast memory is under pressure —
        #: §4.1: "The exact number of pages, kernel objects, and KLOCs to
        #: migrate depends upon memory pressure and LRU policies." The
        #: target is sized so a flush-burst's worth of direct allocations
        #: always finds fast pages free (kswapd-style high watermark).
        self.free_target_frac = 0.12

    def start(self) -> None:
        """Register the periodic daemon on the clock (idempotent)."""
        if self.started:
            return
        self.manager.clock.schedule_periodic(
            self.manager.spec.migrate_period_ns, self.run
        )
        self.started = True

    # ------------------------------------------------------------------

    def knode_frames(self, knode: "Knode") -> List[PageFrame]:
        """Live frames under the knode subtree, then the KLOC allocator's live
        pages of the knode not among them (read fresh; see docs/API.md)."""
        frames = knode.frames()
        pages = self.kloc_allocator.knode_frames(knode.knode_id)
        if pages:
            have = set(frames)
            frames += [f for f in pages if f.freed_at is None and f not in have]
        return frames

    def downgrade_knode(self, knode: "Knode") -> int:
        """Move one cold knode's objects to slow memory (en masse)."""
        victims = [
            f for f in self.knode_frames(knode) if f.tier_name == self.fast_tier
        ]
        if not victims:
            return 0
        result = self.engine.migrate(victims, self.slow_tier)
        self.background_charge(result.cost_ns)
        self.downgraded_pages += result.moved
        return result.moved

    #: Upper bound on pages one upgrade pulls — keeps a huge reopened file
    #: from monopolizing the migration thread (reverse migrations are only
    #: 4-12% of traffic in the paper, §4.4). Individual hot pages beyond
    #: this come up through the reference-driven promote scan.
    UPGRADE_BATCH = 64

    def upgrade_knode(self, knode: "Knode", *, limit: Optional[int] = None) -> int:
        """Pull an active knode's slow-resident objects into fast memory,
        respecting the sys_kloc_memsize() capacity cap (read from the
        manager's spec, the cap's one owner)."""
        fast = self.topology.tier(self.fast_tier)
        budget_pages = int(
            fast.capacity_pages * self.manager.spec.fast_capacity_fraction
        )
        kernel_used = self.topology.kernel_pages_in(self.fast_tier)
        batch = min(limit, self.UPGRADE_BATCH) if limit is not None else self.UPGRADE_BATCH
        headroom = min(budget_pages - kernel_used, fast.free_pages, batch)
        if headroom <= 0:
            return 0
        candidates = [
            f for f in self.knode_frames(knode) if f.tier_name == self.slow_tier
        ][:headroom]
        if not candidates:
            return 0
        result = self.engine.migrate(candidates, self.fast_tier)
        self.background_charge(result.cost_ns)
        self.upgraded_pages += result.moved
        return result.moved

    def mark_cold(self, knode: "Knode") -> None:
        """Queue a definitely-cold knode for the next daemon pass."""
        self.pending[knode.knode_id] = knode

    def unmark(self, knode_id: int) -> None:
        """Drop a queued knode (deleted, or reopened before the pass)."""
        self.pending.pop(knode_id, None)

    def fast_free_deficit(self) -> int:
        """Pages short of the free-watermark target (0 = no pressure)."""
        fast = self.topology.tier(self.fast_tier)
        target = int(fast.capacity_pages * self.free_target_frac)
        return max(0, target - fast.free_pages)

    def run(self, now_ns: int = 0) -> Dict[str, int]:
        """One daemon pass: age knodes, then reclaim under pressure.

        Downgrades sweep the *coldest* knodes first (closed before open,
        then by last access — the kmap's LRU order) and stop as soon as
        the fast tier's free watermark is restored, so a cold knode with
        no fast-resident pages costs nothing and hot knodes are never
        touched.
        """
        self.runs += 1
        moved_down = 0
        moved_up = 0
        for knode in self.manager.kmap.all_knodes():
            touched = knode.last_access >= self._last_run_ns
            if not touched:
                knode.tick_age()
            elif knode.inuse and knode.age == 0:
                moved_up += self.upgrade_knode(knode)

        deficit = self.fast_free_deficit()
        if deficit > 0:
            cold_age = self.manager.spec.cold_age_rounds
            # Definitely-cold (closed) knodes first: the short-circuit.
            while self.pending and moved_down < deficit:
                _id, knode = self.pending.popitem(last=False)
                if not knode.inuse:
                    moved_down += self.downgrade_knode(knode)
            # Then likely-cold open knodes, coldest first.
            if moved_down < deficit:
                for knode in self.manager.kmap.get_lru_knodes(cold_age=cold_age):
                    if moved_down >= deficit:
                        break
                    if knode.is_cold(cold_age):
                        moved_down += self.downgrade_knode(knode)

        self._last_run_ns = now_ns or self.manager.clock.now()
        if self.manager.sanitizer is not None:
            # Scan boundary (REPRO_SANITIZE=1): cross-check the incremental
            # metadata counters against a full structure recomputation, and
            # the topology's live-frame index against the tier counters.
            # Read-only — no clock or counter movement, so the pass's
            # simulated behavior is unchanged.
            self.manager.verify_counters()
            self.topology.check_invariants()
        return {"downgraded": moved_down, "upgraded": moved_up}

    def migration_mix(self) -> Dict[str, float]:
        """Fraction of migrations by direction (cf. §4.4's 88% / 12%)."""
        total = self.downgraded_pages + self.upgraded_pages
        if not total:
            return {"downgrade": 0.0, "upgrade": 0.0}
        return {
            "downgrade": self.downgraded_pages / total,
            "upgrade": self.upgraded_pages / total,
        }

    def __repr__(self) -> str:
        return (
            f"KlocMigrationDaemon(runs={self.runs}, "
            f"down={self.downgraded_pages}, up={self.upgraded_pages})"
        )
