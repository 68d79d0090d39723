"""Scan-based LRU hotness engine — the machinery Nimble-family policies use.

§3.3's structural limit is encoded here: the scanner visits frames at a
finite rate (the paper measures one million pages ≈ 2 seconds), on a
periodic schedule. A kernel object whose lifetime is shorter than the
scan period is dead before the scanner can ever classify it — which is
exactly why Nimble++ "cannot adapt to changes in kernel object hotness
sufficiently rapidly" (§6.2) and why KLOCs short-circuit the scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

from repro.core.config import LRUSpec
from repro.core.units import SEC
from repro.mem.frame import PageFrame, PageOwner

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel


#: The two tiers the engine moves pages between.
FAST_TIER = "fast"
SLOW_TIER = "slow"
#: Upper bound on pages one scan moves in each direction.
MIGRATE_BATCH = 2048


def _by_fid(frame: PageFrame) -> int:
    return frame.fid


class LRUScanEngine:
    """Periodic page-table-style scan + two-direction migration."""

    def __init__(
        self,
        kernel: "Kernel",
        *,
        spec: LRUSpec,
        promote_owners: Optional[FrozenSet[PageOwner]],
        demote_owners: Optional[FrozenSet[PageOwner]],
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        #: Which owners each direction manages (None = all). KLOCs-
        #: nomigration uses an asymmetric split: promotion covers kernel
        #: pages too (referenced slow pages come up at page granularity),
        #: while scan-demotion stays app-only.
        self.promote_owners = promote_owners
        self.demote_owners = demote_owners
        #: kswapd-style watermark: demotion only runs to keep this much of
        #: fast memory free (plus room for pending promotions) — pages are
        #: not evicted from fast memory without pressure.
        self.free_watermark_frac = 0.04
        self.scans = 0
        self.promoted = 0
        self.demoted = 0
        self._last_scan_ns = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self.kernel.clock.schedule_periodic(self.spec.scan_period_ns, self.scan)
        self._started = True

    def _promotable(self, frame: PageFrame) -> bool:
        return self.promote_owners is None or frame.owner in self.promote_owners

    def scan_cost_ns(self, npages: int) -> int:
        """Wall time to visit ``npages`` at the measured scan rate."""
        return int(npages / self.spec.scan_pages_per_second * SEC)

    def _collect(self) -> Tuple[List[PageFrame], List[PageFrame], int]:
        """O(candidates) collection via the resident-frame indexes.

        The result equals a walk over every live frame in fid order
        (aging fast-tier residents, counting slow-tier reference streaks);
        that equivalence rests on three facts:

        * a *referenced* fast-tier frame already has ``lru_age == 0``
          (``record_access`` reset it), so only unreferenced demotable
          residents can change state — age exactly those;
        * the referenced journal is a superset of the slow-tier frames the
          walk would see as referenced (accesses and allocations both
          enroll), and unreferenced slow frames only ever have their
          streak reset — done lazily via ``scan_ref_round``;
        * candidates are re-sorted by fid, restoring the walk's encounter
          order before THP expansion / truncation / the stable age sort.
        """
        topo = self.kernel.topology
        mark = self._last_scan_ns
        cold_rounds = self.spec.cold_age_rounds

        demote_candidates: List[PageFrame] = []
        if self.demote_owners is None:
            demotable = topo.resident_frames(FAST_TIER).values()
        else:
            demotable = [
                frame
                for owner in self.demote_owners
                for frame in topo.resident_frames_by_owner(FAST_TIER, owner).values()
            ]
        for frame in demotable:
            if frame.last_access >= mark:
                continue
            frame.lru_age += 1
            if frame.lru_age >= cold_rounds:
                demote_candidates.append(frame)
        demote_candidates.sort(key=_by_fid)

        promote_candidates: List[PageFrame] = []
        round_no = self.scans
        for frame in topo.drain_referenced():
            if frame.tier_name != SLOW_TIER or frame.last_access < mark:
                continue
            # Lazy two-touch streak: consecutive-window participation is
            # tracked by the round stamp instead of eagerly zeroing every
            # untouched slow frame each scan.
            if frame.scan_ref_round == round_no - 1:
                frame.scan_ref_streak += 1
            else:
                frame.scan_ref_streak = 1
            frame.scan_ref_round = round_no
            if (
                frame.scan_ref_streak >= 2
                and frame.relocatable
                and self._promotable(frame)
            ):
                promote_candidates.append(frame)
        promote_candidates.sort(key=_by_fid)

        # The *simulated* scan still visits every live frame (§3.3's rate
        # is the point of the model); only the host-side walk is indexed.
        return demote_candidates, promote_candidates, len(topo.frames)

    def scan(self, now_ns: int = 0) -> dict:
        """One scan round: age pages, then migrate hot/cold candidates."""
        now = now_ns or self.kernel.clock.now()
        self.scans += 1
        demote_candidates, promote_candidates, visited = self._collect()

        # The scan itself burns a CPU at the measured rate (§3.3): charge
        # it as background work spread across the machine's cores.
        self.kernel.background_cpu_work(self.scan_cost_ns(visited))

        # THP handling: compound groups move whole-or-not-at-all, and a
        # single referenced member keeps the entire group resident.
        thp = self.kernel.thp
        if demote_candidates:
            demote_candidates = [
                f
                for f in thp.expand(demote_candidates)
                if f.compound_id is None
                or not thp.group_recently_referenced(
                    f.compound_id, self._last_scan_ns
                )
            ]
        if promote_candidates:
            promote_candidates = thp.expand(promote_candidates)

        demoted = promoted = 0
        fast = self.kernel.topology.tier(FAST_TIER)
        if demote_candidates:
            # Demote only under pressure: enough to restore the free
            # watermark and admit this round's promotions, coldest first.
            watermark = int(fast.capacity_pages * self.free_watermark_frac)
            need = min(
                max(0, watermark + len(promote_candidates) - fast.free_pages),
                MIGRATE_BATCH,
            )
            if need:
                demote_candidates.sort(key=lambda f: -f.lru_age)
                result = self.kernel.engine.migrate(
                    demote_candidates[:need], SLOW_TIER
                )
                self.kernel.background_cpu_work(result.cost_ns)
                demoted = result.moved
        if promote_candidates:
            room = max(0, fast.free_pages)
            result = self.kernel.engine.migrate(
                promote_candidates[: min(room, MIGRATE_BATCH)], FAST_TIER
            )
            self.kernel.background_cpu_work(result.cost_ns)
            promoted = result.moved
        self.promoted += promoted
        self.demoted += demoted
        self._last_scan_ns = now
        return {"scanned": visited, "demoted": demoted, "promoted": promoted}

    def __repr__(self) -> str:
        return (
            f"LRUScanEngine(scans={self.scans}, demoted={self.demoted}, "
            f"promoted={self.promoted})"
        )
