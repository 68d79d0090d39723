"""Memory topology: the set of tiers plus frame allocation/free/accounting.

The topology is deliberately dumb about *policy*: callers (the kernel
facade and the tiering policies) decide which tier to try first and what
to do on pressure. The topology enforces capacity, tracks every live
frame, and keeps the per-(tier, owner) counters and the freed-app-page
lifetime totals that the motivation and evaluation figures are built from.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import AllocationError, SimulationError
from repro.core.config import TierSpec
from repro.core.hotpath import hot
from repro.core.sanitize import Sanitizer, call_site, sanitize_enabled
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.tier import MemoryTier


class MemoryTopology:
    """All memory tiers in a platform plus global frame bookkeeping.

    Each live frame is held once, in the **live-frame index**
    ``live_frames``: (tier, owner) → fid-keyed dict of the frames of that
    owner homed on that tier, insertion-ordered (allocation order, with
    migrated-in frames appended). A key exists from the first frame
    placed under it on and is never dropped, so an owner whose pages were
    all freed still shows with zero live pages. Reads use ``.get`` and
    never add a key. Every live count (``live_pages``,
    ``kernel_pages_in``, ``live_pages_by_owner``, the footprint's live
    map) is derived from it, and periodic scanners walk only the views
    of their candidates. Beside it sits a referenced-since-last-drain
    journal (``drain_referenced``), fed by
    :meth:`PageFrame.record_access` and by allocation (a fresh frame
    counts as touched, exactly as the scan's ``last_access >=
    last_scan`` predicate sees it).

    Both are updated at the three mutation points (`allocate`, `free`,
    `move_frame`) and cross-checked by :meth:`check_invariants`.
    """

    def __init__(self, tier_specs: Sequence[TierSpec]) -> None:
        if not tier_specs:
            raise ValueError("topology needs at least one tier")
        self.tiers: Dict[str, MemoryTier] = {}
        for spec in tier_specs:
            if spec.name in self.tiers:
                raise ValueError(f"duplicate tier name: {spec.name}")
            self.tiers[spec.name] = MemoryTier(spec)
        self._next_fid = 0
        #: The shared free-site ledger when ``REPRO_SANITIZE=1``; every
        #: allocator picks this up from the topology it is built on, and
        #: the kernel threads it into the KLOC manager — one coherent
        #: ledger per simulated machine. None when the mode is off.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer() if sanitize_enabled() else None
        )
        #: Freed application pages and the sum of their lifetimes (ns),
        #: taken at free — Fig 2d's application series.
        self.app_frames_freed = 0
        self.app_freed_lifetime_ns = 0
        # --- the live-frame index and journal (see class docstring) ---
        self.live_frames: Dict[Tuple[str, PageOwner], Dict[int, PageFrame]] = {}
        self._referenced: Dict[int, PageFrame] = {}
        # --- counters the figures are built from ---
        #: pages ever allocated, keyed by (tier, owner)
        self.alloc_count: Dict[tuple, int] = defaultdict(int)
        #: pages migrated, keyed by (src_tier, dst_tier, owner)
        self.migration_count: Dict[tuple, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # allocation / free
    # ------------------------------------------------------------------

    @hot
    def allocate(
        self,
        npages: int,
        tier_order: Sequence[str],
        owner: PageOwner,
        obj_type: Optional[str] = None,
        knode_id: Optional[int] = None,
        relocatable: bool = True,
        now_ns: int = 0,
    ) -> List[PageFrame]:
        """Allocate ``npages`` frames, trying tiers in ``tier_order``.

        Each page goes to the first tier with a free page, so a request
        may span tiers (the first tier takes what it can, the rest spills
        to the next), mirroring a kernel falling back across zones.
        Raises :class:`AllocationError` if the order is exhausted — the
        kernel layer is expected to reclaim and retry. A multi-page
        request checks capacity first, so a failed one changes nothing.
        """
        if npages <= 0:
            raise ValueError(f"allocation must be positive: {npages}")
        tiers = self.tiers
        if npages > 1:
            # Free pages per distinct tier (an order may name one twice).
            room = {}
            free = 0
            for tier_name in tier_order:
                tier = tiers.get(tier_name)
                if tier is None:
                    raise SimulationError(f"unknown tier: {tier_name!r}")
                if tier_name not in room:
                    room[tier_name] = tier.capacity_pages - tier.used_pages
                    free += room[tier_name]
            if free < npages:
                raise AllocationError(
                    f"cannot place {npages} pages (short {npages - free}) "
                    f"in tiers {list(tier_order)}"
                )
        live_frames = self.live_frames
        frames: List[PageFrame] = []
        while npages:
            npages -= 1
            for tier_name in tier_order:
                tier = tiers.get(tier_name)
                if tier is None:
                    raise SimulationError(f"unknown tier: {tier_name!r}")
                if tier.used_pages < tier.capacity_pages:
                    break
            else:
                raise AllocationError(
                    f"cannot place 1 page (short 1) in tiers {list(tier_order)}"
                )
            # tier.reserve(1), inlined — the loop above found room.
            used = tier.used_pages + 1
            tier.used_pages = used
            tier.total_allocs += 1
            if used > tier.peak_pages:
                tier.peak_pages = used
            fid = self._next_fid
            self._next_fid = fid + 1
            frame = PageFrame(
                fid, tier_name, owner, obj_type, knode_id, relocatable, now_ns
            )
            key = (tier_name, owner)
            view = live_frames.get(key)
            if view is None:
                view = live_frames[key] = {}
            view[fid] = frame
            # Allocation counts as a touch: the scan's reference predicate
            # (last_access >= last_scan, with last_access = allocated_at)
            # sees a freshly allocated frame as referenced.
            frame.journal = self._referenced
            self._referenced[fid] = frame
            self.alloc_count[key] += 1
            frames.append(frame)
        return frames

    @hot
    def free(self, frame: PageFrame, now_ns: int) -> None:
        """Release a frame back to its tier; an application page adds its
        lifetime to the Fig 2d totals."""
        san = self.sanitizer
        if san is not None:
            san.on_frame_free(frame, site=call_site(2))
        if frame.freed_at is not None:
            raise SimulationError(f"double free of frame {frame.fid}")
        tname = frame.tier_name
        tier = self.tiers[tname]
        # tier.release(1), inlined — a live frame always holds one
        # reservation, so the underflow guard cannot trip here.
        tier.used_pages -= 1
        tier.total_frees += 1
        frame.freed_at = now_ns
        owner = frame.owner
        if owner is PageOwner.APP:
            self.app_frames_freed += 1
            self.app_freed_lifetime_ns += now_ns - frame.allocated_at
        fid = frame.fid
        del self.live_frames[(tname, owner)][fid]
        self._referenced.pop(fid, None)
        frame.journal = None

    def free_all(self, frames: Iterable[PageFrame], *, now_ns: int) -> None:
        for frame in list(frames):
            if frame.live:
                self.free(frame, now_ns=now_ns)

    # ------------------------------------------------------------------
    # migration accounting (the MigrationEngine drives this)
    # ------------------------------------------------------------------

    def move_frame(self, frame: PageFrame, dst_tier_name: str) -> None:
        """Re-home a live frame onto another tier (capacity-checked)."""
        if not frame.live:
            raise SimulationError(f"cannot move freed frame {frame.fid}")
        if frame.tier_name == dst_tier_name:
            return
        src = self._tier(frame.tier_name)
        dst = self._tier(dst_tier_name)
        if not dst.has_room(1):
            raise SimulationError(f"tier {dst_tier_name} full; migrate-evict first")
        src.release(1)
        dst.reserve(1)
        owner = frame.owner
        self.migration_count[(src.name, dst.name, owner)] += 1
        fid = frame.fid
        del self.live_frames[(src.name, owner)][fid]
        key = (dst.name, owner)
        view = self.live_frames.get(key)
        if view is None:
            view = self.live_frames[key] = {}
        view[fid] = frame
        frame.tier_name = dst_tier_name
        # Hotness state is per-residency: a just-promoted page must earn
        # its demotion age on the new tier from zero (and vice versa), not
        # inherit a stale streak/age from where it used to live.
        frame.lru_age = 0
        frame.scan_ref_streak = 0
        frame.record_migration()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _tier(self, name: str) -> MemoryTier:
        try:
            return self.tiers[name]
        except KeyError:
            raise SimulationError(f"unknown tier: {name!r}") from None

    def tier(self, name: str) -> MemoryTier:
        """Public tier lookup."""
        return self._tier(name)

    def live_pages(self, tier_name: Optional[str] = None) -> int:
        """Live frames on one tier, or on all of them; ``used_pages``
        counts a tier's live frames (:meth:`check_invariants`)."""
        if tier_name is None:
            return sum(tier.used_pages for tier in self.tiers.values())
        return self.tiers[tier_name].used_pages

    def kernel_pages_in(self, tier_name: str) -> int:
        """Live kernel-object pages on one tier: every owner but APP is
        kernel."""
        app = self.live_frames.get((tier_name, PageOwner.APP), ())
        return self._tier(tier_name).used_pages - len(app)

    def live_pages_by_owner(self, owner: PageOwner) -> int:
        return sum(
            len(view)
            for (_tier, own), view in self.live_frames.items()
            if own is owner
        )

    def allocated_pages_by_owner(self, owner: PageOwner) -> int:
        return sum(
            count for (tier, own), count in self.alloc_count.items() if own is owner
        )

    def total_allocated_pages(self) -> int:
        return sum(self.alloc_count.values())

    def migrations_between(self, src: str, dst: str) -> int:
        return sum(
            count
            for (s, d, _own), count in self.migration_count.items()
            if s == src and d == dst
        )

    def resident_frames_by_owner(
        self, tier_name: str, owner: PageOwner
    ) -> Dict[int, PageFrame]:
        """The live frames of one owner homed on one tier, as a fid-keyed
        dict in insertion order; callers that need fid order must sort.
        Empty (and not added to the index) when there are none."""
        self._tier(tier_name)  # raise on unknown tiers, like every query
        return self.live_frames.get((tier_name, owner), {})

    def iter_frames_by_owner(self, owner: PageOwner) -> Iterator[PageFrame]:
        """All live frames of one owner, across every tier."""
        for tier_name in self.tiers:
            yield from self.live_frames.get((tier_name, owner), {}).values()

    def drain_referenced(self) -> List[PageFrame]:
        """Frames touched (accessed or allocated) since the last drain.

        Clears the journal in place — the scan that drains it owns the
        window. Only live frames appear (frees drop their entry).
        """
        referenced = list(self._referenced.values())
        self._referenced.clear()
        return referenced

    def check_invariants(self) -> None:
        """Cross-check the live-frame index against the tier counters,
        each frame's own tier and owner, and the referenced journal."""
        per_tier = dict.fromkeys(self.tiers, 0)
        for (tier_name, owner), view in self.live_frames.items():
            if tier_name not in per_tier:
                raise SimulationError(f"live index names unknown tier {tier_name!r}")
            per_tier[tier_name] += len(view)
            for fid, frame in view.items():
                if (
                    frame.fid != fid
                    or frame.tier_name != tier_name
                    or frame.owner is not owner
                    or not frame.live
                ):
                    raise SimulationError(
                        f"live index ({tier_name}, {owner}) out of sync "
                        f"for frame {fid}"
                    )
        for name, tier in self.tiers.items():
            if per_tier[name] != tier.used_pages:
                raise SimulationError(
                    f"tier {name}: live index has {per_tier[name]} frames, "
                    f"counter says {tier.used_pages}"
                )
        for fid, frame in self._referenced.items():
            view = self.live_frames.get((frame.tier_name, frame.owner), {})
            if view.get(fid) is not frame:
                raise SimulationError(
                    f"referenced journal holds dead/unknown frame {fid}"
                )

    def __repr__(self) -> str:
        tiers = ", ".join(
            f"{t.name}:{t.used_pages}/{t.capacity_pages}" for t in self.tiers.values()
        )
        return f"MemoryTopology({tiers})"
