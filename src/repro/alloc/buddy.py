"""Page allocator (buddy-system front end).

Whole-page kernel allocations — page cache pages, journal buffers, packet
data buffers, driver rx rings — and application anonymous pages come from
here. Pages are mapped through page tables (not physically addressed), so
they are **relocatable** (§3.3: "vmalloc and page alloc allocations permit
kernel object relocation").

Order-based accounting is kept so fragmentation-style queries are
possible, but contiguity itself is not modeled — nothing in the paper's
experiments depends on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.core.sanitize import call_site
from repro.alloc.base import ALLOC_COSTS, TYPE_NAMES, AllocatorStats, KernelObject

from repro.mem.frame import PageFrame, PageOwner
from repro.mem.topology import MemoryTopology

#: Hoisted 'page' cost — read on every alloc/free.
_PAGE_COST = ALLOC_COSTS["page"]
_PAGE_FREE_COST = _PAGE_COST // 2


class PageAllocator:
    """alloc_pages()/__free_pages() plus a kernel-object wrapper."""

    relocatable = True
    family = "page"

    def __init__(self, topology: MemoryTopology, clock: Clock) -> None:
        self.topology = topology
        self.clock = clock
        self._san = topology.sanitizer
        self.stats = AllocatorStats()
        self._next_oid = 0
        #: Allocations by order (log2 pages), for fragmentation reports.
        self.order_histogram: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # raw frames (application pages, driver rings)
    # ------------------------------------------------------------------

    def alloc_frames(
        self,
        npages: int,
        tier_order: Sequence[str],
        owner: PageOwner,
        *,
        obj_type: Optional[str] = None,
        knode_id: Optional[int] = None,
    ) -> List[PageFrame]:
        """Allocate raw relocatable frames (e.g. anonymous app memory)."""
        frames = self.topology.allocate(
            npages,
            tier_order,
            owner,
            obj_type=obj_type,
            knode_id=knode_id,
            relocatable=True,
            now_ns=self.clock.now(),
        )
        order = max(0, (npages - 1).bit_length())
        self.order_histogram[order] = self.order_histogram.get(order, 0) + 1
        self.stats.pages_grabbed += npages
        cost = _PAGE_COST * npages
        self.clock.advance(cost)
        return frames

    def free_frames(self, frames: Sequence[PageFrame]) -> None:
        now = self.clock.now()
        for frame in frames:
            self.topology.free(frame, now)
        self.stats.pages_returned += len(frames)

    # ------------------------------------------------------------------
    # page-backed kernel objects (Table 1 PAGE-family types)
    # ------------------------------------------------------------------

    @hot
    def alloc_object(
        self,
        otype: KernelObjectType,
        tier_order: Sequence[str],
        knode_id: Optional[int] = None,
    ) -> KernelObject:
        """Allocate one page-backed kernel object owning its frame."""
        clock = self.clock
        now = clock.now()
        (frame,) = self.topology.allocate(
            1, tier_order, otype.owner, TYPE_NAMES[otype], knode_id, True, now
        )
        stats = self.stats
        stats.pages_grabbed += 1
        stats.allocs += 1
        oid = self._next_oid
        self._next_oid = oid + 1
        clock.advance(_PAGE_COST)
        return KernelObject(oid, otype, knode_id, frame, "page", now)

    @hot
    def free_object(self, obj: KernelObject) -> int:
        """Free one page-backed object; advances the clock by its CPU cost
        and returns it."""
        san = self._san
        if san is not None:
            san.on_object_free(obj, self.family, site=call_site(2))
        if obj.freed_at is not None:
            raise SimulationError(f"double free of {obj!r}")
        now = self.clock.now()
        obj.freed_at = now
        self.topology.free(obj.frame, now)
        stats = self.stats
        stats.frees += 1
        stats.pages_returned += 1
        stats.lifetimes.record(obj.otype, now - obj.allocated_at)
        if san is not None:
            san.poison_object(obj)
        self.clock.advance(_PAGE_FREE_COST)
        return _PAGE_FREE_COST

    def __repr__(self) -> str:
        live = self.stats.pages_grabbed - self.stats.pages_returned
        return f"PageAllocator(live_pages={live})"
