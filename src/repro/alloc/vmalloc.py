"""vmalloc: virtually contiguous multi-page kernel areas.

Used for large kernel buffers (hash tables, rings). Relocatable — pages
are reached through the kernel page table — but allocation is slow: every
page needs a PTE installed (§3.3 contrasts this with slab speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.core.sanitize import call_site
from repro.core.units import PAGE_SIZE, pages_for
from repro.alloc.base import ALLOC_COSTS, AllocatorStats
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.topology import MemoryTopology


@dataclass
class VmallocArea:
    """One virtually contiguous area and its backing frames."""

    area_id: int
    nbytes: int
    frames: List[PageFrame]
    allocated_at: int
    freed_at: int = -1

    @property
    def live(self) -> bool:
        return self.freed_at < 0

    @property
    def npages(self) -> int:
        return len(self.frames)


class VmallocAllocator:
    """vmalloc()/vfree() with per-page mapping cost."""

    relocatable = True
    family = "vmalloc"

    def __init__(self, topology: MemoryTopology, clock: Clock) -> None:
        self.topology = topology
        self.clock = clock
        self._san = topology.sanitizer
        self.stats = AllocatorStats()
        self._next_area = 0
        self._areas: Dict[int, VmallocArea] = {}

    def alloc(
        self,
        nbytes: int,
        tier_order: Sequence[str],
        *,
        owner: PageOwner = PageOwner.SLAB,
        obj_type: str = "vmalloc",
    ) -> VmallocArea:
        """Allocate a virtually contiguous area of ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"vmalloc size must be positive: {nbytes}")
        npages = pages_for(nbytes)
        now = self.clock.now()
        frames = self.topology.allocate(
            npages,
            tier_order,
            owner,
            obj_type=obj_type,
            relocatable=True,
            now_ns=now,
        )
        area = VmallocArea(self._next_area, nbytes, frames, now)
        self._next_area += 1
        self._areas[area.area_id] = area
        cost = ALLOC_COSTS["vmalloc"] * npages
        self.stats.allocs += 1
        self.stats.pages_grabbed += npages
        self.stats.cpu_cost_ns += cost
        self.clock.advance(cost)
        return area

    def free(self, area: VmallocArea) -> None:
        if self._san is not None:
            self._san.on_area_free(area, site=call_site(2))
        if not area.live:
            raise SimulationError(f"double vfree of area {area.area_id}")
        if area.area_id not in self._areas:
            raise SimulationError(f"area {area.area_id} was not allocated here")
        now = self.clock.now()
        area.freed_at = now
        del self._areas[area.area_id]
        for frame in area.frames:
            self.topology.free(frame, now)
        self.stats.frees += 1
        self.stats.pages_returned += area.npages
        self.clock.advance(ALLOC_COSTS["vmalloc"] * area.npages // 4)

    def live_bytes(self) -> int:
        return sum(a.npages * PAGE_SIZE for a in self._areas.values())

    def __repr__(self) -> str:
        return f"VmallocAllocator(areas={len(self._areas)})"
