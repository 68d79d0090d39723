"""Slab allocator: kmem_cache-style object packing on physical pages.

The defining constraint (§3.3): slab allocations "use only contiguous
physical pages, do not require manipulation of page tables during
allocation and release, and **cannot be relocated**. However, they are
allocated quickly." Pages created here are marked non-relocatable; any
attempt to migrate them is skipped (or rejected) by the migration engine.

Slab pages are shared by objects of the same cache regardless of which
file/socket they belong to — the physical-address aliasing that makes
wholesale slab migration "a complex endeavor" (§4.4) and motivates the
KLOC allocation interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.core.sanitize import call_site
from repro.core.units import PAGE_SIZE
from repro.alloc.base import ALLOC_COSTS, TYPE_NAMES, AllocatorStats, KernelObject

from repro.mem.frame import PageFrame
from repro.mem.topology import MemoryTopology

#: Hoisted 'slab' cost — read on every alloc/free.
_SLAB_COST = ALLOC_COSTS["slab"]
_SLAB_FREE_COST = _SLAB_COST // 2


class _SlabPage:
    """One page of a kmem_cache: a bitmap of object slots."""

    __slots__ = ("frame", "capacity", "live")

    def __init__(self, frame: PageFrame, capacity: int) -> None:
        self.frame = frame
        self.capacity = capacity
        self.live: Set[int] = set()  # object ids resident on this page


class _KmemCache:
    """Per-object-type cache: partial and full slab page lists."""

    def __init__(self, otype: KernelObjectType) -> None:
        self.otype = otype
        self.objs_per_page = max(1, PAGE_SIZE // otype.size_bytes)
        self.partial: List[_SlabPage] = []
        self.full: List[_SlabPage] = []


class SlabAllocator:
    """kmalloc / kmem_cache_alloc for Table 1's small kernel objects."""

    #: Pages marked this way can never migrate.
    relocatable = False
    family = "slab"

    def __init__(self, topology: MemoryTopology, clock: Clock) -> None:
        self.topology = topology
        self.clock = clock
        self._san = topology.sanitizer
        self.stats = AllocatorStats()
        self._caches: Dict[KernelObjectType, _KmemCache] = {}
        self._next_oid = 0
        self._page_of: Dict[int, _SlabPage] = {}  # oid -> slab page

    def _cache(self, otype: KernelObjectType) -> _KmemCache:
        cache = self._caches.get(otype)
        if cache is None:
            cache = _KmemCache(otype)
            self._caches[otype] = cache
        return cache

    @hot
    def alloc(
        self,
        otype: KernelObjectType,
        tier_order: Sequence[str],
        knode_id: Optional[int] = None,
    ) -> KernelObject:
        """Allocate one object; grabs a fresh slab page on demand.

        ``tier_order`` decides where a *new* slab page lands; objects
        placed into an existing partial page inherit that page's tier —
        exactly the aliasing that defeats per-object placement for slabs.
        """
        cache = self._caches.get(otype)
        if cache is None:
            cache = self._cache(otype)
        now = self.clock.now()
        partial = cache.partial
        if partial:
            page = partial[-1]
        else:
            (frame,) = self.topology.allocate(
                1, tier_order, otype.owner, TYPE_NAMES[otype], knode_id, False, now
            )
            page = _SlabPage(frame, cache.objs_per_page)
            partial.append(page)
            self.stats.pages_grabbed += 1

        oid = self._next_oid
        self._next_oid = oid + 1
        live = page.live
        live.add(oid)
        self._page_of[oid] = page
        if len(live) >= page.capacity:
            partial.remove(page)
            cache.full.append(page)

        stats = self.stats
        stats.allocs += 1
        self.clock.advance(_SLAB_COST)
        return KernelObject(oid, otype, knode_id, page.frame, "slab", now)

    @hot
    def free(self, obj: KernelObject) -> int:
        """Release an object; empty slab pages return to the page pool.
        Advances the clock by the free's CPU cost and returns it."""
        san = self._san
        if san is not None:
            san.on_object_free(obj, self.family, site=call_site(2))
        if obj.freed_at is not None:
            raise SimulationError(f"double free of {obj!r}")
        page = self._page_of.pop(obj.oid, None)
        if page is None:
            raise SimulationError(f"{obj!r} was not allocated here")
        now = self.clock.now()
        obj.freed_at = now
        live = page.live
        cache = self._caches[obj.otype]
        # A page sits on the full list exactly while every slot is taken.
        if len(live) >= page.capacity:
            cache.full.remove(page)
            cache.partial.append(page)
        live.discard(obj.oid)
        stats = self.stats
        if not live:
            cache.partial.remove(page)
            self.topology.free(page.frame, now)
            stats.pages_returned += 1

        stats.frees += 1
        stats.lifetimes.record(obj.otype, now - obj.allocated_at)
        if san is not None:
            san.poison_object(obj)
        self.clock.advance(_SLAB_FREE_COST)
        return _SLAB_FREE_COST

    def live_pages(self) -> int:
        return self.stats.pages_grabbed - self.stats.pages_returned

    def cache_pages(self, otype: KernelObjectType) -> List[PageFrame]:
        """All live slab pages of one cache (for footprint accounting)."""
        cache = self._cache(otype)
        return [p.frame for p in cache.partial + cache.full]

    def __repr__(self) -> str:
        return (
            f"SlabAllocator(objects={self.stats.live_objects}, "
            f"pages={self.live_pages()})"
        )
