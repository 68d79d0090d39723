"""Shared allocator machinery: the kernel-object handle and cost model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.objtypes import KernelObjectType
from repro.core.units import NS
from repro.mem.frame import PageFrame

#: Allocation-path CPU costs (ns per allocation). Slab is the fastest;
#: the KLOC interface is "slab-like" with a small premium for the VMA
#: bookkeeping that makes its pages relocatable (§4.2.2 prioritizes
#: allocation speed; §4.4 describes the interface).
ALLOC_COSTS = {
    "slab": 90 * NS,
    "page": 180 * NS,
    "kloc": 140 * NS,
}

#: Frame ``obj_type`` label per type: a dict read instead of the enum's
#: ``name`` property each time an allocation grabs a page.
TYPE_NAMES = {otype: otype.name for otype in KernelObjectType}


@dataclass(slots=True)
class KernelObject:
    """A live kernel object: Table 1 type + the page backing it.

    Sub-page (slab-family) objects share their backing frame with other
    objects from the same cache; page-backed objects own their frame.
    Slotted: tens of thousands are created per run and their fields are
    read on every charge.
    """

    oid: int
    otype: KernelObjectType
    knode_id: Optional[int]
    frame: PageFrame
    allocator: str
    allocated_at: int
    freed_at: Optional[int] = None

    @property
    def live(self) -> bool:
        return self.freed_at is None

    @property
    def size_bytes(self) -> int:
        return self.otype.size_bytes

    @property
    def relocatable(self) -> bool:
        return self.frame.relocatable

    def lifetime_ns(self, now_ns: int) -> int:
        end = self.freed_at if self.freed_at is not None else now_ns
        return end - self.allocated_at

    def __repr__(self) -> str:
        state = "live" if self.live else "freed"
        return f"KernelObject(#{self.oid} {self.otype.name} knode={self.knode_id} {state})"


class LifetimeLedger:
    """Streaming per-type lifetime statistics (feeds Fig 2d)."""

    def __init__(self) -> None:
        self._sum: Dict[KernelObjectType, int] = {}
        self._count: Dict[KernelObjectType, int] = {}

    def record(self, otype: KernelObjectType, lifetime_ns: int) -> None:
        self._sum[otype] = self._sum.get(otype, 0) + lifetime_ns
        self._count[otype] = self._count.get(otype, 0) + 1

    def mean_ns(self, otype: KernelObjectType) -> Optional[float]:
        count = self._count.get(otype)
        if not count:
            return None
        return self._sum[otype] / count

    def count(self, otype: KernelObjectType) -> int:
        return self._count.get(otype, 0)

    def as_rows(self) -> List[Tuple[str, int, float]]:
        return [
            (otype.name, self._count[otype], self._sum[otype] / self._count[otype])
            for otype in self._count
        ]


@dataclass
class AllocatorStats:
    """Counters every allocator family maintains."""

    allocs: int = 0
    frees: int = 0
    pages_grabbed: int = 0
    pages_returned: int = 0
    lifetimes: LifetimeLedger = field(default_factory=LifetimeLedger)

    @property
    def live_objects(self) -> int:
        return self.allocs - self.frees
