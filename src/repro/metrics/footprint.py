"""Footprint attribution: pages by owner category (Figures 2a/2b).

The paper reports *cumulative allocations* ("Pages are allocated and
released frequently; hence the total allocations can be greater than
available memory"), so both cumulative and live views are captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.mem.frame import PageOwner
from repro.mem.topology import MemoryTopology


@dataclass
class FootprintSnapshot:
    """Pages by owner, cumulative and live, with Fig 2a/2b percentages."""

    allocated: Dict[PageOwner, int] = field(default_factory=dict)
    live: Dict[PageOwner, int] = field(default_factory=dict)

    @property
    def total_allocated(self) -> int:
        return sum(self.allocated.values())

    @property
    def kernel_allocated(self) -> int:
        return sum(n for o, n in self.allocated.items() if o.is_kernel)

    @property
    def app_allocated(self) -> int:
        return self.allocated.get(PageOwner.APP, 0)

    def kernel_fraction(self) -> float:
        """Fig 2a/2b: fraction of page allocations that are kernel objects."""
        total = self.total_allocated
        return self.kernel_allocated / total if total else 0.0

    def fraction(self, owner: PageOwner) -> float:
        total = self.total_allocated
        return self.allocated.get(owner, 0) / total if total else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Owner → fraction of cumulative allocations (Fig 2a's stack)."""
        return {owner.value: self.fraction(owner) for owner in PageOwner}


def footprint_snapshot(topology: MemoryTopology) -> FootprintSnapshot:
    """Capture the current footprint attribution from a topology."""
    snap = FootprintSnapshot()
    for (tier, owner), count in topology.alloc_count.items():
        snap.allocated[owner] = snap.allocated.get(owner, 0) + count
    for (tier, owner), view in topology.live_frames.items():
        snap.live[owner] = snap.live.get(owner, 0) + len(view)
    return snap
