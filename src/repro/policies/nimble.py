"""Nimble and Nimble++ (Table 5).

*Nimble* (Yan et al., ASPLOS'19) tiers **application pages**: scan-based
hotness detection plus parallelized page copy. Like all the prior work
§3.2 surveys, it "allocates kernel objects entirely in slow memory" on
two-tier systems, and never migrates them.

*Nimble++* is the paper's strawman extension: the same scan machinery
also covers kernel objects, with fast-first allocation — but without the
KLOC abstraction. Its two structural handicaps (§6.2):

1. Hotness detection latency ≫ kernel object lifetime, so cold kernel
   objects linger in fast memory and hot ones die before promotion —
   "once kernel objects are evicted to slow memory, they rarely return".
2. Slab-family objects stay physically addressed (no KLOC allocation
   interface), so the scanner can classify them but never move them.
"""

from __future__ import annotations

from typing import List

from repro.mem.frame import PageOwner
from repro.policies.base import TieringPolicy
from repro.policies.lru_engine import LRUScanEngine

_APP_ONLY = frozenset({PageOwner.APP})


class NimblePolicy(TieringPolicy):
    """Application-page tiering only; kernel objects live in slow memory."""

    name = "nimble"

    def __init__(self) -> None:
        super().__init__()
        self.lru: LRUScanEngine = None  # type: ignore[assignment]

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.lru = LRUScanEngine(
            kernel,
            spec=kernel.platform.lru,
            promote_owners=_APP_ONLY,
            demote_owners=_APP_ONLY,
        )

    def start_daemons(self) -> None:
        self.lru.start()

    def tier_order_app(self, *, cpu: int = 0) -> List[str]:
        return ["fast", "slow"]

    def tier_order_kernel(self, otype, inode, *, covered: bool, cpu: int = 0) -> List[str]:
        # Prior art places kernel objects wholly in slow memory (§3.2).
        return ["slow", "fast"]


class NimblePlusPlusPolicy(TieringPolicy):
    """Nimble's scans extended to kernel objects, sans KLOC abstraction."""

    name = "nimble++"
    migrates_kernel_objects = True

    def __init__(self) -> None:
        super().__init__()
        self.lru: LRUScanEngine = None  # type: ignore[assignment]

    def attach(self, kernel) -> None:
        super().attach(kernel)
        # None → the scanner walks application AND kernel pages.
        # Non-relocatable slab frames are classified but skipped by the
        # migration engine, mirroring reality.
        self.lru = LRUScanEngine(
            kernel, spec=kernel.platform.lru, promote_owners=None, demote_owners=None
        )

    def start_daemons(self) -> None:
        self.lru.start()

    def tier_order_app(self, *, cpu: int = 0) -> List[str]:
        return ["fast", "slow"]

    def tier_order_kernel(self, otype, inode, *, covered: bool, cpu: int = 0) -> List[str]:
        # Kernel objects may start in fast memory...
        return ["fast", "slow"]
