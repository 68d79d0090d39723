"""Page frames and their ownership taxonomy.

Every 4KB page in the simulator is a :class:`PageFrame` tagged with a
:class:`PageOwner` category. The categories follow Figure 2a's breakdown
(application pages vs page cache vs slab vs socket buffers ...) so the
motivation experiments can attribute footprint and references exactly.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.hotpath import hot
from repro.core.units import PAGE_SIZE


class PageOwner(enum.Enum):
    """Who a physical page belongs to (Figure 2a's attribution buckets)."""

    APP = "app"
    PAGE_CACHE = "page_cache"
    SLAB = "slab"
    JOURNAL = "journal"
    SOCKBUF = "sockbuf"
    BLOCK_IO = "block_io"
    KLOC_META = "kloc_meta"

    # Identity hash: members are singletons, so id() is a valid hash and
    # skips Enum's per-call name hashing on the access-accounting hot path
    # (PageOwner keys ~1M counter-dict lookups per run).
    __hash__ = object.__hash__

    @property
    def is_kernel(self) -> bool:
        """True for every category except application pages."""
        return self is not PageOwner.APP


#: Migration counter saturates at 255 — the paper uses 8-bit per-page
#: counters to detect ping-ponging pages and retain them in fast memory
#: (§4.5 "Updating LRU and AutoNUMA").
MIGRATE_COUNTER_MAX = 255


class PageFrame:
    """One 4KB physical page and its bookkeeping.

    ``relocatable`` encodes the paper's central mechanical constraint:
    slab-allocated pages are referenced by physical address and cannot be
    migrated (§3.3); pages from the buddy/KLOC allocation interface
    can be.
    """

    __slots__ = (
        "fid",
        "tier_name",
        "owner",
        "obj_type",
        "knode_id",
        "relocatable",
        "dirty",
        "pinned_fast",
        "allocated_at",
        "freed_at",
        "last_access",
        "migrations",
        "lru_age",
        "scan_ref_streak",
        "scan_ref_round",
        "journal",
        "compound_id",
    )

    def __init__(
        self,
        fid: int,
        tier_name: str,
        owner: PageOwner,
        obj_type: Optional[str] = None,
        knode_id: Optional[int] = None,
        relocatable: bool = True,
        allocated_at: int = 0,
    ) -> None:
        self.fid = fid
        self.tier_name = tier_name
        self.owner = owner
        self.obj_type = obj_type
        self.knode_id = knode_id
        self.relocatable = relocatable
        self.dirty = False
        self.pinned_fast = False
        self.allocated_at = allocated_at
        self.freed_at: Optional[int] = None
        self.last_access = allocated_at
        self.migrations = 0
        self.lru_age = 0
        #: Consecutive scan windows in which this page was referenced —
        #: Linux's two-touch activation rule for promotion.
        self.scan_ref_streak = 0
        #: Scan round at which ``scan_ref_streak`` was last counted; lets
        #: the indexed scanner update streaks lazily (only when a frame is
        #: actually referenced) instead of resetting every slow frame.
        self.scan_ref_round = 0
        #: Referenced-since-last-scan journal (owned by the topology).
        #: Every ``record_access`` enrolls the frame, so promotion scans
        #: can consider only frames actually touched in the window.
        self.journal: Optional[dict] = None
        #: Transparent-huge-page membership: frames sharing a compound id
        #: form one 2MB THP and age/migrate as a unit (§5's future-work
        #: extension). None = ordinary 4KB page.
        self.compound_id: Optional[int] = None

    @property
    def live(self) -> bool:
        return self.freed_at is None

    @property
    def size_bytes(self) -> int:
        return PAGE_SIZE

    @hot
    def record_access(self, now_ns: int, *, write: bool) -> None:
        """Update access bookkeeping; resets the LRU age (the page is hot).

        Also enrolls the frame in the topology's referenced journal —
        any access path that should count toward scan-based promotion
        MUST come through here (the kernel's charged-access paths do).
        """
        self.last_access = now_ns
        self.lru_age = 0
        journal = self.journal
        if journal is not None:
            journal[self.fid] = self
        if write:
            self.dirty = True

    def record_migration(self) -> None:
        """Bump the saturating 8-bit migration counter (§4.5)."""
        if self.migrations < MIGRATE_COUNTER_MAX:
            self.migrations += 1

    def lifetime_ns(self, now_ns: int) -> int:
        """Time from allocation to free (or to ``now_ns`` if still live)."""
        end = self.freed_at if self.freed_at is not None else now_ns
        return end - self.allocated_at

    def __repr__(self) -> str:
        state = "live" if self.live else "freed"
        return (
            f"PageFrame(fid={self.fid}, tier={self.tier_name}, "
            f"owner={self.owner.value}, {state})"
        )
