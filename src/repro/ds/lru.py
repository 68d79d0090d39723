"""Linux-style two-list (active/inactive) LRU.

§4.5: "Modern LRU policies track active pages and inactive pages via
separate lists. Ideally, as pages become inactive, they would be migrated
to slow memory, and as they become active, they are migrated to fast
memory." This structure is what the LRU engine and the Nimble policies
scan; KLOCs short-circuit it for kernel objects.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, List, TypeVar

T = TypeVar("T")


class ActiveInactiveLRU(Generic[T]):
    """Two ordered sets with Linux's promotion/demotion flow.

    Items enter the *inactive* list (Linux puts new page-cache pages
    there); a second access promotes to *active*; balancing demotes the
    coldest active items back when the active list outgrows the target
    ratio. Eviction candidates come from the inactive tail.
    """

    def __init__(self, active_ratio: float = 0.5) -> None:
        if not 0.0 < active_ratio < 1.0:
            raise ValueError(f"active_ratio must be in (0,1): {active_ratio}")
        self._active: "OrderedDict[T, None]" = OrderedDict()
        self._inactive: "OrderedDict[T, None]" = OrderedDict()
        self._active_ratio = active_ratio
        self.promotions = 0
        self.demotions = 0

    def __len__(self) -> int:
        return len(self._active) + len(self._inactive)

    def __contains__(self, item: T) -> bool:
        return item in self._active or item in self._inactive

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def inactive_count(self) -> int:
        return len(self._inactive)

    def insert(self, item: T) -> None:
        """Add a new item at the inactive head (a listed one is touched)."""
        if item in self._active or item in self._inactive:
            self.touch(item)
            return
        self._inactive[item] = None

    def touch(self, item: T) -> None:
        """Record a reference: inactive → active, active → MRU position,
        unlisted → inserted. A promotion demotes the coldest active items
        while the active list holds over ``active_ratio`` of all (min 1)."""
        active = self._active
        if item in active:
            active.move_to_end(item)
            return
        inactive = self._inactive
        if item not in inactive:
            inactive[item] = None
            return
        del inactive[item]
        active[item] = None
        self.promotions += 1
        floor = (len(active) + len(inactive)) * self._active_ratio
        if floor < 1.0:
            floor = 1.0
        while len(active) > floor:
            demoted, _ = active.popitem(last=False)
            inactive[demoted] = None
            self.demotions += 1

    def remove(self, item: T) -> bool:
        """Drop an item entirely (it was freed); returns False if absent."""
        if item in self._active:
            del self._active[item]
            return True
        if item in self._inactive:
            del self._inactive[item]
            return True
        return False

    def is_active(self, item: T) -> bool:
        return item in self._active

    def eviction_candidates(self, n: int) -> List[T]:
        """The ``n`` coldest items (inactive tail first, then active tail)."""
        out: List[T] = []
        for item in self._inactive:
            if len(out) >= n:
                return out
            out.append(item)
        for item in self._active:
            if len(out) >= n:
                break
            out.append(item)
        return out

    def __repr__(self) -> str:
        return (
            f"ActiveInactiveLRU(active={len(self._active)}, "
            f"inactive={len(self._inactive)})"
        )
