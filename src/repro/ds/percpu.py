"""Per-CPU lists with coherence, modeling §4.3's knode fast paths.

Each CPU keeps a bounded, recency-ordered list of knode references — "a
software cache of the bigger kmap structure". The same knode may appear
on several CPUs' lists; :meth:`invalidate` provides the coherence hook
Linux's per-CPU APIs give the real implementation. The lookup itself
lives in :class:`repro.kloc.percpu_cache.PerCPUKnodeCache`, whose hit
counters feed the §4.3 claim that per-CPU lists absorb 54% of rbtree
accesses.

``total_entries`` is maintained incrementally on every record/eviction/
invalidate so metadata accounting is pure arithmetic instead of an
all-lists walk. A membership shadow maps each item to the set of CPUs
holding it, making :meth:`invalidate` and :meth:`find_cpus` O(holders)
instead of O(num_cpus).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, List, Optional, Set, TypeVar

from repro.core.hotpath import hot

T = TypeVar("T")


class PerCPUListSet(Generic[T]):
    """One bounded LRU list per CPU, with cross-CPU invalidation."""

    def __init__(self, num_cpus: int, max_per_cpu: int) -> None:
        if num_cpus <= 0:
            raise ValueError(f"need at least one CPU: {num_cpus}")
        if max_per_cpu <= 0:
            raise ValueError(f"lists must hold at least one entry: {max_per_cpu}")
        self.num_cpus = num_cpus
        self.max_per_cpu = max_per_cpu
        self._lists: List["OrderedDict[T, None]"] = [
            OrderedDict() for _ in range(num_cpus)
        ]
        #: Live count of entries across every CPU's list, maintained on
        #: record / eviction / invalidate — O(1) metadata accounting.
        self.total_entries = 0
        #: item → CPUs holding it (the membership shadow).
        self._where: Dict[T, Set[int]] = {}
        self.invalidations = 0

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.num_cpus:
            raise IndexError(f"cpu {cpu} out of range [0, {self.num_cpus})")

    @hot
    def record(self, cpu: int, item: T) -> Optional[T]:
        """Note that ``cpu`` touched ``item``; returns any entry evicted by
        the size cap (§4.3: "restricting their sizes ensures that they can
        be traversed fast")."""
        self._check_cpu(cpu)
        lst = self._lists[cpu]
        if item not in lst:
            # The peak is sampled by the owner of metadata accounting
            # (KlocManager._note_metadata) after every record; this
            # container does not know the byte weights.
            # simlint: ok[counter-balance] peak sampled by KlocManager
            self.total_entries += 1
            holders = self._where.get(item)
            if holders is None:
                self._where[item] = {cpu}
            else:
                holders.add(cpu)
        lst[item] = None
        lst.move_to_end(item)
        if len(lst) > self.max_per_cpu:
            evicted, _ = lst.popitem(last=False)
            self.total_entries -= 1
            self._drop_holder(evicted, cpu)
            return evicted
        return None

    def _drop_holder(self, item: T, cpu: int) -> None:
        holders = self._where.get(item)
        if holders is not None:
            holders.discard(cpu)
            if not holders:
                del self._where[item]

    def invalidate(self, item: T) -> int:
        """Coherence: drop ``item`` from every CPU's list (knode deleted or
        marked inactive). Returns the number of lists it was on."""
        holders = self._where.pop(item, None)
        if not holders:
            return 0
        lists = self._lists
        # simlint: ok[hash-order] deletions commute; no ordered result
        for cpu in holders:
            del lists[cpu][item]
        dropped = len(holders)
        self.total_entries -= dropped
        self.invalidations += 1
        return dropped

    def entries(self, cpu: int) -> List[T]:
        """Snapshot of one CPU's list, LRU → MRU order."""
        self._check_cpu(cpu)
        return list(self._lists[cpu])

    def all_entries(self) -> List[T]:
        """Union of all CPUs' lists (deduplicated, arbitrary order)."""
        seen = set()
        out: List[T] = []
        for lst in self._lists:
            for item in lst:
                if item not in seen:
                    seen.add(item)
                    out.append(item)
        return out

    def find_cpus(self, item: T) -> List[int]:
        """CPUs whose list holds ``item`` — backs Table 2's find_cpu().

        Always ascending CPU order."""
        holders = self._where.get(item)
        return sorted(holders) if holders else []

    def __repr__(self) -> str:
        sizes = [len(lst) for lst in self._lists]
        return f"PerCPUListSet(cpus={self.num_cpus}, sizes={sizes})"
