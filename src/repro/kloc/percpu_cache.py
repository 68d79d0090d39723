"""§4.3's per-CPU knode fast paths.

"We employ a well-known OS approach of creating a 'fast path' cache of
the kmap by implementing per-CPU linked-lists of associated knodes."
Each CPU keeps a bounded, recency-ordered list of knode ids; the same
knode may sit on several CPUs' lists, and :meth:`invalidate` is the
coherence hook Linux's per-CPU APIs give the real implementation. A
lookup that hits the CPU's list avoids the kmap rbtree entirely; the
paper measures a 54% reduction in rbtree-cache/rbtree-slab accesses.

``total_entries`` is maintained on every record, eviction and
invalidation, so metadata accounting is arithmetic instead of an
all-lists walk. A membership shadow maps each knode id to the CPUs
holding it, making :meth:`invalidate` and :meth:`find_cpu` O(holders)
instead of O(num_cpus).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.hotpath import hot
from repro.kloc.kmap import KMap
from repro.kloc.knode import Knode

#: Bytes of KLOC metadata per per-CPU list entry: id + age + links.
PERCPU_ENTRY_BYTES = 24


class PerCPUKnodeCache:
    """Bounded per-CPU LRU lists of knode ids in front of the kmap."""

    def __init__(self, kmap: KMap, num_cpus: int, max_per_cpu: int) -> None:
        if num_cpus <= 0:
            raise ValueError(f"need at least one CPU: {num_cpus}")
        if max_per_cpu <= 0:
            raise ValueError(f"lists must hold at least one entry: {max_per_cpu}")
        self.kmap = kmap
        self.num_cpus = num_cpus
        self.max_per_cpu = max_per_cpu
        self._lists: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(num_cpus)
        ]
        #: Entries across every CPU's list (a knode on two CPUs counts twice).
        self.total_entries = 0
        #: knode id → CPUs holding it (the membership shadow).
        self._where: Dict[int, Set[int]] = {}
        #: Bound id→knode shadow ``.get``: a hit already holds the knode
        #: pointer, so resolving it charges no rbtree access.
        self._kmap_get = kmap._by_id.get  # noqa: SLF001
        #: Lookups resolved without touching the kmap rbtree.
        self.fast_hits = 0
        self.slow_lookups = 0

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.num_cpus:
            raise IndexError(f"cpu {cpu} out of range [0, {self.num_cpus})")

    @hot
    def lookup(self, knode_id: int, *, cpu: int) -> Tuple[Optional[Knode], bool]:
        """Resolve a knode, fast path first; returns ``(knode, recorded)``.

        Only *misses* are charged as rbtree accesses, matching the
        paper's accounting, where the list entry holds the knode pointer
        directly. A hit refreshes the entry's recency; a miss that finds
        the knode records it on ``cpu``'s list, and ``recorded`` reports
        that, since it is the only outcome that can grow KLOC metadata.
        """
        if not 0 <= cpu < self.num_cpus:
            raise IndexError(f"cpu {cpu} out of range [0, {self.num_cpus})")
        lst = self._lists[cpu]
        if knode_id in lst:
            lst.move_to_end(knode_id)
            self.fast_hits += 1
            return self._kmap_get(knode_id), False
        self.slow_lookups += 1
        knode = self.kmap.lookup(knode_id)
        if knode is None:
            return None, False
        self.record(knode_id, cpu=cpu)
        return knode, True

    @hot
    def record(self, knode_id: int, *, cpu: int) -> Optional[int]:
        """Note that ``cpu`` touched the knode; returns any id evicted by
        the size cap (§4.3: "restricting their sizes ensures that they can
        be traversed fast")."""
        self._check_cpu(cpu)
        lst = self._lists[cpu]
        if knode_id not in lst:
            # The peak is sampled by the owner of metadata accounting
            # (KlocManager._note_metadata) after every record.
            # simlint: ok[counter-balance] peak sampled by KlocManager
            self.total_entries += 1
            holders = self._where.get(knode_id)
            if holders is None:
                self._where[knode_id] = {cpu}
            else:
                holders.add(cpu)
        lst[knode_id] = None
        lst.move_to_end(knode_id)
        if len(lst) > self.max_per_cpu:
            evicted, _ = lst.popitem(last=False)
            self.total_entries -= 1
            self._drop_holder(evicted, cpu)
            return evicted
        return None

    def _drop_holder(self, knode_id: int, cpu: int) -> None:
        holders = self._where.get(knode_id)
        if holders is not None:
            holders.discard(cpu)
            if not holders:
                del self._where[knode_id]

    def invalidate(self, knode_id: int) -> int:
        """Coherence: drop the knode from every CPU's list (deleted or
        marked inactive, §4.3). Returns the number of lists it was on."""
        holders = self._where.pop(knode_id, None)
        if not holders:
            return 0
        lists = self._lists
        # simlint: ok[hash-order] deletions commute; no ordered result
        for cpu in holders:
            del lists[cpu][knode_id]
        self.total_entries -= len(holders)
        return len(holders)

    def find_cpu(self, knode_id: int) -> Optional[int]:
        """Table 2's find_cpu(): the highest-numbered CPU whose list holds
        the knode, or None."""
        holders = self._where.get(knode_id)
        return max(holders) if holders else None

    def entries(self, cpu: int) -> List[int]:
        """Snapshot of one CPU's list, LRU → MRU order."""
        self._check_cpu(cpu)
        return list(self._lists[cpu])

    def recount(self) -> int:
        """Entries counted afresh from the lists (``total_entries``'s
        ground truth for the sanitizer)."""
        return sum(len(lst) for lst in self._lists)

    def rbtree_access_reduction(self) -> float:
        """Fraction of lookups absorbed by the fast path (§4.3's 54%)."""
        total = self.fast_hits + self.slow_lookups
        return self.fast_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"PerCPUKnodeCache(fast={self.fast_hits}, slow={self.slow_lookups}, "
            f"reduction={self.rbtree_access_reduction():.0%})"
        )
