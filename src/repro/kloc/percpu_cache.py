"""§4.3's per-CPU knode fast paths.

"We employ a well-known OS approach of creating a 'fast path' cache of
the kmap by implementing per-CPU linked-lists of associated knodes."
A lookup that hits the CPU's list avoids the kmap rbtree entirely; the
paper measures a 54% reduction in rbtree-cache/rbtree-slab accesses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.hotpath import hot
from repro.ds.percpu import PerCPUListSet
from repro.kloc.kmap import KMap
from repro.kloc.knode import Knode

#: Bytes of KLOC metadata per per-CPU list entry: id + age + links.
PERCPU_ENTRY_BYTES = 24


class PerCPUKnodeCache:
    """Bounded per-CPU lists of knode ids in front of the kmap."""

    def __init__(self, kmap: KMap, num_cpus: int, max_per_cpu: int) -> None:
        self.kmap = kmap
        self.lists: PerCPUListSet[int] = PerCPUListSet(num_cpus, max_per_cpu)
        #: Bound id→knode shadow ``.get`` — hit-path pointer resolution
        #: without the :meth:`KMap.get_uncounted` call (same result, no
        #: counters either way).
        self._kmap_get = kmap._by_id.get  # noqa: SLF001
        #: Lookups resolved without touching the kmap rbtree.
        self.fast_hits = 0
        self.slow_lookups = 0

    @hot
    def lookup(self, knode_id: int, *, cpu: int) -> Tuple[Optional[Knode], bool]:
        """Resolve a knode, fast path first; returns ``(knode, recorded)``.

        A per-CPU hit still needs the Knode object; the simulator fetches
        it from the kmap's id shadow — only *misses* are charged as rbtree
        accesses, matching the paper's accounting, where the list entry
        holds the knode pointer directly. A miss that finds the knode
        records it on ``cpu``'s list; ``recorded`` reports that, since it
        is the only outcome that can grow KLOC metadata. A hit refreshes
        the entry's recency on the CPU's list (friend access to
        :class:`PerCPUListSet`'s lists).
        """
        lists = self.lists
        if not 0 <= cpu < lists.num_cpus:
            raise IndexError(f"cpu {cpu} out of range [0, {lists.num_cpus})")
        lst = lists._lists[cpu]  # noqa: SLF001 - hot-path friend access
        if knode_id in lst:
            lst.move_to_end(knode_id)
            self.fast_hits += 1
            return self._kmap_get(knode_id), False
        self.slow_lookups += 1
        knode = self.kmap.lookup(knode_id)
        if knode is None:
            return None, False
        lists.record(cpu, knode_id)
        return knode, True

    def note_access(self, knode: Knode, *, cpu: int) -> None:
        """Record that ``cpu`` touched ``knode`` (refreshes its list slot)."""
        self.lists.record(cpu, knode.knode_id)

    def invalidate(self, knode_id: int) -> int:
        """Coherence: the knode was deleted or marked inactive (§4.3)."""
        return self.lists.invalidate(knode_id)

    def find_cpu(self, knode_id: int) -> Optional[int]:
        """Table 2's find_cpu(): a CPU that recently touched the knode."""
        cpus = self.lists.find_cpus(knode_id)
        return cpus[-1] if cpus else None

    def rbtree_access_reduction(self) -> float:
        """Fraction of lookups absorbed by the fast path (§4.3's 54%)."""
        total = self.fast_hits + self.slow_lookups
        return self.fast_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"PerCPUKnodeCache(fast={self.fast_hits}, slow={self.slow_lookups}, "
            f"reduction={self.rbtree_access_reduction():.0%})"
        )
