"""§4.3's per-CPU knode fast paths.

"We employ a well-known OS approach of creating a 'fast path' cache of
the kmap by implementing per-CPU linked-lists of associated knodes."
A lookup that hits the CPU's list avoids the kmap rbtree entirely; the
paper measures a 54% reduction in rbtree-cache/rbtree-slab accesses.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hotpath import hot, hotpath_enabled
from repro.ds.percpu import PerCPUListSet
from repro.kloc.kmap import KMap
from repro.kloc.knode import Knode


class PerCPUKnodeCache:
    """Bounded per-CPU lists of knode ids in front of the kmap."""

    def __init__(self, kmap: KMap, num_cpus: int, max_per_cpu: int) -> None:
        self.kmap = kmap
        self.lists: PerCPUListSet[int] = PerCPUListSet(num_cpus, max_per_cpu)
        self._hot = hotpath_enabled()
        #: Bound id→knode shadow ``.get`` — hit-path pointer resolution
        #: without the :meth:`KMap.get_uncounted` call (same result, no
        #: counters either way).
        self._kmap_get = kmap._by_id.get  # noqa: SLF001
        #: Lookups resolved without touching the kmap rbtree.
        self.fast_hits = 0
        self.slow_lookups = 0

    @hot
    def lookup(self, knode_id: int, *, cpu: int) -> Optional[Knode]:
        """Resolve a knode, fast path first.

        A per-CPU hit still needs the Knode object; the simulator fetches
        it via :meth:`KMap.get_uncounted` — only *misses* are charged as
        rbtree accesses, matching the paper's accounting, where the list
        entry holds the knode pointer directly.

        The hot path inlines :meth:`PerCPUListSet.lookup`'s hit sequence
        (deliberate friend access — same membership test, recency refresh,
        and hit counter); ``REPRO_NO_HOTPATH=1`` keeps the layered calls.
        """
        lists = self.lists
        if self._hot:
            if not 0 <= cpu < lists.num_cpus:
                raise IndexError(
                    f"cpu {cpu} out of range [0, {lists.num_cpus})"
                )
            lst = lists._lists[cpu]  # noqa: SLF001 - hot-path friend access
            if knode_id in lst:
                lst.move_to_end(knode_id)
                lists.hits += 1
                self.fast_hits += 1
                return self._kmap_get(knode_id)
            lists.misses += 1
        elif lists.lookup(cpu, knode_id):
            self.fast_hits += 1
            return self.kmap.get_uncounted(knode_id)
        self.slow_lookups += 1
        knode = self.kmap.lookup(knode_id)
        if knode is not None:
            lists.record(cpu, knode_id)
        return knode

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

    def metadata_bytes(self) -> int:
        """Per-CPU list entries: id + age + links ≈ 24B per entry.

        ``PerCPUListSet.total_entries`` is maintained incrementally, so
        the hot path is pure arithmetic; ``REPRO_NO_HOTPATH=1`` restores
        the every-list walk (same value, O(entries) cost).
        """
        if self._hot:
            return self.lists.total_entries * 24
        return sum(len(self.lists.entries(c)) for c in range(self.lists.num_cpus)) * 24

    def __repr__(self) -> str:
        return (
            f"PerCPUKnodeCache(fast={self.fast_hits}, slow={self.slow_lookups}, "
            f"reduction={self.rbtree_access_reduction():.0%})"
        )
