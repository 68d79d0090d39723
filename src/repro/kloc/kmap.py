"""The global kmap: every knode in the system, keyed by knode id.

Figure 1: "All the KLOCs in the system are tracked using a kmap." §4.3
fronts it with the per-CPU lists. Its RCU ("multi-reader, single-writer")
protects a concurrency the single-threaded simulator does not have, so it
is not modelled. The paper's rbtree is an id-ordered dict here; a
counted :meth:`KMap.lookup` stands for one tree search, the denominator
of the 54%-reduction statistic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import SimulationError
from repro.kloc.knode import Knode


class KMap:
    """knode_id → Knode, plus LRU extraction for the migration daemon."""

    def __init__(self) -> None:
        # Insertion order is id order: add() only accepts increasing ids.
        self._by_id: Dict[int, Knode] = {}
        self.rbtree_accesses = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, knode_id: int) -> bool:
        return knode_id in self._by_id

    def add(self, knode: Knode) -> None:
        """Table 2's add_to_kmap()."""
        if self._by_id and knode.knode_id <= next(reversed(self._by_id)):
            raise SimulationError(f"knode {knode.knode_id} not above the kmap's ids")
        self._by_id[knode.knode_id] = knode

    def remove(self, knode_id: int) -> bool:
        return self._by_id.pop(knode_id, None) is not None

    def lookup(self, knode_id: int) -> Optional[Knode]:
        """rbtree search — the slow path the per-CPU lists short-circuit."""
        self.rbtree_accesses += 1
        return self._by_id.get(knode_id)

    def get_lru_knodes(
        self, limit: Optional[int] = None, *, cold_age: int = 0
    ) -> List[Knode]:
        """Table 2's get_LRU_knodes(): coldest knodes first.

        Closed (not inuse) knodes sort before open ones; within each
        class, older last-access first. ``cold_age`` filters open knodes
        that have not aged enough to be candidates.
        """
        candidates = [
            k
            for k in self._by_id.values()
            if not k.inuse or k.age >= cold_age
        ]
        candidates.sort(key=lambda k: (k.inuse, k.last_access))
        if limit is not None:
            candidates = candidates[:limit]
        return candidates

    def all_knodes(self) -> List[Knode]:
        return list(self._by_id.values())

    def __repr__(self) -> str:
        return f"KMap(knodes={len(self)}, rbtree_accesses={self.rbtree_accesses})"
