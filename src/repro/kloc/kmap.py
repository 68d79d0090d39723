"""The global kmap: every knode in the system, in one RCU red-black tree.

Figure 1: "All the KLOCs in the system are tracked using a kmap." §4.3
protects it with RCU ("multi-reader, single-writer") and fronts it with
the per-CPU lists; the rbtree access counters here are the denominator of
the 54%-reduction statistic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import SimulationError
from repro.ds.rbtree import RedBlackTree
from repro.ds.rcu import RCUDomain
from repro.kloc.knode import Knode


class KMap:
    """knode_id → Knode, plus LRU extraction for the migration daemon."""

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        # Host-side id → knode shadow of the rbtree. The tree remains the
        # modeled structure (its size drives metadata accounting, its
        # counters drive the §4.3 statistics); the dict resolves pointers
        # in O(1) and lists the knodes in the tree's key order (see add).
        self._by_id: dict = {}
        self.rcu = RCUDomain("kmap")
        self.rbtree_accesses = 0

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, knode_id: int) -> bool:
        return knode_id in self._tree

    def add(self, knode: Knode) -> None:
        """Table 2's add_to_kmap()."""
        if self._by_id and knode.knode_id <= next(reversed(self._by_id)):
            raise SimulationError(f"knode {knode.knode_id} not above the kmap's ids")
        self.rcu.write()
        self._tree.insert(knode.knode_id, knode)
        self._by_id[knode.knode_id] = knode

    def remove(self, knode_id: int) -> bool:
        self.rcu.write()
        self._by_id.pop(knode_id, None)
        return self._tree.delete(knode_id)

    def lookup(self, knode_id: int) -> Optional[Knode]:
        """rbtree search — the slow path the per-CPU lists short-circuit."""
        self.rcu.read()
        self.rbtree_accesses += 1
        return self._tree.get(knode_id)

    def get_uncounted(self, knode_id: int) -> Optional[Knode]:
        """Resolve a knode without rbtree accounting.

        Models a direct pointer chase — a per-CPU list hit already holds
        the knode pointer (§4.3), so neither the RCU read counter, the
        kmap access counter, nor the tree's search statistics move. This
        is the public API for paths that previously reached into
        ``_tree`` directly.
        """
        return self._by_id.get(knode_id)

    def get_lru_knodes(
        self, limit: Optional[int] = None, *, cold_age: int = 0
    ) -> List[Knode]:
        """Table 2's get_LRU_knodes(): coldest knodes first.

        Closed (not inuse) knodes sort before open ones; within each
        class, older last-access first. ``cold_age`` filters open knodes
        that have not aged enough to be candidates.
        """
        self.rcu.read()
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

    def total_metadata_bytes(self) -> int:
        return sum(k.metadata_bytes() for k in self._by_id.values())

    def __repr__(self) -> str:
        return f"KMap(knodes={len(self)}, rbtree_accesses={self.rbtree_accesses})"
