"""knodes: the per-inode table of contents over kernel objects.

§4.2.3: "we use the simple approach of incorporating two red-black trees
within each knode — *rbtree-cache* tracks large kernel objects allocated
using non-slab allocators, while *rbtree-slab* tracks smaller kernel
objects allocated using slab allocators."

The two sets keep the paper's names but are ``{oid: object}`` dicts
(no simulated cost depends on a tree's shape), walked in ascending oid
order as an in-order tree walk would be; adoption adds older oids later.

Table 6's metadata sizes are defined here (8 bytes of rb-tree pointer
per tracked object plus a 64-byte knode structure per inode);
:meth:`repro.kloc.manager.KlocManager.metadata_bytes` sums them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.alloc.base import KernelObject
from repro.core.objtypes import AllocatorKind
from repro.mem.frame import PageFrame

#: sizeof(struct knode) — §7.1: "64 byte KLOC structure attached to each
#: open inode".
KNODE_STRUCT_BYTES = 64
#: Per-object rb-tree pointer — §7.1: "8 byte RB-tree pointer for each
#: cache page and slab object structure".
RB_POINTER_BYTES = 8


def _by_oid(members: Dict[int, KernelObject]) -> List[KernelObject]:
    """Members in ascending oid order — the in-order walk of the tree."""
    return [members[oid] for oid in sorted(members)]


class Knode:
    """One KLOC: all kernel objects of one file/socket inode."""

    def __init__(self, knode_id: int, ino: int, *, created_at: int = 0) -> None:
        self.knode_id = knode_id
        self.ino = ino
        #: oid → object, walked in oid order (see :func:`_by_oid`).
        self.rbtree_cache: Dict[int, KernelObject] = {}
        self.rbtree_slab: Dict[int, KernelObject] = {}
        #: §4.3: zeroed on access, incremented by LRU scans that skip it.
        self.age = 0
        #: True while the file/socket is open (§4.1's *inuse*).
        self.inuse = False
        self.last_access = created_at
        self.peak_objects = 0
        #: :meth:`walk_frames`'s result, or None after a membership change.
        self._frames: Optional[List[PageFrame]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _tree_for(self, obj: KernelObject) -> Dict[int, KernelObject]:
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in ("slab", "kloc"):
            return self.rbtree_slab
        return self.rbtree_cache

    def add_obj(self, obj: KernelObject) -> None:
        """Table 2's knode_add_obj(): insert into the right subtree."""
        # _tree_for, inlined — one membership change per tracked object
        # alloc/free makes the dispatch call itself measurable.
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in (
            "slab",
            "kloc",
        ):
            self.rbtree_slab[obj.oid] = obj
        else:
            self.rbtree_cache[obj.oid] = obj
        self._frames = None
        count = len(self.rbtree_cache) + len(self.rbtree_slab)
        if count > self.peak_objects:
            self.peak_objects = count

    def remove_obj(self, obj: KernelObject) -> bool:
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in (
            "slab",
            "kloc",
        ):
            members = self.rbtree_slab
        else:
            members = self.rbtree_cache
        if members.pop(obj.oid, None) is None:
            return False
        self._frames = None
        return True

    def has_obj(self, obj: KernelObject) -> bool:
        return obj.oid in self._tree_for(obj)

    @property
    def object_count(self) -> int:
        return len(self.rbtree_cache) + len(self.rbtree_slab)

    def iter_cache(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_cache(), in oid order."""
        return iter(_by_oid(self.rbtree_cache))

    def iter_slab(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_slab(), in oid order."""
        return iter(_by_oid(self.rbtree_slab))

    def iter_all(self) -> Iterator[KernelObject]:
        yield from self.iter_cache()
        yield from self.iter_slab()

    # ------------------------------------------------------------------
    # hotness
    # ------------------------------------------------------------------

    def touch(self, now_ns: int) -> None:
        """A member object was referenced: the KLOC is hot again."""
        self.age = 0
        self.last_access = now_ns

    def tick_age(self) -> int:
        """An LRU pass saw the knode but did not evict it (§4.3)."""
        self.age += 1
        return self.age

    def is_cold(self, cold_age: int) -> bool:
        """Definitely cold when closed; likely cold when aged (§3.2)."""
        if not self.inuse:
            return True
        return self.age >= cold_age

    # ------------------------------------------------------------------
    # migration support
    # ------------------------------------------------------------------

    def frames(self) -> List[PageFrame]:
        """Distinct live frames under this knode — the unit §4.4 migrates
        en masse — in :meth:`walk_frames` order. The walk is redone only
        after :meth:`add_obj`/:meth:`remove_obj` change membership; frames
        freed in between are filtered here."""
        cached = self._frames
        if cached is None:
            cached = self._frames = self.walk_frames()
        return [f for f in cached if f.freed_at is None]

    def walk_frames(self) -> List[PageFrame]:
        """Both member sets in oid order (cache set first), first live
        occurrence of a frame winning."""
        seen: Set[int] = set()
        out: List[PageFrame] = []
        for members in (self.rbtree_cache, self.rbtree_slab):
            for obj in _by_oid(members):
                frame = obj.frame
                if frame.freed_at is None:
                    fid = frame.fid
                    if fid not in seen:
                        seen.add(fid)
                        out.append(frame)
        return out

    def __repr__(self) -> str:
        state = "inuse" if self.inuse else f"age={self.age}"
        return (
            f"Knode(#{self.knode_id} ino={self.ino} "
            f"cache={len(self.rbtree_cache)} slab={len(self.rbtree_slab)} {state})"
        )
