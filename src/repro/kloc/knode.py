"""knodes: the per-inode table of contents over kernel objects.

§4.2.3: "we use the simple approach of incorporating two red-black trees
within each knode — *rbtree-cache* tracks large kernel objects allocated
using non-slab allocators, while *rbtree-slab* tracks smaller kernel
objects allocated using slab allocators."

Table 6's metadata accounting lives here too: 8 bytes of rb-tree pointer
per tracked object plus a 64-byte knode structure per inode.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

from repro.alloc.base import KernelObject
from repro.core.objtypes import AllocatorKind
from repro.ds.rbtree import NIL, RedBlackTree
from repro.mem.frame import PageFrame

#: sizeof(struct knode) — §7.1: "64 byte KLOC structure attached to each
#: open inode".
KNODE_STRUCT_BYTES = 64
#: Per-object rb-tree pointer — §7.1: "8 byte RB-tree pointer for each
#: cache page and slab object structure".
RB_POINTER_BYTES = 8


class Knode:
    """One KLOC: all kernel objects of one file/socket inode."""

    def __init__(self, knode_id: int, ino: int, *, created_at: int = 0) -> None:
        self.knode_id = knode_id
        self.ino = ino
        self.rbtree_cache = RedBlackTree()
        self.rbtree_slab = RedBlackTree()
        #: §4.3: zeroed on access, incremented by LRU scans that skip it.
        self.age = 0
        #: True while the file/socket is open (§4.1's *inuse*).
        self.inuse = False
        self.created_at = created_at
        self.last_access = created_at
        self.peak_objects = 0
        #: :meth:`walk_frames`'s result, or None after a membership change.
        self._frames: Optional[List[PageFrame]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _tree_for(self, obj: KernelObject) -> RedBlackTree:
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
            self.rbtree_slab.insert(obj.oid, obj)
        else:
            self.rbtree_cache.insert(obj.oid, obj)
        self._frames = None
        count = len(self.rbtree_cache) + len(self.rbtree_slab)
        if count > self.peak_objects:
            self.peak_objects = count

    def remove_obj(self, obj: KernelObject) -> bool:
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in (
            "slab",
            "kloc",
        ):
            removed = self.rbtree_slab.delete(obj.oid)
        else:
            removed = self.rbtree_cache.delete(obj.oid)
        if removed:
            self._frames = None
        return removed

    def has_obj(self, obj: KernelObject) -> bool:
        return obj.oid in self._tree_for(obj)

    @property
    def object_count(self) -> int:
        return len(self.rbtree_cache) + len(self.rbtree_slab)

    def iter_cache(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_cache()."""
        return self.rbtree_cache.values()

    def iter_slab(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_slab()."""
        return self.rbtree_slab.values()

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
        """In-order walk of both subtrees (cache tree first), first live
        occurrence of a frame winning; an explicit stack, not generators."""
        seen: Set[int] = set()
        out: List[PageFrame] = []
        for tree in (self.rbtree_cache, self.rbtree_slab):
            stack: List = []
            node = tree.root
            while stack or node is not NIL:
                while node is not NIL:
                    stack.append(node)
                    node = node.left
                node = stack.pop()
                frame = node.value.frame
                if frame.freed_at is None:
                    fid = frame.fid
                    if fid not in seen:
                        seen.add(fid)
                        out.append(frame)
                node = node.right
        return out

    # ------------------------------------------------------------------
    # Table 6 accounting
    # ------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        return KNODE_STRUCT_BYTES + RB_POINTER_BYTES * self.object_count

    def __repr__(self) -> str:
        state = "inuse" if self.inuse else f"age={self.age}"
        return (
            f"Knode(#{self.knode_id} ino={self.ino} "
            f"cache={len(self.rbtree_cache)} slab={len(self.rbtree_slab)} {state})"
        )
