"""Red-black tree (CLRS) with traversal-cost accounting.

Linux uses rbtrees for VMAs, the CFS runqueue, and — in this paper — the
per-knode object trees (*rbtree-cache*, *rbtree-slab*) and the global
*kmap* (§4.2.2-4.2.3). The implementation tracks comparisons per lookup
so the §4.2.3 observation ("as many as ten memory references are needed
on average for tree traversal") can be measured directly, and so the
split-tree ablation bench has something to compare.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: int, value: Any) -> None:
        self.key = key
        self.value = value
        self.color = RED
        self.left: "_Node" = NIL
        self.right: "_Node" = NIL
        self.parent: "_Node" = NIL


class _Nil(_Node):
    """Shared sentinel leaf. Always black, never dereferenced for data."""

    def __init__(self) -> None:  # noqa: D401 - sentinel bootstrap
        self.key = 0
        self.value = None
        self.color = BLACK
        self.left = self
        self.right = self
        self.parent = self


NIL = _Nil()


class RedBlackTree:
    """Ordered int-keyed map with O(log n) insert/delete/search."""

    def __init__(self) -> None:
        self.root: _Node = NIL
        self._size = 0
        #: Total node-to-node hops performed by searches (a proxy for the
        #: memory references the paper counts).
        self.search_hops = 0
        self.searches = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self._find(key) is not NIL

    def get(self, key: int, default: Any = None) -> Any:
        node = self._find(key)
        return node.value if node is not NIL else default

    def _find(self, key: int) -> _Node:
        self.searches += 1
        node = self.root
        while node is not NIL:
            self.search_hops += 1
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return NIL

    def min_key(self) -> Optional[int]:
        if self.root is NIL:
            return None
        return self._minimum(self.root).key

    def mean_search_hops(self) -> float:
        """Average hops per search — the §4.2.3 'ten memory references'."""
        return self.search_hops / self.searches if self.searches else 0.0

    def items(self) -> Iterator[Tuple[int, Any]]:
        """In-order iteration (iterative, stack-based)."""
        stack: List[_Node] = []
        node = self.root
        while stack or node is not NIL:
            while node is not NIL:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[int]:
        return (k for k, _v in self.items())

    def values(self) -> Iterator[Any]:
        return (v for _k, v in self.items())

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert(self, key: int, value: Any) -> bool:
        """Insert or update; returns True if a new node was created."""
        parent = NIL
        node = self.root
        while node is not NIL:
            parent = node
            if key == node.key:
                node.value = value
                return False
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value)
        fresh.parent = parent
        if parent is NIL:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return True

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color is RED:
            gp = z.parent.parent
            if z.parent is gp.left:
                uncle = gp.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp)
            else:
                uncle = gp.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp)
        self.root.color = BLACK

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False if absent."""
        z = self._find(key)
        if z is NIL:
            return False
        self._size -= 1
        y = z
        y_original_color = y.color
        if z.left is NIL:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is NIL:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_original_color is BLACK:
            self._delete_fixup(x)
        return True

    def pop_min(self) -> Optional[Tuple[int, Any]]:
        """Remove and return the smallest (key, value), or None if empty."""
        if self.root is NIL:
            return None
        node = self._minimum(self.root)
        result = (node.key, node.value)
        self.delete(node.key)
        return result

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is NIL:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    @staticmethod
    def _minimum(node: _Node) -> _Node:
        while node.left is not NIL:
            node = node.left
        return node

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self.root and x.color is BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self.root
        x.color = BLACK

    # ------------------------------------------------------------------
    # rotations
    # ------------------------------------------------------------------

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not NIL:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is NIL:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not NIL:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is NIL:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # ------------------------------------------------------------------
    # validation (tests + property-based checks)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the red-black properties; raises AssertionError if broken."""
        assert self.root.color is BLACK, "root must be black"
        self._check(self.root)
        assert self._size == sum(1 for _ in self.items()), "size mismatch"

    def _check(self, node: _Node) -> int:
        if node is NIL:
            return 1
        if node.color is RED:
            assert node.left.color is BLACK and node.right.color is BLACK, (
                f"red node {node.key} has a red child"
            )
        if node.left is not NIL:
            assert node.left.key < node.key, "BST order violated (left)"
        if node.right is not NIL:
            assert node.right.key > node.key, "BST order violated (right)"
        lh = self._check(node.left)
        rh = self._check(node.right)
        assert lh == rh, f"black-height mismatch at {node.key}: {lh} != {rh}"
        return lh + (1 if node.color is BLACK else 0)

    def __repr__(self) -> str:
        return f"RedBlackTree(size={self._size})"
