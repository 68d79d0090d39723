"""Radix tree, as used by the Linux page cache to index file offsets.

The interior nodes matter to this paper: they are slab-allocated kernel
objects ("buffers added to radix tree nodes to track file metadata ...
are frequently queried, allocated, and deleted when trees are rebalanced"
— §3.3). Node creation/destruction is therefore surfaced via callbacks so
the filesystem can charge them to the slab allocator and count them in
the Figure 2 breakdowns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Linux uses 6-bit fanout (64 slots per node).
RADIX_SHIFT = 6
RADIX_SLOTS = 1 << RADIX_SHIFT


class _RadixNode:
    """One tree node: children by slot (interior nodes only) and the
    number of occupied slots below it."""

    __slots__ = ("slots", "count", "shift", "token")

    def __init__(self, shift: int) -> None:
        #: Child nodes by slot; None on leaves, whose entries live in the
        #: tree's value map.
        self.slots: Optional[Dict[int, "_RadixNode"]] = {} if shift else None
        self.count = 0
        self.shift = shift
        #: Opaque handle the owner attaches (e.g. the backing slab object).
        self.token: Any = None


class RadixTree:
    """Sparse index → value map with kernel-style interior nodes.

    Values live in one ``index → value`` dict; the nodes model the tree's
    shape (children and occupancy counts), so node allocation and
    teardown happen exactly as in a slot-valued radix tree.
    ``on_node_alloc``/``on_node_free`` fire whenever a node is created or
    torn down, letting callers model node allocations. ``lookups`` and
    ``lookup_hops`` count the walk a slot-valued tree would make: a hit
    visits every level, a miss stops at the first absent node.
    """

    def __init__(
        self,
        on_node_alloc: Optional[Callable[[_RadixNode], None]] = None,
        on_node_free: Optional[Callable[[_RadixNode], None]] = None,
    ) -> None:
        #: The top node (None while empty); callers read its ``token``.
        self.root: Optional[_RadixNode] = None
        self._height_shift = 0  # shift of the root node
        self._values: Dict[int, Any] = {}
        self._on_alloc = on_node_alloc
        self._on_free = on_node_free
        self.node_count = 0
        self.lookups = 0
        self.lookup_hops = 0

    def __len__(self) -> int:
        return len(self._values)

    def _new_node(self, shift: int) -> _RadixNode:
        node = _RadixNode(shift)
        self.node_count += 1
        if self._on_alloc:
            self._on_alloc(node)
        return node

    def _free_node(self, node: _RadixNode) -> None:
        self.node_count -= 1
        if self._on_free:
            self._on_free(node)

    # ------------------------------------------------------------------

    def insert(self, index: int, value: Any) -> bool:
        """Map ``index`` to ``value``; returns True if the slot was empty."""
        if index < 0:
            raise ValueError(f"radix index must be non-negative: {index}")
        if value is None:
            raise ValueError("radix tree cannot store None")
        values = self._values
        if index in values:
            values[index] = value
            return False
        if index >= 1 << (self._height_shift + RADIX_SHIFT):
            self._maybe_grow(index)
        if self.root is None:
            self.root = self._new_node(self._height_shift)
        node = self.root
        while node.shift > 0:
            slot = (index >> node.shift) & (RADIX_SLOTS - 1)
            child = node.slots.get(slot)
            if child is None:
                child = self._new_node(node.shift - RADIX_SHIFT)
                node.slots[slot] = child
                node.count += 1
            node = child
        node.count += 1
        values[index] = value
        return True

    def _maybe_grow(self, index: int) -> None:
        while index >= (1 << (self._height_shift + RADIX_SHIFT)):
            old_root = self.root
            self._height_shift += RADIX_SHIFT
            if old_root is not None:
                new_root = self._new_node(old_root.shift + RADIX_SHIFT)
                new_root.slots[0] = old_root
                new_root.count = 1
                self.root = new_root
            # With no root yet, just remember the required height.

    def lookup(self, index: int) -> Any:
        """Return the value at ``index`` or None."""
        self.lookups += 1
        value = self._values.get(index)
        if value is not None:
            self.lookup_hops += self._height_shift // RADIX_SHIFT + 1
            return value
        node = self.root
        if node is None or index >= (1 << (self._height_shift + RADIX_SHIFT)):
            return None
        hops = 1
        while node.shift > 0:
            node = node.slots.get((index >> node.shift) & (RADIX_SLOTS - 1))
            if node is None:
                break
            hops += 1
        self.lookup_hops += hops
        return None

    def delete(self, index: int) -> Any:
        """Remove and return the value at ``index`` (None if absent).

        Empty nodes are freed on the way back up — the churn §3.3
        attributes radix-node slab traffic to.
        """
        values = self._values
        if index not in values:
            return None
        path: List[Tuple[_RadixNode, int]] = []
        node = self.root
        while node.shift > 0:
            slot = (index >> node.shift) & (RADIX_SLOTS - 1)
            path.append((node, slot))
            node = node.slots[slot]
        value = values.pop(index)
        node.count -= 1
        # Prune empty nodes bottom-up.
        child = node
        for parent, pslot in reversed(path):
            if child.count:
                break
            self._free_node(child)
            parent.slots.pop(pslot, None)
            parent.count -= 1
            child = parent
        if self.root is not None and self.root.count == 0:
            self._free_node(self.root)
            self.root = None
            self._height_shift = 0
        return value

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate (index, value) pairs in index order."""
        yield from sorted(self._values.items())

    def mean_lookup_hops(self) -> float:
        return self.lookup_hops / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        return f"RadixTree(size={len(self._values)}, nodes={self.node_count})"
