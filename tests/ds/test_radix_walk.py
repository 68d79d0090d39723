"""The dict-valued radix tree against a slot-valued reference.

``RadixTree`` keeps its values in one dict and its nodes only model the
tree's shape. The reference below is the slot-valued formulation: leaves
hold the values and every lookup walks from the root. Driven by the same
operations, both must report the same values, lookup counts and hops,
node counts, and node alloc/free callbacks in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.radix import RADIX_SHIFT, RADIX_SLOTS, RadixTree


class SlotTree:
    """Slot-valued radix tree: the hop counts every lookup is held to."""

    def __init__(self, events):
        self.root = None
        self.height = 0
        self.nodes = 0
        self.lookups = 0
        self.lookup_hops = 0
        self.events = events

    def _new(self, shift):
        self.nodes += 1
        self.events.append(("alloc", shift))
        return {"slots": {}, "count": 0, "shift": shift}

    def _free(self, node):
        self.nodes -= 1
        self.events.append(("free", node["shift"]))

    def insert(self, index, value):
        while index >= 1 << (self.height + RADIX_SHIFT):
            self.height += RADIX_SHIFT
            if self.root is not None:
                root = self._new(self.root["shift"] + RADIX_SHIFT)
                root["slots"][0] = self.root
                root["count"] = 1
                self.root = root
        if self.root is None:
            self.root = self._new(self.height)
        node = self.root
        while node["shift"] > 0:
            slot = (index >> node["shift"]) & (RADIX_SLOTS - 1)
            if slot not in node["slots"]:
                node["slots"][slot] = self._new(node["shift"] - RADIX_SHIFT)
                node["count"] += 1
            node = node["slots"][slot]
        slot = index & (RADIX_SLOTS - 1)
        fresh = slot not in node["slots"]
        node["count"] += fresh
        node["slots"][slot] = value
        return fresh

    def lookup(self, index):
        self.lookups += 1
        node = self.root
        if node is None or index >= 1 << (self.height + RADIX_SHIFT):
            return None
        while node is not None and node["shift"] > 0:
            self.lookup_hops += 1
            node = node["slots"].get((index >> node["shift"]) & (RADIX_SLOTS - 1))
        if node is None:
            return None
        self.lookup_hops += 1
        return node["slots"].get(index & (RADIX_SLOTS - 1))

    def delete(self, index):
        node = self.root
        if node is None or index >= 1 << (self.height + RADIX_SHIFT):
            return None
        path = []
        while node["shift"] > 0:
            slot = (index >> node["shift"]) & (RADIX_SLOTS - 1)
            if slot not in node["slots"]:
                return None
            path.append((node, slot))
            node = node["slots"][slot]
        slot = index & (RADIX_SLOTS - 1)
        if slot not in node["slots"]:
            return None
        value = node["slots"].pop(slot)
        node["count"] -= 1
        child = node
        for parent, pslot in reversed(path):
            if child["count"]:
                break
            self._free(child)
            del parent["slots"][pslot]
            parent["count"] -= 1
            child = parent
        if self.root["count"] == 0:
            self._free(self.root)
            self.root = None
            self.height = 0
        return value


INDEX = st.one_of(
    st.integers(min_value=0, max_value=3 * RADIX_SLOTS),
    st.integers(min_value=0, max_value=10**7),
)
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "delete"]), INDEX), max_size=120
)


def check_same(ops):
    tree_events, ref_events = [], []
    tree = RadixTree(
        on_node_alloc=lambda n: tree_events.append(("alloc", n.shift)),
        on_node_free=lambda n: tree_events.append(("free", n.shift)),
    )
    ref = SlotTree(ref_events)
    for step, (op, index) in enumerate(ops):
        if op == "insert":
            assert tree.insert(index, step + 1) == ref.insert(index, step + 1)
        else:
            assert getattr(tree, op)(index) == getattr(ref, op)(index)
        assert (tree.lookups, tree.lookup_hops) == (ref.lookups, ref.lookup_hops)
        assert tree.node_count == ref.nodes
    assert tree_events == ref_events


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_matches_slot_tree(ops):
    check_same(ops)


def test_hits_and_misses_at_every_depth():
    """Hits count every level; misses stop at the first absent node, at
    the leaf, or before the root when the index is out of range."""
    far = RADIX_SLOTS**3 + 5
    ops = [("insert", 3), ("insert", far), ("insert", RADIX_SLOTS + 1)]
    ops += [("lookup", i) for i in (3, far, RADIX_SLOTS + 1, 4, far + 1)]
    ops += [("lookup", i) for i in (RADIX_SLOTS**2, RADIX_SLOTS**5)]
    ops += [("delete", far), ("lookup", far), ("delete", 3), ("lookup", 3)]
    check_same(ops)


def test_items_sorted_by_index():
    tree = RadixTree()
    for index in (900, 2, RADIX_SLOTS**2, 64):
        tree.insert(index, -index - 1)
    assert list(tree.items()) == [
        (i, -i - 1) for i in sorted((900, 2, RADIX_SLOTS**2, 64))
    ]
