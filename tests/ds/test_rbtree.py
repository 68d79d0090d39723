"""Tests for the red-black tree, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.rbtree import RedBlackTree


class TestBasics:
    def test_empty(self):
        tree = RedBlackTree()
        assert len(tree) == 0
        assert 5 not in tree
        assert tree.get(5) is None
        assert tree.min_key() is None

    def test_insert_and_get(self):
        tree = RedBlackTree()
        assert tree.insert(3, "a") is True
        assert tree.get(3) == "a"
        assert 3 in tree

    def test_insert_updates_existing(self):
        tree = RedBlackTree()
        tree.insert(3, "a")
        assert tree.insert(3, "b") is False
        assert tree.get(3) == "b"
        assert len(tree) == 1

    def test_get_default(self):
        assert RedBlackTree().get(1, "dflt") == "dflt"

    def test_delete(self):
        tree = RedBlackTree()
        tree.insert(1, "x")
        assert tree.delete(1) is True
        assert 1 not in tree
        assert len(tree) == 0

    def test_delete_missing(self):
        assert RedBlackTree().delete(42) is False

    def test_inorder_iteration_sorted(self):
        tree = RedBlackTree()
        for key in [5, 1, 9, 3, 7]:
            tree.insert(key, key * 10)
        assert list(tree.keys()) == [1, 3, 5, 7, 9]
        assert list(tree.values()) == [10, 30, 50, 70, 90]

    def test_min_key(self):
        tree = RedBlackTree()
        for key in [5, 2, 8]:
            tree.insert(key, None)
        assert tree.min_key() == 2

    def test_pop_min(self):
        tree = RedBlackTree()
        for key in [5, 2, 8]:
            tree.insert(key, str(key))
        assert tree.pop_min() == (2, "2")
        assert len(tree) == 2
        assert RedBlackTree().pop_min() is None

    def test_search_hop_accounting(self):
        tree = RedBlackTree()
        for key in range(100):
            tree.insert(key, None)
        tree.searches = tree.search_hops = 0
        tree.get(99)
        assert tree.searches == 1
        # ~log2(100) ≈ 7; a valid RB tree is at most 2x the optimal height.
        assert 1 <= tree.search_hops <= 15
        assert tree.mean_search_hops() == tree.search_hops

    def test_large_sequential_insert_balanced(self):
        """Sequential inserts (worst case for a naive BST) stay logarithmic."""
        tree = RedBlackTree()
        for key in range(4096):
            tree.insert(key, None)
        tree.check_invariants()
        tree.searches = tree.search_hops = 0
        tree.get(4095)
        assert tree.search_hops <= 2 * 13  # 2*log2(4096) + slack


class TestInvariants:
    def test_invariants_after_mixed_ops(self):
        tree = RedBlackTree()
        for key in range(0, 200, 2):
            tree.insert(key, key)
        for key in range(0, 200, 6):
            tree.delete(key)
        tree.check_invariants()
        expected = sorted(set(range(0, 200, 2)) - set(range(0, 200, 6)))
        assert list(tree.keys()) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-(10**6), max_value=10**6)))
    def test_property_insert_matches_sorted_set(self, keys):
        tree = RedBlackTree()
        for key in keys:
            tree.insert(key, key)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(set(keys))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1),
        st.lists(st.integers(min_value=0, max_value=500)),
    )
    def test_property_delete_matches_set_difference(self, inserts, deletes):
        tree = RedBlackTree()
        for key in inserts:
            tree.insert(key, key)
        for key in deletes:
            tree.delete(key)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(set(inserts) - set(deletes))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=100)),
            max_size=300,
        )
    )
    def test_property_interleaved_ops(self, ops):
        """Arbitrary insert/delete interleavings preserve RB properties."""
        tree = RedBlackTree()
        shadow = {}
        for is_insert, key in ops:
            if is_insert:
                tree.insert(key, key)
                shadow[key] = key
            else:
                tree.delete(key)
                shadow.pop(key, None)
        tree.check_invariants()
        assert dict(tree.items()) == shadow


class TestSplitTreeAblation:
    """§4.2.3: "using a single red-black tree to record millions of kernel
    objects can be prohibitively expensive; empirically, as many as ten
    memory references are needed on average for tree traversal."
    Splitting a knode's index into rbtree-cache and rbtree-slab shortens
    both trees."""

    OBJECTS = 60_000
    CACHE_SHARE = 0.7  # page-backed vs slab object mix of a big file set

    def _single_tree_hops(self):
        tree = RedBlackTree()
        for oid in range(self.OBJECTS):
            tree.insert(oid, oid)
        tree.searches = tree.search_hops = 0
        for oid in range(0, self.OBJECTS, 7):
            tree.get(oid)
        return tree.mean_search_hops()

    def _split_tree_hops(self):
        cache, slab = RedBlackTree(), RedBlackTree()
        split = int(self.OBJECTS * self.CACHE_SHARE)
        for oid in range(split):
            cache.insert(oid, oid)
        for oid in range(split, self.OBJECTS):
            slab.insert(oid, oid)
        cache.searches = cache.search_hops = 0
        slab.searches = slab.search_hops = 0
        for oid in range(0, self.OBJECTS, 7):
            (cache if oid < split else slab).get(oid)
        total_hops = cache.search_hops + slab.search_hops
        return total_hops / (cache.searches + slab.searches)

    def test_split_tree_reduces_traversal(self):
        single = self._single_tree_hops()
        split = self._split_tree_hops()
        # The paper's ~10-references pain point for a single big tree:
        assert single >= 10
        assert split < single
