"""Tests for the two-list LRU and the per-CPU knode lists."""

import pytest

from repro.ds.lru import ActiveInactiveLRU
from repro.kloc.kmap import KMap
from repro.kloc.percpu_cache import PerCPUKnodeCache


class TestActiveInactiveLRU:
    def test_new_items_enter_inactive(self):
        lru = ActiveInactiveLRU()
        lru.insert("a")
        assert not lru.is_active("a")
        assert lru.inactive_count == 1

    def test_second_touch_promotes(self):
        lru = ActiveInactiveLRU()
        lru.insert("a")
        lru.touch("a")
        assert lru.is_active("a")
        assert lru.promotions == 1

    def test_touch_unknown_inserts(self):
        lru = ActiveInactiveLRU()
        lru.touch("ghost")
        assert "ghost" in lru
        assert not lru.is_active("ghost")

    def test_balance_demotes_cold_active(self):
        lru = ActiveInactiveLRU(active_ratio=0.5)
        for i in range(10):
            lru.insert(i)
            lru.touch(i)  # promote everything
        # Active can be at most half of the total population.
        assert lru.active_count <= len(lru) * 0.5 + 1
        assert lru.demotions > 0

    def test_eviction_candidates_coldest_first(self):
        lru = ActiveInactiveLRU()
        for i in range(5):
            lru.insert(i)
        lru.touch(0)  # 0 becomes active → not an early candidate
        candidates = lru.eviction_candidates(2)
        assert candidates == [1, 2]

    def test_eviction_candidates_fall_back_to_active(self):
        lru = ActiveInactiveLRU()
        lru.insert("a")
        lru.touch("a")
        assert lru.eviction_candidates(1) == ["a"]

    def test_remove(self):
        lru = ActiveInactiveLRU()
        lru.insert("a")
        assert lru.remove("a") is True
        assert lru.remove("a") is False
        assert len(lru) == 0

    def test_reinsert_after_touch_is_noop_insert(self):
        lru = ActiveInactiveLRU()
        lru.insert("a")
        lru.insert("a")
        assert len(lru) == 1

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            ActiveInactiveLRU(active_ratio=1.0)


class TestPerCPUListSet:
    """§4.3's per-CPU lists, driven through the one class that holds
    them (:class:`PerCPUKnodeCache`); items are knode ids."""

    @staticmethod
    def make(num_cpus, max_per_cpu):
        return PerCPUKnodeCache(KMap(), num_cpus=num_cpus, max_per_cpu=max_per_cpu)

    def test_bounded_size_evicts_lru(self):
        lists = self.make(num_cpus=1, max_per_cpu=2)
        lists.record(1, cpu=0)
        lists.record(2, cpu=0)
        lists.record(1, cpu=0)  # refresh: 2 is now the LRU entry
        evicted = lists.record(3, cpu=0)
        assert evicted == 2
        assert lists.entries(0) == [1, 3]
        assert lists.total_entries == lists.recount() == 2

    def test_same_item_on_multiple_cpus(self):
        lists = self.make(num_cpus=3, max_per_cpu=4)
        lists.record(7, cpu=0)
        lists.record(7, cpu=2)
        assert lists.find_cpu(7) == 2
        assert lists.total_entries == lists.recount() == 2

    def test_invalidate_coherence(self):
        lists = self.make(num_cpus=3, max_per_cpu=4)
        lists.record(7, cpu=0)
        lists.record(7, cpu=1)
        assert lists.invalidate(7) == 2
        assert lists.find_cpu(7) is None
        assert lists.entries(0) == lists.entries(1) == []
        assert lists.total_entries == lists.recount() == 0

    def test_invalidate_absent(self):
        lists = self.make(num_cpus=1, max_per_cpu=1)
        assert lists.invalidate(99) == 0
        assert lists.total_entries == 0

    def test_all_entries_dedup(self):
        """Re-recording a knode on a CPU refreshes its one entry; the
        same knode on another CPU is a second entry."""
        lists = self.make(num_cpus=2, max_per_cpu=4)
        lists.record(7, cpu=1)
        lists.record(8, cpu=1)
        lists.record(7, cpu=1)
        lists.record(7, cpu=0)
        assert lists.entries(1) == [8, 7]
        assert lists.entries(0) == [7]
        assert lists.total_entries == lists.recount() == 3

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            self.make(num_cpus=0, max_per_cpu=1)
        with pytest.raises(ValueError):
            self.make(num_cpus=1, max_per_cpu=0)
