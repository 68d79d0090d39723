"""Tests for the two-list LRU and the per-CPU lists."""

import pytest

from repro.ds.lru import ActiveInactiveLRU
from repro.ds.percpu import PerCPUListSet


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
    def test_bounded_size_evicts_lru(self):
        lists = PerCPUListSet(num_cpus=1, max_per_cpu=2)
        lists.record(0, "a")
        lists.record(0, "b")
        evicted = lists.record(0, "c")
        assert evicted == "a"
        assert lists.entries(0) == ["b", "c"]

    def test_same_item_on_multiple_cpus(self):
        lists = PerCPUListSet(num_cpus=3, max_per_cpu=4)
        lists.record(0, "k")
        lists.record(2, "k")
        assert lists.find_cpus("k") == [0, 2]

    def test_invalidate_coherence(self):
        lists = PerCPUListSet(num_cpus=3, max_per_cpu=4)
        lists.record(0, "k")
        lists.record(1, "k")
        assert lists.invalidate("k") == 2
        assert lists.find_cpus("k") == []

    def test_invalidate_absent(self):
        lists = PerCPUListSet(num_cpus=1, max_per_cpu=1)
        assert lists.invalidate("nope") == 0
        assert lists.invalidations == 0

    def test_all_entries_dedup(self):
        lists = PerCPUListSet(num_cpus=2, max_per_cpu=4)
        lists.record(0, "k")
        lists.record(1, "k")
        lists.record(1, "j")
        assert sorted(lists.all_entries()) == ["j", "k"]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PerCPUListSet(num_cpus=0, max_per_cpu=1)
        with pytest.raises(ValueError):
            PerCPUListSet(num_cpus=1, max_per_cpu=0)

